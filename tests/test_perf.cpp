#include "src/obs/perf.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <sstream>
#include <string>

#include "src/obs/json_parse.hpp"

namespace beepmis {
namespace {

// The PerfSession is a process-wide singleton like the Tracer; every test
// runs its own enable/disable bracket so state never leaks between tests.
// Counter availability depends on the host (perf_event_paranoid, PMU-less
// containers), so assertions on recorded data are gated on available() —
// the lifecycle, artifact-shape, and validation assertions hold either way.

obs::JsonValue export_doc() {
  std::ostringstream os;
  obs::PerfSession::instance().write_json(os);
  obs::JsonValue doc;
  std::string error;
  EXPECT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;
  return doc;
}

TEST(Perf, DisabledIsInert) {
  obs::PerfSession& session = obs::PerfSession::instance();
  session.disable();
  EXPECT_FALSE(obs::PerfSession::active());
  EXPECT_EQ(obs::PerfSession::sample_interval(), 0u);
  obs::PerfGroup::Reading start{};
  EXPECT_FALSE(obs::PerfSession::begin(&start));
  // Scopes while off must not crash or record.
  { obs::PerfSpanScope scope("noop"); }
  { obs::PerfSpanScope scope("noop", 0); }
}

TEST(Perf, GroupNamesAndMaskAgree) {
  // The counter-name table is the artifact's vocabulary; every index must
  // name something, and a failed open must leave the group inert.
  for (std::size_t i = 0; i < obs::PerfGroup::kCounters; ++i)
    EXPECT_NE(obs::PerfGroup::counter_name(i), nullptr);
  obs::PerfGroup group;
  EXPECT_FALSE(group.available());
  EXPECT_EQ(group.mask(), 0u);
  obs::PerfGroup::Reading r{};
  EXPECT_FALSE(group.read(&r));
  if (group.open()) {
    EXPECT_TRUE(group.available());
    EXPECT_NE(group.mask(), 0u);
    EXPECT_TRUE(group.read(&r));
    group.close();
    EXPECT_FALSE(group.available());
  }
}

TEST(Perf, UnopenedGroupOwnsNoDescriptor) {
  // Descriptor 0 is whatever the process opened first once stdin is gone
  // (a tool's events file, say). A group that never opened, or failed to,
  // must not close it when it is opened or destroyed.
  if (fcntl(0, F_GETFD) == -1) {
    ASSERT_EQ(open("/dev/null", O_RDONLY), 0);
  }
  {
    obs::PerfGroup group;
    group.open();
  }
  { obs::PerfGroup group; }
  EXPECT_NE(fcntl(0, F_GETFD), -1);
}

TEST(Perf, SessionLifecycleAndArtifactShape) {
  obs::PerfSession& session = obs::PerfSession::instance();
  session.clear_context();
  session.set_context("algorithm", "test-algo");
  session.set_context("n", "64");
  session.enable(/*sample_every=*/2);
  EXPECT_TRUE(session.enabled_once());
  EXPECT_EQ(obs::PerfSession::active(), session.available());

  // Plain scopes always arm; ordinal scopes arm on multiples of the stride.
  for (int i = 0; i < 3; ++i) {
    obs::PerfSpanScope scope("test.span");
  }
  for (std::uint64_t ordinal = 0; ordinal < 8; ++ordinal) {
    obs::PerfSpanScope scope("test.sampled", ordinal);
  }
  session.disable();
  EXPECT_FALSE(obs::PerfSession::active());

  const obs::JsonValue doc = export_doc();
  std::string error;
  std::size_t spans = 0, counters = 0;
  EXPECT_TRUE(obs::profile_validate(doc, &error, &spans, &counters))
      << error;
  EXPECT_EQ(doc.get("schema").as_string(""), "beepmis.profile.v1");
  EXPECT_EQ(doc.get("context").get("algorithm").as_string(""), "test-algo");
  EXPECT_EQ(doc.get("sample_every").as_number(0.0), 2.0);

  if (session.available()) {
    EXPECT_TRUE(doc.get("available").boolean);
    EXPECT_GT(counters, 0u);
    ASSERT_TRUE(doc.get("spans").has("test.span"));
    ASSERT_TRUE(doc.get("spans").has("test.sampled"));
    // Each recorded counter of a span carries the digest statistics, with
    // the plain scope recorded 3 times and the stride-2 ordinals 0,2,4,6
    // recorded 4 times.
    const std::string first = doc.get("counters").array[0].as_string("");
    const obs::JsonValue& plain = doc.get("spans").get("test.span");
    EXPECT_EQ(plain.get(first).get("count").as_number(0.0), 3.0);
    const obs::JsonValue& sampled = doc.get("spans").get("test.sampled");
    EXPECT_EQ(sampled.get(first).get("count").as_number(0.0), 4.0);
  } else {
    // Graceful degradation: the artifact is still well-formed and says so.
    EXPECT_FALSE(doc.get("available").boolean);
    EXPECT_EQ(spans, 0u);
  }
}

TEST(Perf, ReenableStartsFreshSession) {
  obs::PerfSession& session = obs::PerfSession::instance();
  session.clear_context();
  session.enable(1);
  { obs::PerfSpanScope scope("first.session"); }
  session.disable();
  session.enable(1);
  { obs::PerfSpanScope scope("second.session"); }
  session.disable();
  const obs::JsonValue doc = export_doc();
  if (session.available()) {
    EXPECT_FALSE(doc.get("spans").has("first.session"));
    EXPECT_TRUE(doc.get("spans").has("second.session"));
  }
}

TEST(Perf, ValidateAcceptsUnavailableDocument) {
  // The exact form every tool writes when the kernel denies counters.
  const std::string text =
      "{\"schema\":\"beepmis.profile.v1\",\"available\":false,"
      "\"sample_every\":64,\"counters\":[],\"context\":{},\"spans\":{}}";
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(text, &doc, &error)) << error;
  std::size_t spans = 99, counters = 99;
  EXPECT_TRUE(obs::profile_validate(doc, &error, &spans, &counters))
      << error;
  EXPECT_EQ(spans, 0u);
  EXPECT_EQ(counters, 0u);
}

TEST(Perf, ValidateRejectsMalformedDocuments) {
  const auto rejects = [](const std::string& text) {
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::json_parse(text, &doc, &error)) << error;
    EXPECT_FALSE(obs::profile_validate(doc, &error)) << text;
    EXPECT_FALSE(error.empty());
  };
  // Wrong schema.
  rejects("{\"schema\":\"beepmis.trace.v2\"}");
  // Unknown counter name.
  rejects(
      "{\"schema\":\"beepmis.profile.v1\",\"available\":true,"
      "\"sample_every\":1,\"counters\":[\"bogons\"],\"context\":{},"
      "\"spans\":{}}");
  // Unavailable sessions must not claim recorded spans.
  rejects(
      "{\"schema\":\"beepmis.profile.v1\",\"available\":false,"
      "\"sample_every\":1,\"counters\":[],\"context\":{},"
      "\"spans\":{\"x\":{}}}");
  // Span references a counter that is not in the counter list.
  rejects(
      "{\"schema\":\"beepmis.profile.v1\",\"available\":true,"
      "\"sample_every\":1,\"counters\":[\"cycles\"],\"context\":{},"
      "\"spans\":{\"x\":{\"instructions\":{\"count\":1,\"sum\":1,"
      "\"mean\":1,\"min\":1,\"max\":1,\"p50\":1,\"p90\":1,\"p95\":1,"
      "\"p99\":1}}}}");
  // Span counter missing a required statistic field.
  rejects(
      "{\"schema\":\"beepmis.profile.v1\",\"available\":true,"
      "\"sample_every\":1,\"counters\":[\"cycles\"],\"context\":{},"
      "\"spans\":{\"x\":{\"cycles\":{\"count\":1,\"sum\":1}}}}");
}

}  // namespace
}  // namespace beepmis
