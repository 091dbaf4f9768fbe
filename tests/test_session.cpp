#include "src/obs/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json_parse.hpp"
#include "src/obs/recovery.hpp"
#include "src/obs/trace.hpp"
#include "src/support/args.hpp"

namespace beepmis {
namespace {

obs::RoundEvent make_event(std::uint64_t round, std::uint32_t active) {
  obs::RoundEvent e;
  e.round = round;
  e.active = active;
  return e;
}

bool parse(support::ArgParser& args, std::vector<std::string> flags) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& f : flags) argv.push_back(f.c_str());
  std::string error;
  const bool ok =
      args.parse(static_cast<int>(argv.size()), argv.data(), &error);
  EXPECT_TRUE(ok) << error;
  return ok;
}

/// Parses the file as JSON; false when it is missing or malformed.
bool read_json(const std::string& path, obs::JsonValue* doc) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  return obs::json_parse(buf.str(), doc);
}

TEST(Session, ObserverOptionsFollowTheFlags) {
  support::ArgParser args("test");
  obs::Session session(args, "beepmis_test");
  ASSERT_TRUE(parse(args, {"--monitor", "--monitor-every", "8",
                           "--anomaly-stall-multiple", "3",
                           "--anomaly-storm-window", "5"}));
  const obs::ObserverOptions o = session.observers(100, 40, 70);
  EXPECT_TRUE(o.dump_path.empty());
  EXPECT_TRUE(o.monitor);
  EXPECT_EQ(o.monitor_every, 8u);
  EXPECT_FALSE(o.track);  // --recovery-out not given
  EXPECT_EQ(o.anomaly.n, 100u);
  EXPECT_EQ(o.anomaly.expected_rounds, 40u);
  EXPECT_DOUBLE_EQ(o.anomaly.stall_multiple, 3.0);
  EXPECT_EQ(o.anomaly.storm_window, 5u);
  EXPECT_EQ(o.recovery.recovery_bound, 70u);
}

// One unwritable output path must cost only its own artifact: finish()
// reports it, still writes every other one, and returns 2.
TEST(Session, FinishWritesEveryArtifactItCan) {
  const std::string dir = testing::TempDir() + "beepmis_session_";
  const std::string bad = "/nonexistent-dir/artifact.json";
  const std::vector<std::string> artifacts = {"recovery-out", "metrics-out",
                                              "trace-out"};
  for (const std::string& failing :
       {std::string(), artifacts[0], artifacts[1], artifacts[2]}) {
    SCOPED_TRACE("unwritable: " + (failing.empty() ? "none" : failing));
    support::ArgParser args("test");
    obs::Session session(args, "beepmis_test");
    std::vector<std::string> flags = {"--monitor"};
    for (const std::string& a : artifacts) {
      std::remove((dir + a).c_str());
      flags.push_back("--" + a);
      flags.push_back(a == failing ? bad : dir + a);
    }
    ASSERT_TRUE(parse(args, flags));
    session.start({{"algorithm", "test"}});
    obs::MetricsRegistry metrics;
    metrics.counter("test.runs").inc();
    obs::RecoveryReport report;
    report.context.tool = "beepmis_test";
    std::FILE* notices = std::tmpfile();
    ASSERT_NE(notices, nullptr);
    EXPECT_EQ(session.finish(obs::RunManifest{}, metrics, &report, notices),
              failing.empty() ? 0 : 2);
    std::fclose(notices);

    obs::JsonValue doc;
    std::string error;
    if (failing != "recovery-out") {
      ASSERT_TRUE(read_json(dir + "recovery-out", &doc));
      EXPECT_TRUE(obs::recovery_validate(doc, &error)) << error;
      EXPECT_TRUE(doc.get("config").get("monitor").boolean);
      EXPECT_EQ(doc.get("config").get("monitor_cadence").as_number(), 64.0);
    }
    if (failing != "metrics-out") {
      ASSERT_TRUE(read_json(dir + "metrics-out", &doc));
      EXPECT_EQ(doc.get("tool").as_string(), "beepmis_test");
    }
    if (failing != "trace-out") {
      ASSERT_TRUE(read_json(dir + "trace-out", &doc));
      EXPECT_TRUE(obs::trace_validate(doc, &error)) << error;
    }
  }
}

TEST(ObserverStack, ArmsOnlyWhatTheOptionsAsk) {
  obs::ObserverOptions none;
  obs::ObserverStack bare(none, {}, nullptr, nullptr);
  EXPECT_TRUE(bare.tee().empty());
  EXPECT_EQ(bare.flight(), nullptr);
  EXPECT_EQ(bare.monitor(), nullptr);
  EXPECT_EQ(bare.tracker(), nullptr);

  obs::ObserverOptions monitored;
  monitored.monitor = true;
  monitored.monitor_every = 16;
  obs::ObserverStack stack(monitored, {}, nullptr, nullptr);
  EXPECT_EQ(stack.flight(), nullptr);
  ASSERT_NE(stack.monitor(), nullptr);
  ASSERT_NE(stack.tracker(), nullptr);  // the monitor implies the tracker
  EXPECT_EQ(stack.monitor()->config().cadence, 16u);
}

// Flight → monitor → tracker: when a stabilization claim turns out to be
// an invalid MIS, the flight recorder has already recorded the event when
// the monitor latches the violation into it (so the dump shows the round),
// and the violation reaches the tracker before it classifies the epoch
// that event closes.
TEST(ObserverStack, MonitorLatchesBeforeTrackerClosesTheEpoch) {
  obs::ObserverOptions options;
  options.dump_path = testing::TempDir() + "beepmis_session_order_dump.json";
  std::remove(options.dump_path.c_str());
  options.anomaly.n = 4;
  options.anomaly.storm_window = 0;
  options.monitor = true;
  options.monitor_every = 0;  // probe at stabilization edges only
  obs::InvariantProbeResult broken;
  broken.stabilized = true;
  broken.independent = false;
  obs::ObserverStack stack(
      options, {}, [] { return std::vector<std::int32_t>(4, 0); },
      [broken](bool) { return broken; });

  stack.tee().on_round(make_event(1, 3));
  stack.tee().on_round(make_event(2, 0));

  ASSERT_EQ(stack.flight()->anomalies().size(), 1u);
  EXPECT_EQ(stack.flight()->anomalies()[0].kind,
            obs::AnomalyKind::InvariantIndependence);
  obs::JsonValue dump;
  ASSERT_TRUE(read_json(options.dump_path, &dump));
  ASSERT_FALSE(dump.get("ring").array.empty());
  EXPECT_EQ(dump.get("ring").array.back().get("round").as_number(), 2.0);

  EXPECT_FALSE(stack.tracker()->epoch_open());
  ASSERT_EQ(stack.tracker()->epochs().size(), 1u);
  const obs::RecoveryEpoch& epoch = stack.tracker()->epochs()[0];
  EXPECT_EQ(epoch.cause, "invariant-violation");
  EXPECT_EQ(epoch.end_round, 2u);
  EXPECT_EQ(epoch.outcome, obs::RecoveryOutcome::SafetyViolation);
}

}  // namespace
}  // namespace beepmis
