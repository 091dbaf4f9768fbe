#include "src/obs/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/json_parse.hpp"
#include "src/support/task_pool.hpp"

namespace beepmis {
namespace {

// The tracer is a process-wide singleton; each test starts its own session
// (enable replaces all buffers) and disables before export, so tests stay
// independent despite the shared instance.

// Exports the session and checks it through the one trace validator.
obs::JsonValue export_doc() {
  std::ostringstream os;
  obs::Tracer::instance().write_json(os);
  obs::JsonValue doc;
  std::string error;
  EXPECT_TRUE(obs::json_parse(os.str(), &doc, &error)) << error;
  EXPECT_TRUE(obs::trace_validate(doc, &error)) << error;
  return doc;
}

// The thread_name record of the track labeled `label`, or null.
const obs::JsonValue* find_track(const obs::JsonValue& doc,
                                 const std::string& label) {
  for (const obs::JsonValue& ev : doc.get("traceEvents").array)
    if (ev.get("name").as_string("") == "thread_name" &&
        ev.get("args").get("name").as_string("") == label)
      return &ev;
  return nullptr;
}

// The recorded (non-metadata) events of `track`, in document order.
std::vector<obs::JsonValue> track_events(const obs::JsonValue& doc,
                                         const obs::JsonValue& track) {
  std::vector<obs::JsonValue> out;
  for (const obs::JsonValue& ev : doc.get("traceEvents").array)
    if (ev.get("ph").as_string("") != "M" &&
        ev.get("tid").as_number(-1.0) == track.get("tid").as_number())
      out.push_back(ev);
  return out;
}

TEST(Trace, DisabledIsInert) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.disable();
  EXPECT_FALSE(obs::Tracer::active());
  EXPECT_EQ(obs::Tracer::counter_interval(), 0u);
  // Record calls while off must not register buffers or records.
  obs::Tracer::counter("noop", 1.0);
  obs::Tracer::instant("noop");
  { obs::TraceScope scope("noop"); }
  tracer.enable(16, 0);
  tracer.disable();
  const obs::JsonValue doc = export_doc();
  EXPECT_EQ(doc.get("schema").as_string(""), "beepmis.trace.v2");
  // Only the process_name record: no track registered.
  ASSERT_EQ(doc.get("traceEvents").array.size(), 1u);
  EXPECT_EQ(doc.get("traceEvents").array[0].get("name").as_string(""),
            "process_name");
}

TEST(Trace, SpanNestingIsContained) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear_context();
  tracer.set_context("tool", "test");
  tracer.enable(64, 0);
  obs::Tracer::set_thread_label("main");
  {
    obs::TraceScope outer("outer", 42);
    obs::TraceScope inner("inner");
    (void)inner;
  }
  tracer.disable();

  const obs::JsonValue doc = export_doc();
  EXPECT_EQ(doc.get("otherData").get("tool").as_string(""), "test");
  const obs::JsonValue* main_track = find_track(doc, "main");
  ASSERT_NE(main_track, nullptr);
  const auto events = track_events(doc, *main_track);
  ASSERT_EQ(events.size(), 2u);
  // Destructor order records the inner span first.
  const obs::JsonValue& inner = events[0];
  const obs::JsonValue& outer = events[1];
  EXPECT_EQ(inner.get("name").as_string(""), "inner");
  EXPECT_EQ(outer.get("name").as_string(""), "outer");
  EXPECT_EQ(outer.get("args").get("arg").as_number(0.0), 42.0);
  EXPECT_FALSE(inner.has("args"));
  // Temporal containment: outer starts no later and ends no earlier.
  const double o_start = outer.get("ts").as_number(-1.0);
  const double o_end = o_start + outer.get("dur").as_number(0.0);
  const double i_start = inner.get("ts").as_number(-1.0);
  const double i_end = i_start + inner.get("dur").as_number(0.0);
  EXPECT_LE(o_start, i_start);
  EXPECT_GE(o_end, i_end);
}

TEST(Trace, RingOverwritesOldestAndCountsDropped) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(8, 0);
  obs::Tracer::set_thread_label("main");
  const auto now = obs::Tracer::Clock::now();
  for (std::uint64_t i = 0; i < 20; ++i)
    obs::Tracer::complete("span", now, now, i, /*has_arg=*/true);
  tracer.disable();
  EXPECT_EQ(tracer.dropped_spans(), 12u);

  const obs::JsonValue doc = export_doc();
  EXPECT_EQ(doc.get("dropped_total").as_number(-1.0), 12.0);
  const obs::JsonValue* main_track = find_track(doc, "main");
  ASSERT_NE(main_track, nullptr);
  EXPECT_EQ(main_track->get("args").get("recorded").as_number(0.0), 20.0);
  EXPECT_EQ(main_track->get("args").get("dropped").as_number(-1.0), 12.0);
  const auto events = track_events(doc, *main_track);
  ASSERT_EQ(events.size(), 8u);
  // Survivors are the newest 8 records, exported oldest-first.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].get("args").get("arg").as_number(0.0),
              static_cast<double>(12 + i));
}

TEST(Trace, CounterAndInstantEvents) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(32, 4);
  EXPECT_EQ(obs::Tracer::counter_interval(), 4u);
  obs::Tracer::set_thread_label("main");
  obs::Tracer::counter("engine.active", 17.5);
  obs::Tracer::instant("engine.reset", 3, /*has_arg=*/true);
  tracer.disable();

  const obs::JsonValue doc = export_doc();
  EXPECT_EQ(doc.get("counter_every").as_number(0.0), 4.0);
  const obs::JsonValue* main_track = find_track(doc, "main");
  ASSERT_NE(main_track, nullptr);
  const auto events = track_events(doc, *main_track);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].get("ph").as_string(""), "C");
  EXPECT_EQ(events[0].get("args").get("value").as_number(0.0), 17.5);
  EXPECT_EQ(events[1].get("ph").as_string(""), "i");
  EXPECT_EQ(events[1].get("s").as_string(""), "t");  // thread-scoped
  EXPECT_EQ(events[1].get("args").get("arg").as_number(0.0), 3.0);
}

TEST(Trace, ThreadTailReturnsNewestOldestFirst) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(16, 0);
  const auto now = obs::Tracer::Clock::now();
  for (std::uint64_t i = 0; i < 5; ++i)
    obs::Tracer::complete("span", now, now, i, /*has_arg=*/true);
  std::uint64_t tid = 99;
  const std::vector<obs::TraceRecord> tail = tracer.thread_tail(2, &tid);
  tracer.disable();
  EXPECT_EQ(tid, 0u);  // the session's first (and only) track
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].arg, 3u);
  EXPECT_EQ(tail[1].arg, 4u);
}

TEST(Trace, PoolWorkersGetLabeledTracksAndTaskSpans) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(4096, 0);
  obs::Tracer::set_thread_label("main");
  // The caller thread legally drains an entire batch of instant tasks
  // before a worker wakes, so make each task slow enough (1 ms) that the
  // spawned workers must claim some while the caller is busy.
  std::vector<int> hit(16, 0);
  {
    support::TaskPool pool(3);
    pool.parallel_for(hit.size(), [&](std::size_t i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      hit[i] = 1;
    });
  }
  for (int h : hit) EXPECT_EQ(h, 1);
  tracer.disable();

  const obs::JsonValue doc = export_doc();
  std::size_t task_spans = 0;
  bool saw_worker_label = false;
  for (const obs::JsonValue& ev : doc.get("traceEvents").array) {
    const std::string name = ev.get("name").as_string("");
    if (name == "thread_name" &&
        ev.get("args").get("name").as_string("").rfind("pool-worker-", 0) ==
            0)
      saw_worker_label = true;
    if (name == "pool.task") ++task_spans;
  }
  // Every task produces exactly one claim span, across however many
  // worker tracks actually claimed work.
  EXPECT_EQ(task_spans, hit.size());
  EXPECT_TRUE(saw_worker_label);
}

TEST(Trace, DocumentIsChromeTraceEventJson) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear_context();
  tracer.set_context("algorithm", "v1");
  tracer.enable(64, 8);
  obs::Tracer::set_thread_label("main");
  {
    obs::TraceScope span("engine.round", 1);
    (void)span;
  }
  obs::Tracer::counter("engine.active", 9.0);
  obs::Tracer::instant("mark");
  tracer.disable();
  const obs::JsonValue doc = export_doc();

  EXPECT_EQ(doc.get("displayTimeUnit").as_string(""), "ms");
  EXPECT_EQ(doc.get("otherData").get("algorithm").as_string(""), "v1");
  EXPECT_EQ(doc.get("capacity_per_thread").as_number(0.0), 64.0);
  const auto& events = doc.get("traceEvents").array;
  // process_name + thread_name metadata plus the three recorded events.
  ASSERT_EQ(events.size(), 5u);
  bool saw_thread_name = false, saw_span = false, saw_counter = false,
       saw_instant = false;
  for (const obs::JsonValue& ev : events) {
    const std::string ph = ev.get("ph").as_string("");
    ASSERT_FALSE(ph.empty());
    ASSERT_FALSE(ev.get("name").as_string("").empty());
    EXPECT_EQ(ev.get("pid").as_number(0.0), 1.0);
    if (ph == "M" && ev.get("name").as_string("") == "thread_name") {
      saw_thread_name = true;
      EXPECT_EQ(ev.get("args").get("name").as_string(""), "main");
      EXPECT_EQ(ev.get("args").get("recorded").as_number(0.0), 3.0);
    }
    if (ph != "M") {
      EXPECT_EQ(ev.get("cat").as_string(""), "beepmis");
    }
    if (ph == "X") {
      saw_span = true;
      EXPECT_TRUE(ev.has("ts"));
      EXPECT_TRUE(ev.has("dur"));
      EXPECT_EQ(ev.get("args").get("arg").as_number(0.0), 1.0);
    }
    if (ph == "C") {
      saw_counter = true;
      EXPECT_EQ(ev.get("args").get("value").as_number(0.0), 9.0);
    }
    if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(ev.get("s").as_string(""), "t");
    }
  }
  EXPECT_TRUE(saw_thread_name);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_instant);
}

TEST(Trace, EventTimesKeepFullNanosecondPrecision) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  obs::TraceRecord r;
  r.name = "span";
  r.ts_ns = 123456789012345;
  r.dur_ns = 987654321;
  obs::trace_write_event(w, r, 3);
  obs::JsonValue ev;
  ASSERT_TRUE(obs::json_parse(os.str(), &ev));
  EXPECT_EQ(ev.get("tid").as_number(), 3.0);
  EXPECT_EQ(std::llround(ev.get("ts").as_number() * 1000.0),
            123456789012345);
  EXPECT_EQ(std::llround(ev.get("dur").as_number() * 1000.0), 987654321);
}

TEST(Trace, ValidateRejectsForeignAndMalformedDocuments) {
  const std::string valid = R"({"traceEvents": [
      {"ph": "M", "pid": 1, "name": "process_name",
       "args": {"name": "beepmis"}},
      {"ph": "M", "pid": 1, "tid": 0, "name": "thread_name",
       "args": {"name": "main", "recorded": 9, "dropped": 7}},
      {"ph": "X", "pid": 1, "tid": 0, "cat": "beepmis", "name": "s",
       "ts": 1.5, "dur": 0.25},
      {"ph": "C", "pid": 1, "tid": 0, "cat": "beepmis", "name": "c",
       "ts": 2, "args": {"value": 4}}],
    "displayTimeUnit": "ms", "schema": "beepmis.trace.v2",
    "capacity_per_thread": 2, "counter_every": 16, "dropped_total": 7,
    "otherData": {"tool": "test"}})";
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::json_parse(valid, &doc, &error)) << error;
  std::size_t tracks = 0, events = 0;
  ASSERT_TRUE(obs::trace_validate(doc, &error, &tracks, &events)) << error;
  EXPECT_EQ(tracks, 1u);
  EXPECT_EQ(events, 2u);

  // Each edit breaks one rule; every one must be rejected with a reason.
  const std::vector<std::pair<std::string, std::string>> edits = {
      {R"("beepmis.trace.v2")", R"("beepmis.run.v1")"},
      {R"("dropped_total": 7)", R"("dropped_total": 6)"},
      {R"("counter_every": 16)", R"("counter_every": -1)"},
      {R"("tool": "test")", R"("tool": 5)"},
      {R"("recorded": 9)", R"("recorded": 9.5)"},
      {R"("dur": 0.25)", R"("dura": 0.25)"},
      {R"("ts": 1.5)", R"("ts": -1.5)"},
      {R"("value": 4)", R"("valu": 4)"},
      {R"("name": "s")", R"("name": "")"},
      {R"("ph": "C")", R"("ph": "Q")"},
      {R"("tid": 0, "cat": "beepmis", "name": "s")",
       R"("tid": 1, "cat": "beepmis", "name": "s")"},
      {R"("traceEvents")", R"("events")"},
  };
  for (const auto& [from, to] : edits) {
    SCOPED_TRACE(to);
    std::string text = valid;
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, from.size(), to);
    ASSERT_TRUE(obs::json_parse(text, &doc, &error)) << error;
    error.clear();
    EXPECT_FALSE(obs::trace_validate(doc, &error));
    EXPECT_FALSE(error.empty());
  }
}

TEST(Trace, ReenableStartsFreshSession) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(16, 0);
  obs::Tracer::set_thread_label("main");
  const auto now = obs::Tracer::Clock::now();
  obs::Tracer::complete("old", now, now);
  tracer.enable(16, 0);  // second session: prior buffers are discarded
  obs::Tracer::complete("new", now, now);
  tracer.disable();
  const obs::JsonValue doc = export_doc();
  // process_name, the one track's thread_name and its one record.
  ASSERT_EQ(doc.get("traceEvents").array.size(), 3u);
  const obs::JsonValue* main_track = find_track(doc, "main");
  ASSERT_NE(main_track, nullptr);
  const auto events = track_events(doc, *main_track);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].get("name").as_string(""), "new");
}

}  // namespace
}  // namespace beepmis
