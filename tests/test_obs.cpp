#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/beep/network.hpp"
#include "src/core/fast_engine.hpp"
#include "src/core/lmax.hpp"
#include "src/core/selfstab_mis.hpp"
#include "src/core/selfstab_mis2.hpp"
#include "src/graph/generators.hpp"
#include "src/obs/json.hpp"
#include "src/obs/manifest.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/sink.hpp"
#include "src/obs/timing.hpp"

namespace beepmis {
namespace {

// --- Minimal strict JSON parser (tests only) -------------------------------
//
// Recursive-descent over the full document; any syntax error fails the
// parse. Numbers are kept as doubles (all values we emit fit exactly).

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Object, Array };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();  // no trailing garbage
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }
  bool literal(const char* lit) {
    const std::size_t len = std::string(lit).size();
    if (s_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }
  bool string(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) return false;
            pos_ += 4;  // decoded value not needed by any test
            c = '?';
            break;
          default: return false;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number(double* out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(s_[pos_]) || s_[pos_] == '.' ||
                                s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return false;
    try {
      *out = std::stod(s_.substr(start, pos_ - start));
    } catch (...) {
      return false;
    }
    return true;
  }
  bool value(JsonValue* out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out->type = JsonValue::Type::String;
      return string(&out->str);
    }
    if (c == 't') {
      out->type = JsonValue::Type::Bool;
      out->boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out->type = JsonValue::Type::Bool;
      out->boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out->type = JsonValue::Type::Null;
      return literal("null");
    }
    out->type = JsonValue::Type::Number;
    return number(&out->number);
  }
  bool object(JsonValue* out) {
    out->type = JsonValue::Type::Object;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      JsonValue v;
      if (!value(&v)) return false;
      out->object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array(JsonValue* out) {
    out->type = JsonValue::Type::Array;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!value(&v)) return false;
      out->array.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

JsonValue parse_or_die(const std::string& text) {
  JsonValue v;
  JsonParser p(text);
  EXPECT_TRUE(p.parse(&v)) << "unparseable JSON: " << text;
  return v;
}

// --- Registry primitives ---------------------------------------------------

TEST(Metrics, CounterGaugeBasics) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.counter("a").inc();
  reg.counter("a").inc(41);
  EXPECT_EQ(reg.counter("a").value(), 42u);
  reg.gauge("g").set(2.5);
  reg.gauge("g").add(0.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 3.0);
  EXPECT_FALSE(reg.empty());
}

TEST(Metrics, RegisteredReferencesAreStable) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("a");
  // Registering many more names must not move the first node.
  for (int i = 0; i < 100; ++i) reg.counter("x" + std::to_string(i));
  a.inc();
  EXPECT_EQ(reg.counter("a").value(), 1u);
}

TEST(Metrics, ScopedTimerRecords) {
  obs::MetricsRegistry reg;
  {
    obs::ScopedTimer t(&reg, "work");
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  EXPECT_EQ(reg.timer("work").count(), 1u);
  EXPECT_GT(reg.timer("work").total_ns(), 0u);
  // Null registry disarms without crashing or recording.
  { obs::ScopedTimer t(static_cast<obs::MetricsRegistry*>(nullptr), "work"); }
  EXPECT_EQ(reg.timer("work").count(), 1u);
}

// --- Shard merge (parallel sweep telemetry fold) ---------------------------

TEST(MetricsMerge, CountersAddAndMissingNamesAreCreated) {
  obs::MetricsRegistry a, b;
  a.counter("shared").inc(3);
  b.counter("shared").inc(39);
  b.counter("only_in_b").inc(7);
  a.merge(b);
  EXPECT_EQ(a.counter("shared").value(), 42u);
  EXPECT_EQ(a.counter("only_in_b").value(), 7u);
  // Merge reads, never writes, the source shard.
  EXPECT_EQ(b.counter("shared").value(), 39u);
}

TEST(MetricsMerge, GaugeIsLastWriter) {
  obs::MetricsRegistry a, b;
  a.gauge("g").set(1.0);
  b.gauge("g").set(2.5);
  a.merge(b);
  // Shards merge in ascending seed order, so the later shard's value is what
  // a serial run would have left behind.
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 2.5);
}

TEST(MetricsMerge, TimerFoldsExactly) {
  // Two shards vs one serial registry over the same sample split.
  obs::MetricsRegistry serial, s1, s2, merged;
  for (std::uint64_t v = 0; v < 100; ++v) {
    serial.timer("t").record_ns(v * 1000);
    (v < 50 ? s1 : s2).timer("t").record_ns(v * 1000);
  }
  merged.merge(s1);
  merged.merge(s2);
  EXPECT_EQ(merged.timer("t").count(), serial.timer("t").count());
  EXPECT_EQ(merged.timer("t").total_ns(), serial.timer("t").total_ns());
  EXPECT_EQ(merged.timer("t").max_ns(), serial.timer("t").max_ns());
}

TEST(MetricsMerge, DigestFoldInSeedOrderMatchesSerialExactly) {
  // Per-replica shards hold few samples (well under Digest::kExact), so the
  // merge path is an in-order replay: folding shards in ascending seed order
  // must reproduce the serial digest bit-for-bit — including quantiles.
  obs::MetricsRegistry serial, merged;
  std::vector<obs::MetricsRegistry> shards(8);
  support::Rng rng(123);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (int k = 0; k < 5; ++k) {
      const double x = static_cast<double>(rng.below(10000));
      serial.digest("d").add(x);
      shards[s].digest("d").add(x);
    }
  }
  for (const auto& shard : shards) merged.merge(shard);
  const obs::Digest& m = merged.digest("d");
  const obs::Digest& ref = serial.digest("d");
  EXPECT_EQ(m.count(), ref.count());
  EXPECT_DOUBLE_EQ(m.sum(), ref.sum());
  EXPECT_DOUBLE_EQ(m.min(), ref.min());
  EXPECT_DOUBLE_EQ(m.max(), ref.max());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(m.quantile(q), ref.quantile(q)) << "q=" << q;
}

TEST(MetricsMerge, DigestMergeIsDeterministicForFixedOrder) {
  // Same shards, merged twice in the same order: identical state.
  auto build = [] {
    obs::MetricsRegistry merged;
    support::Rng rng(77);
    for (int s = 0; s < 4; ++s) {
      obs::MetricsRegistry shard;
      for (int k = 0; k < 200; ++k)  // > kExact: approximate fold path
        shard.digest("d").add(static_cast<double>(rng.below(1 << 20)));
      merged.merge(shard);
    }
    return merged;
  };
  obs::MetricsRegistry a = build(), b = build();
  for (double q : {0.5, 0.9, 0.95, 0.99})
    EXPECT_DOUBLE_EQ(a.digest("d").quantile(q), b.digest("d").quantile(q));
  EXPECT_DOUBLE_EQ(a.digest("d").sum(), b.digest("d").sum());
}

TEST(MetricsMerge, BigDigestKeepsExactCountSumMinMax) {
  // Beyond the head buffer the quantile fold is approximate, but the moment
  // statistics must survive the merge exactly.
  obs::Digest big;
  double sum = 0;
  for (int k = 0; k < 1000; ++k) {
    const double x = static_cast<double>((k * 7919) % 4093);
    big.add(x);
    sum += x;
  }
  obs::Digest target;
  target.add(5000.0);  // straddles big's range from above…
  target.add(-3.0);    // …and below, so min/max must come from target
  target.merge(big);
  EXPECT_EQ(target.count(), 1002u);
  EXPECT_DOUBLE_EQ(target.sum(), sum + 5000.0 - 3.0);
  EXPECT_DOUBLE_EQ(target.min(), -3.0);
  EXPECT_DOUBLE_EQ(target.max(), 5000.0);
}

TEST(BufferedSink, FlushReplaysInOrderAndForwardsAnalysisWish) {
  obs::MemorySink downstream(/*with_analysis=*/true);
  obs::BufferedSink buffer(&downstream);
  EXPECT_TRUE(buffer.wants_analysis());  // forwards the downstream's wish
  obs::RoundEvent e;
  for (std::uint64_t r = 1; r <= 5; ++r) {
    e.round = r;
    buffer.on_round(e);
  }
  EXPECT_EQ(buffer.size(), 5u);
  EXPECT_TRUE(downstream.events().empty());  // nothing leaks before flush
  buffer.flush();
  ASSERT_EQ(downstream.events().size(), 5u);
  for (std::uint64_t r = 1; r <= 5; ++r)
    EXPECT_EQ(downstream.events()[r - 1].round, r);
  EXPECT_EQ(buffer.size(), 0u);  // flush drains the buffer
  // A buffer with no downstream just accumulates; flush is a no-op drop.
  obs::BufferedSink detached;
  EXPECT_FALSE(detached.wants_analysis());
  detached.on_round(e);
  detached.flush();
  EXPECT_EQ(detached.size(), 0u);
}

// --- JSON emitters round-trip ----------------------------------------------

TEST(MetricsJson, RoundTripsThroughParser) {
  obs::MetricsRegistry reg;
  reg.counter("runs").inc(3);
  reg.gauge("speed").set(1.5);
  for (int v = 0; v < 100; ++v)
    reg.digest("rounds").add(static_cast<double>(v));
  reg.timer("step").record_ns(12345);
  reg.timer("step").record_ns(67890);

  std::ostringstream out;
  reg.write_json(out);
  const JsonValue doc = parse_or_die(out.str());
  ASSERT_EQ(doc.type, JsonValue::Type::Object);
  ASSERT_TRUE(doc.has("counters"));
  ASSERT_TRUE(doc.has("gauges"));
  ASSERT_TRUE(doc.has("timers"));
  ASSERT_TRUE(doc.has("digests"));
  EXPECT_FALSE(doc.has("histograms"));
  EXPECT_DOUBLE_EQ(doc.at("counters").at("runs").number, 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("speed").number, 1.5);

  const JsonValue& digest = doc.at("digests").at("rounds");
  EXPECT_DOUBLE_EQ(digest.at("count").number, 100.0);
  EXPECT_DOUBLE_EQ(digest.at("min").number, 0.0);
  EXPECT_DOUBLE_EQ(digest.at("max").number, 99.0);

  const JsonValue& timer = doc.at("timers").at("step");
  EXPECT_DOUBLE_EQ(timer.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(timer.at("total_ns").number, 12345.0 + 67890.0);
}

TEST(MetricsJson, StringsAreEscaped) {
  obs::MetricsRegistry reg;
  reg.counter("weird \"name\"\n\\tab").inc();
  std::ostringstream out;
  reg.write_json(out);
  const JsonValue doc = parse_or_die(out.str());
  EXPECT_TRUE(doc.at("counters").has("weird \"name\"\n\\tab"));
}

TEST(Manifest, RoundTripsWithMetrics) {
  obs::RunManifest man;
  man.tool = "test_obs";
  man.seed = 424242;
  man.graph_name = "er-avg8(n=256)";
  man.family = "er-avg8";
  man.n = 256;
  man.m = 1024;
  man.max_degree = 17;
  man.algorithm = "V1-global-delta";
  man.init_policy = "uniform-random";
  man.c1 = 2;
  man.wall_ms = 12.5;
  man.add_extra("stabilized", "yes");

  obs::MetricsRegistry reg;
  reg.counter("cli.runs_total").inc();
  reg.digest("cli.rounds_to_stabilize").add(321);

  std::ostringstream out;
  obs::write_run_json(out, man, &reg);
  const JsonValue doc = parse_or_die(out.str());

  EXPECT_EQ(doc.at("schema").str, "beepmis.run.v1");
  EXPECT_EQ(doc.at("tool").str, "test_obs");
  EXPECT_DOUBLE_EQ(doc.at("seed").number, 424242.0);
  EXPECT_EQ(doc.at("graph").at("family").str, "er-avg8");
  EXPECT_DOUBLE_EQ(doc.at("graph").at("n").number, 256.0);
  EXPECT_DOUBLE_EQ(doc.at("graph").at("m").number, 1024.0);
  EXPECT_EQ(doc.at("algorithm").at("name").str, "V1-global-delta");
  EXPECT_DOUBLE_EQ(doc.at("algorithm").at("c1").number, 2.0);
  EXPECT_FALSE(doc.at("build").at("compiler").str.empty());
  ASSERT_TRUE(doc.at("timing").has("wall_ms"));
  EXPECT_EQ(doc.at("extra").at("stabilized").str, "yes");
  EXPECT_DOUBLE_EQ(
      doc.at("metrics").at("counters").at("cli.runs_total").number, 1.0);
}

TEST(Manifest, NullMetricsYieldsEmptyObject) {
  obs::RunManifest man;
  man.tool = "t";
  std::ostringstream out;
  obs::write_run_json(out, man, nullptr);
  const JsonValue doc = parse_or_die(out.str());
  EXPECT_TRUE(doc.at("metrics").object.empty());
}

// --- Per-round event stream from the simulator -----------------------------

std::unique_ptr<beep::Simulation> make_v1_sim(const graph::Graph& g,
                                              std::uint64_t seed,
                                              core::SelfStabMis** algo_out) {
  auto algo = std::make_unique<core::SelfStabMis>(
      g, core::lmax_global_delta(g));
  *algo_out = algo.get();
  return std::make_unique<beep::Simulation>(g, std::move(algo), seed);
}

TEST(EventStream, JsonlLinesParseIndependently) {
  support::Rng grng(11);
  const auto g = graph::make_erdos_renyi_avg_degree(64, 8.0, grng);
  core::SelfStabMis* algo = nullptr;
  auto sim = make_v1_sim(g, 21, &algo);
  support::Rng crng(1);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    algo->corrupt_node(v, crng);

  std::ostringstream out;
  obs::JsonlSink sink(out, /*with_analysis=*/true);
  sim->add_observer(&sink);
  for (int r = 0; r < 50 && !algo->is_stabilized(); ++r) sim->step();
  ASSERT_GT(sink.lines_written(), 0u);

  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t parsed = 0, expect_round = 1;
  while (std::getline(lines, line)) {
    const JsonValue doc = parse_or_die(line);
    // Schema: every cheap field plus lemma31 (analysis was requested).
    for (const char* key :
         {"round", "beeps_ch1", "beeps_ch2", "heard_ch1", "heard_ch2",
          "heard_any", "prominent", "stable", "mis", "active",
          "lemma31_violations"})
      EXPECT_TRUE(doc.has(key)) << key;
    EXPECT_DOUBLE_EQ(doc.at("round").number,
                     static_cast<double>(expect_round++));
    // |S_t| + active = n, always.
    EXPECT_DOUBLE_EQ(doc.at("stable").number + doc.at("active").number,
                     static_cast<double>(g.vertex_count()));
    ++parsed;
  }
  EXPECT_EQ(parsed, sink.lines_written());
}

TEST(EventStream, TruncatedJsonlKeepsEveryCompleteLineParseable) {
  // A crashed or killed run leaves a JSONL file cut mid-line. Every
  // complete line must still parse on its own — nothing about a line
  // depends on the lines after it.
  support::Rng grng(19);
  const auto g = graph::make_erdos_renyi_avg_degree(48, 6.0, grng);
  core::SelfStabMis* algo = nullptr;
  auto sim = make_v1_sim(g, 33, &algo);
  support::Rng crng(4);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    algo->corrupt_node(v, crng);

  std::ostringstream out;
  obs::JsonlSink sink(out, /*with_analysis=*/true);
  sim->add_observer(&sink);
  for (int r = 0; r < 20; ++r) sim->step();
  const std::string full = out.str();
  ASSERT_GE(sink.lines_written(), 20u);

  // Cut in the middle of the final line.
  const std::size_t last_newline = full.rfind('\n', full.size() - 2);
  ASSERT_NE(last_newline, std::string::npos);
  const std::string truncated =
      full.substr(0, last_newline + 1 + (full.size() - last_newline) / 2);
  ASSERT_NE(truncated.back(), '\n');  // genuinely mid-line

  std::istringstream lines(truncated);
  std::string line;
  std::uint64_t parsed = 0;
  std::vector<std::string> complete;
  while (std::getline(lines, line)) complete.push_back(line);
  ASSERT_FALSE(complete.empty());
  complete.pop_back();  // the torn fragment
  for (const std::string& l : complete) {
    const JsonValue doc = parse_or_die(l);
    EXPECT_TRUE(doc.has("round"));
    ++parsed;
  }
  EXPECT_EQ(parsed, sink.lines_written() - 1);
}

namespace {

/// Appends its id to a shared log on every event — order probe for the tee.
class OrderProbe final : public obs::RoundObserver {
 public:
  OrderProbe(int id, std::vector<int>* log, bool wants)
      : id_(id), log_(log), wants_(wants) {}
  void on_round(const obs::RoundEvent&) override { log_->push_back(id_); }
  bool wants_analysis() const override { return wants_; }

 private:
  int id_;
  std::vector<int>* log_;
  bool wants_;
};

}  // namespace

TEST(EventStream, TeeObserverFansOutInAddOrder) {
  std::vector<int> log;
  OrderProbe a(1, &log, false), b(2, &log, false), c(3, &log, true);
  obs::TeeObserver tee;
  EXPECT_TRUE(tee.empty());
  EXPECT_FALSE(tee.wants_analysis());
  tee.add(&a);
  tee.add(&b);
  tee.add(&c);
  EXPECT_FALSE(tee.empty());
  EXPECT_TRUE(tee.wants_analysis());  // any child wanting analysis suffices

  obs::RoundEvent e;
  e.round = 1;
  tee.on_round(e);
  e.round = 2;
  tee.on_round(e);
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 1, 2, 3}));
}

TEST(EventStream, AnalysisFieldOmittedWhenNotWanted) {
  const auto g = graph::make_path(8);
  core::SelfStabMis* algo = nullptr;
  auto sim = make_v1_sim(g, 3, &algo);
  std::ostringstream out;
  obs::JsonlSink sink(out, /*with_analysis=*/false);
  sim->add_observer(&sink);
  sim->step();
  const JsonValue doc = parse_or_die(out.str().substr(0, out.str().find('\n')));
  EXPECT_FALSE(doc.has("lemma31_violations"));
}

TEST(EventStream, LemmaViolationsVanishOnceStabilized) {
  support::Rng grng(14);
  const auto g = graph::make_erdos_renyi_avg_degree(48, 6.0, grng);
  core::SelfStabMis* algo = nullptr;
  auto sim = make_v1_sim(g, 8, &algo);
  support::Rng crng(2);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    algo->corrupt_node(v, crng);
  obs::MemorySink sink(/*with_analysis=*/true);
  sim->add_observer(&sink);
  while (!algo->is_stabilized() && sim->round() < 100000) sim->step();
  ASSERT_TRUE(algo->is_stabilized());
  // |S_t| never shrinks on a fault-free run, and I_t ⊆ S_t.
  std::uint32_t prev_stable = 0;
  for (const obs::RoundEvent& e : sink.events()) {
    EXPECT_GE(e.stable, prev_stable);
    EXPECT_LE(e.mis, e.stable);
    prev_stable = e.stable;
  }
  const auto& last = sink.events().back();
  EXPECT_TRUE(last.has_analysis);
  EXPECT_EQ(last.lemma31_violations, 0u);
  EXPECT_EQ(last.active, 0u);
  EXPECT_EQ(last.stable, g.vertex_count());
}

// --- Per-channel heard counts on a two-channel run (V3 regression) --------

TEST(EventStream, PerChannelHeardCountsOnTwoChannelRun) {
  support::Rng grng(12);
  const auto g = graph::make_erdos_renyi_avg_degree(64, 8.0, grng);
  auto algo = std::make_unique<core::SelfStabMisTwoChannel>(
      g, core::lmax_one_hop(g));
  auto* a = algo.get();
  beep::Simulation sim(g, std::move(algo), 17);
  support::Rng crng(4);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
    a->corrupt_node(v, crng);

  obs::MemorySink sink;
  sim.add_observer(&sink);
  while (!a->is_stabilized() && sim.round() < 100000) sim.step();
  ASSERT_TRUE(a->is_stabilized());

  // The events' per-channel beep counts must sum to the simulation's
  // independent per-channel totals.
  std::uint64_t beeps1 = 0, beeps2 = 0, heard1 = 0, heard2 = 0;
  for (std::size_t i = 0; i < sink.events().size(); ++i) {
    const obs::RoundEvent& e = sink.events()[i];
    EXPECT_EQ(e.round, i + 1);
    beeps1 += e.beeps_ch1;
    beeps2 += e.beeps_ch2;
    heard1 += e.heard_ch1;
    heard2 += e.heard_ch2;
    EXPECT_LE(e.heard_ch1, static_cast<std::uint32_t>(g.vertex_count()));
    EXPECT_LE(e.heard_any, e.heard_ch1 + e.heard_ch2);
    EXPECT_GE(e.heard_any, std::max(e.heard_ch1, e.heard_ch2));
    EXPECT_LE(e.mis, e.stable);
  }
  EXPECT_EQ(beeps1, sim.total_beeps(0));
  EXPECT_EQ(beeps2, sim.total_beeps(1));
  // Algorithm 2 genuinely uses both channels: each must have been heard.
  EXPECT_GT(heard1, 0u);
  EXPECT_GT(heard2, 0u);
  EXPECT_EQ(sink.events().back().stable, g.vertex_count());
}

// --- Satellite: engine active-count time series ----------------------------

TEST(FastEngineEvents, ActiveCountMonotoneNonIncreasingFaultFree) {
  support::Rng grng(13);
  const auto g = graph::make_erdos_renyi_avg_degree(256, 8.0, grng);
  core::FastMisEngine fast(g, core::lmax_global_delta(g), 6);
  support::Rng irng(7);
  for (graph::VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto span = static_cast<std::uint64_t>(2 * fast.lmax(v) + 1);
    fast.set_level(v,
                   static_cast<std::int32_t>(irng.below(span)) - fast.lmax(v));
  }
  obs::MemorySink sink;
  fast.set_observer(&sink);
  fast.run_to_stabilization(100000);
  ASSERT_TRUE(fast.is_stabilized());
  ASSERT_FALSE(sink.events().empty());

  // Fault-free (no set_level after the run started): once settled, always
  // settled, so the active series never increases.
  std::uint32_t prev = static_cast<std::uint32_t>(g.vertex_count());
  for (const auto& e : sink.events()) {
    EXPECT_LE(e.active, prev) << "round " << e.round;
    EXPECT_EQ(e.active + e.stable, g.vertex_count());
    prev = e.active;
  }
  EXPECT_EQ(sink.events().back().active, 0u);
  const auto members = fast.mis_members();
  EXPECT_EQ(sink.events().back().mis,
            static_cast<std::uint32_t>(
                std::count(members.begin(), members.end(), true)));
}

// --- Satellite: equivalence guard (simulator vs fast engine streams) -------

TEST(FastEngineEvents, IdenticalEventStreamToReferenceSimulatorV1) {
  support::Rng grng(15);
  const auto graphs = {
      graph::make_path(24),
      graph::make_star(24),
      graph::make_erdos_renyi(64, 0.08, grng),
  };
  for (const auto& g : graphs) {
    const auto lmax = core::lmax_global_delta(g);
    auto algo = std::make_unique<core::SelfStabMis>(g, lmax);
    auto* a = algo.get();
    beep::Simulation sim(g, std::move(algo), 99, {}, beep::Duplex::Full,
                         beep::RngMode::Counter);
    core::FastMisEngine fast(g, lmax, 99);
    support::Rng crng(7);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      a->corrupt_node(v, crng);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      fast.set_level(v, a->level(v));

    obs::MemorySink ref_sink(/*with_analysis=*/true);
    obs::MemorySink fast_sink(/*with_analysis=*/true);
    sim.add_observer(&ref_sink);
    fast.set_observer(&fast_sink);
    for (int r = 0; r < 300; ++r) {
      sim.step();
      fast.step();
    }
    ASSERT_EQ(ref_sink.events().size(), fast_sink.events().size());
    for (std::size_t i = 0; i < ref_sink.events().size(); ++i)
      ASSERT_EQ(ref_sink.events()[i], fast_sink.events()[i])
          << g.name() << " event " << i;
  }
}

TEST(FastEngineEvents, IdenticalEventStreamToReferenceSimulatorV3) {
  support::Rng grng(16);
  const auto graphs = {
      graph::make_path(24),
      graph::make_star(24),
      graph::make_erdos_renyi(64, 0.08, grng),
  };
  for (const auto& g : graphs) {
    const auto lmax = core::lmax_one_hop(g);
    auto algo = std::make_unique<core::SelfStabMisTwoChannel>(g, lmax);
    auto* a = algo.get();
    beep::Simulation sim(g, std::move(algo), 77, {}, beep::Duplex::Full,
                         beep::RngMode::Counter);
    core::FastMisEngine2 fast(g, lmax, 77);
    support::Rng crng(3);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      a->corrupt_node(v, crng);
    for (graph::VertexId v = 0; v < g.vertex_count(); ++v)
      fast.set_level(v, a->level(v));

    obs::MemorySink ref_sink(/*with_analysis=*/true);
    obs::MemorySink fast_sink(/*with_analysis=*/true);
    sim.add_observer(&ref_sink);
    fast.set_observer(&fast_sink);
    for (int r = 0; r < 300; ++r) {
      sim.step();
      fast.step();
    }
    ASSERT_EQ(ref_sink.events().size(), fast_sink.events().size());
    for (std::size_t i = 0; i < ref_sink.events().size(); ++i)
      ASSERT_EQ(ref_sink.events()[i], fast_sink.events()[i])
          << g.name() << " event " << i;
  }
}

TEST(FastEngineEvents, EngineTimersLandInRegistry) {
  const auto g = graph::make_path(16);
  core::FastMisEngine fast(g, core::lmax_global_delta(g), 2);
  obs::MetricsRegistry reg;
  fast.set_metrics(&reg);
  fast.set_level(0, 1);  // dirty the settlement cache
  fast.step();
  // Timer keys carry the variant tag and the resolved kernel so two engines
  // sharing a registry don't blend their timings.
  const std::string key =
      "fast_engine.alg1." + fast.kernel_name() + ".refresh_settlement";
  EXPECT_GE(reg.timer(key).count(), 1u);
  EXPECT_EQ(reg.timer("fast_engine.refresh_settlement").count(), 0u);
  EXPECT_EQ(reg.timer("fast_engine.alg1.refresh_settlement").count(), 0u);
}

}  // namespace
}  // namespace beepmis
