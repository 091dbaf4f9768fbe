#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/json_parse.hpp"

namespace beepmis::obs {

class JsonWriter;

/// The sharded kernel's barrier-phased round, in execution order. The names
/// are the tracer spans the kernel records (static storage, as the tracer
/// requires); the keys name the phases in report tables and telemetry
/// gauges. core::kShardPhase* refer to these lists.
inline constexpr std::size_t kShardPhaseCount = 6;
inline constexpr const char* kShardPhaseNames[kShardPhaseCount] = {
    "shard.decide", "shard.stamp",  "shard.update",
    "shard.apply",  "shard.settle", "shard.fold"};
inline constexpr const char* kShardPhaseKeys[kShardPhaseCount] = {
    "decide", "stamp", "update", "apply", "settle", "fold"};

/// One fixed-size trace record. Names are `const char*` pointing at
/// static-storage string literals — the hot path never owns, copies or
/// allocates a string; variable context rides in the numeric `arg` (replica
/// seed, task index, round number) and is rendered at export time.
struct TraceRecord {
  enum class Kind : std::uint8_t { Span, Counter, Instant };

  std::uint64_t ts_ns = 0;   ///< start time, ns since the session epoch
  std::uint64_t dur_ns = 0;  ///< Span only
  const char* name = nullptr;
  double value = 0.0;        ///< Counter only
  std::uint64_t arg = 0;     ///< Span/Instant numeric argument
  Kind kind = Kind::Span;
  bool has_arg = false;
};

/// Process-wide span tracer: always compiled in, off by default, and free
/// when off (every hot-path entry is one relaxed atomic load and a branch).
///
/// When enabled, each recording thread owns a fixed-capacity ring buffer of
/// TraceRecords — no locking and no steady-state allocation on the hot path
/// (the ring is allocated once, on the thread's first record of a session).
/// A full ring overwrites its oldest record and counts the loss, so a
/// million-round run keeps its most recent history and `dropped_spans()`
/// reports exactly how much fell off the front. Tracing reads clocks and
/// writes private buffers only — it never touches RNG streams or algorithm
/// state, so simulation output is bit-identical with tracing on or off.
///
/// Sessions: enable() starts a new session (fresh epoch, fresh buffers) and
/// bumps an internal session id; record sites compare their thread-local
/// slot against the id and lazily re-register, so a stale thread from a
/// previous session can never write into freed memory. disable() stops
/// recording but keeps the buffers readable for export.
///
/// Export (`write_json`, `dropped_spans`) must only run while recorders are
/// quiescent — after TaskPool::parallel_for returned, or single-threaded.
/// The deterministic pool already guarantees that barrier; ad-hoc users
/// synchronize themselves. `thread_tail()` is the exception: it reads only
/// the calling thread's buffer, so the flight recorder can attach a trace
/// tail to an anomaly dump from inside a worker.
class Tracer {
 public:
  static Tracer& instance();

  /// Starts a tracing session: per-thread ring capacity (records) and the
  /// counter-track sampling interval K (instrumented loops emit counter
  /// samples every K rounds; 0 disables counter tracks). Replaces any prior
  /// session's buffers. Also installs the TaskPool observer so pool workers
  /// get labeled tracks and per-task claim spans.
  void enable(std::size_t capacity_per_thread, std::uint64_t counter_every);
  /// Stops recording (buffers stay readable for export/write_json).
  void disable();

  /// True while a session is recording. The one-load hot-path gate.
  static bool active() noexcept {
    return instance().session_.load(std::memory_order_relaxed) != 0;
  }
  /// Counter sampling interval of the live session, 0 when off — so
  /// instrumented loops gate their sampling with a single call.
  static std::uint64_t counter_interval() noexcept {
    Tracer& t = instance();
    return t.session_.load(std::memory_order_relaxed) == 0
               ? 0
               : t.counter_every_.load(std::memory_order_relaxed);
  }

  using Clock = std::chrono::steady_clock;

  /// Records a complete span from a start/stop clock pair the *caller*
  /// already took (ScopedTimer tees here with the same two reads that feed
  /// TimerStat and Digest). No-op when disabled.
  static void complete(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t arg = 0,
                       bool has_arg = false);
  /// Records a counter-track sample (timestamped now). No-op when disabled.
  static void counter(const char* name, double value);
  /// Records an instant event (timestamped now). No-op when disabled.
  static void instant(const char* name, std::uint64_t arg = 0,
                      bool has_arg = false);

  /// Names the calling thread's track ("main", "pool-worker-3"). Sticky:
  /// survives enable/disable cycles and applies lazily when the thread
  /// registers its buffer. Unnamed threads get "thread-<tid>".
  static void set_thread_label(std::string label);

  /// Free-form context block reproduced in the trace document (algorithm,
  /// family, n, seed, ...) so a trace file is self-describing; the report
  /// tool keys span quantiles by it. Later set for the same key overwrites.
  void set_context(const std::string& key, const std::string& value);
  void clear_context();

  /// Records overwritten (lost) across all threads of the session.
  std::uint64_t dropped_spans() const;

  /// The calling thread's most recent records, oldest first, at most `max`;
  /// `*tid` receives the thread's track id. Safe concurrently with other
  /// threads recording (own-buffer read only).
  std::vector<TraceRecord> thread_tail(std::size_t max, std::uint64_t* tid);

  /// Writes the "beepmis.trace.v2" document: Chrome trace-event JSON in its
  /// object form, which ui.perfetto.dev and chrome://tracing open directly.
  /// "traceEvents" holds a process_name record, then per track a
  /// thread_name record (args: label, recorded, dropped) followed by the
  /// track's records oldest-first. The session fields ride as extra
  /// top-level members, which the viewers ignore: "schema",
  /// "capacity_per_thread", "counter_every", "dropped_total", and the
  /// context block as "otherData".
  void write_json(std::ostream& os) const;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer() = default;

  struct ThreadBuffer {
    std::vector<TraceRecord> ring;
    std::size_t head = 0;        // next write slot
    std::uint64_t recorded = 0;  // total records ever written
    std::uint64_t tid = 0;       // registration order within the session
    std::string label;

    std::uint64_t dropped() const {
      return recorded > ring.size() ? recorded - ring.size() : 0;
    }
  };

  void record(const TraceRecord& r);
  ThreadBuffer* current_buffer();
  static std::uint64_t since_epoch_ns(Clock::time_point tp,
                                      Clock::time_point epoch) noexcept {
    return tp <= epoch
               ? 0
               : static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         tp - epoch)
                         .count());
  }

  // session_ == 0 means off. Non-zero values are monotonically increasing
  // session ids; thread-local slots cache (session, buffer) pairs and
  // re-register on mismatch. release/acquire on session_ publishes the
  // session parameters below to recording threads.
  std::atomic<std::uint64_t> session_{0};
  std::atomic<std::uint64_t> counter_every_{0};
  std::uint64_t next_session_ = 0;  // guarded by mu_
  std::size_t capacity_ = 0;        // guarded by mu_
  Clock::time_point epoch_{};       // written in enable(), before release

  mutable std::mutex mu_;  // buffer registry + context
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<std::pair<std::string, std::string>> context_;
};

/// RAII span: two clock reads when a session is live, zero work when off.
/// For regions that have no TimerStat/Digest — regions that do should use
/// ScopedTimer's trace tee instead (one clock pair feeds all three sinks).
class TraceScope {
 public:
  explicit TraceScope(const char* name)
      : name_(Tracer::active() ? name : nullptr) {
    if (name_ != nullptr) start_ = Tracer::Clock::now();
  }
  TraceScope(const char* name, std::uint64_t arg)
      : name_(Tracer::active() ? name : nullptr), arg_(arg), has_arg_(true) {
    if (name_ != nullptr) start_ = Tracer::Clock::now();
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() {
    if (name_ != nullptr)
      Tracer::complete(name_, start_, Tracer::Clock::now(), arg_, has_arg_);
  }

 private:
  const char* name_;
  std::uint64_t arg_ = 0;
  bool has_arg_ = false;
  Tracer::Clock::time_point start_{};
};

/// Writes one TraceRecord as a Chrome trace-event object on track `tid` —
/// the shape shared by Tracer::write_json's "traceEvents" and flight-dump
/// "trace_tail" arrays: {"ph":"X",pid,tid,"cat","name","ts","dur",
/// "args":{"arg"}?} / {"ph":"C",...,"args":{"value"}} /
/// {"ph":"i",...,"s":"t","args":{"arg"}?}. `ts` and `dur` are microseconds,
/// fractional to keep full ns precision.
void trace_write_event(JsonWriter& w, const TraceRecord& r,
                       std::uint64_t tid);

/// Checks one Chrome trace-event object for what the Perfetto and
/// chrome://tracing JSON importers require: ph, name, pid/tid (process_*
/// metadata has no tid), args on metadata, a non-negative ts, dur on
/// complete events and args.value on counters. `where` prefixes `error`.
bool trace_event_validate(const JsonValue& ev, const std::string& where,
                          std::string* error);

/// Strict structural validation of a parsed "beepmis.trace.v2" document —
/// the shared path used by beepmis_trace_check, beepmis_report and the tests
/// (mirrors obs::dump_validate / obs::recovery_validate). Every event passes
/// trace_event_validate and sits on a track declared by an earlier
/// thread_name record; the tracks' dropped counts sum to "dropped_total".
/// Returns false with `error` set on the first fault; fills the optional
/// counts for one-line reports.
bool trace_validate(const JsonValue& doc, std::string* error,
                    std::size_t* track_count = nullptr,
                    std::size_t* event_count = nullptr);

}  // namespace beepmis::obs
