#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/digest.hpp"
#include "src/obs/json_parse.hpp"

namespace beepmis::obs {

/// One per-thread group of hardware/software performance counters opened
/// via perf_event_open(2): cycles, instructions, cache references/misses,
/// branches, branch misses, plus the software task clock. All counters of
/// a group are read with one syscall (PERF_FORMAT_GROUP) and scaled by
/// time_enabled/time_running so multiplexed counters stay comparable.
///
/// Always compiled, never fatal: open() probes each counter individually
/// and skips the ones the kernel refuses (perf_event_paranoid, seccomp,
/// missing PMU in VMs/containers, non-Linux builds). A group where the
/// hardware leader fails retries with the software task clock as leader, so
/// PMU-less hosts still measure task time; a group where nothing opens
/// reports available() == false and every read is a no-op. The fd set
/// counts the *opening thread* only (pid=0, cpu=-1, no inherit), so each
/// recording thread owns its own group.
class PerfGroup {
 public:
  /// Fixed counter order; bit i of mask() and slot i of Reading::value
  /// refer to counter_name(i).
  static constexpr std::size_t kCounters = 7;
  static const char* counter_name(std::size_t index) noexcept;

  PerfGroup() { fd_.fill(-1); }
  ~PerfGroup();

  PerfGroup(const PerfGroup&) = delete;
  PerfGroup& operator=(const PerfGroup&) = delete;

  /// Opens the group on the calling thread. Returns available().
  bool open();
  void close();

  /// True when at least one counter opened.
  bool available() const noexcept { return leader_ >= 0; }
  /// Bit i set iff counter i opened and contributes to readings.
  std::uint32_t mask() const noexcept { return mask_; }

  /// One scaled snapshot of every opened counter (cumulative since open;
  /// callers subtract two readings to attribute a region). Unopened slots
  /// stay 0. Values are doubles because running/enabled scaling is
  /// fractional; every digest downstream takes doubles anyway.
  struct Reading {
    std::array<double, kCounters> value{};
  };
  /// Reads the whole group with one syscall. False when unavailable or the
  /// read fails (the group is closed on a failed read — degraded, not fatal).
  bool read(Reading* out);

 private:
  int leader_ = -1;
  std::uint32_t mask_ = 0;
  std::array<int, kCounters> fd_{};
  std::array<std::uint64_t, kCounters> id_{};  // PERF_FORMAT_ID -> slot map
};

/// Process-wide profiling session mirroring the Tracer's lifecycle: always
/// compiled, off by default, one relaxed atomic load on the hot path when
/// off. enable() probes counter availability once; when the kernel denies
/// everything the session records nothing but still exports a well-formed
/// "beepmis.profile.v1" artifact with "available": false — degradation is
/// an artifact field, never a crash or an output change.
///
/// While recording, each thread lazily registers a shard (its own PerfGroup
/// plus per-span, per-counter Digests) keyed by a session id, exactly like
/// the Tracer's ring registration — a stale thread from a previous session
/// re-registers instead of touching freed state. PerfSpanScope brackets a
/// region with two group reads and folds the deltas into the calling
/// thread's shard; write_json() merges shards in registration order, which
/// is deterministic for the single-threaded tools and for the pool because
/// export only runs while workers are quiescent.
class PerfSession {
 public:
  static PerfSession& instance();

  /// Starts a session. `sample_every` is the stride for ordinal-sampled
  /// scopes (engine.round measures every K-th round — a group read is a
  /// syscall, so per-round reads would blow the ≤2% overhead budget; coarse
  /// spans measure every time). Probes availability on the calling thread;
  /// an unavailable session stays inert but remembers that it was asked.
  void enable(std::uint64_t sample_every);
  /// Stops recording; shards stay readable for write_json().
  void disable();

  /// True while an *available* session is recording.
  static bool active() noexcept {
    return instance().session_.load(std::memory_order_relaxed) != 0;
  }
  /// Sampling stride of the live session, 0 when off.
  static std::uint64_t sample_interval() noexcept {
    PerfSession& s = instance();
    return s.session_.load(std::memory_order_relaxed) == 0
               ? 0
               : s.sample_every_.load(std::memory_order_relaxed);
  }

  /// Whether the last enable() found any counter. Meaningful after
  /// enable(); false before the first session.
  bool available() const noexcept { return available_; }
  /// True once enable() ran (distinguishes "off" from "unavailable" in
  /// manifests).
  bool enabled_once() const noexcept { return enabled_once_; }

  /// Span bracket, split so the TaskPool observer can begin in
  /// on_task_start and end in on_task. begin() fills `start` from the
  /// calling thread's group (registering the shard on first use) and
  /// returns false when the session is off or this thread's group failed
  /// to open. end() reads again and records per-counter deltas under
  /// `name` (a static-storage literal, same contract as the tracer).
  static bool begin(PerfGroup::Reading* start);
  static void end(const char* name, const PerfGroup::Reading& start);

  /// Free-form context block reproduced in the profile document (algorithm,
  /// family, n, m, seed, ...); beepmis_report keys its efficiency table on
  /// it. Later set for the same key overwrites.
  void set_context(const std::string& key, const std::string& value);
  void clear_context();

  /// Writes the "beepmis.profile.v1" document: availability, counter list,
  /// sampling stride, context, and per-span per-counter digest statistics
  /// (count/sum/mean/min/max/p50/p90/p95/p99 — sum is what IPC and
  /// branch-miss-rate derivations divide). Export-while-quiescent, like
  /// Tracer::write_json.
  void write_json(std::ostream& os) const;

  PerfSession(const PerfSession&) = delete;
  PerfSession& operator=(const PerfSession&) = delete;

 private:
  PerfSession() = default;

  struct SpanStats {
    std::array<Digest, PerfGroup::kCounters> per_counter;
  };
  struct ThreadShard {
    PerfGroup group;
    bool group_open = false;
    // Keyed by the literal's address — one map node per call site, no
    // string hashing next to a syscall. Merged by content at export.
    std::map<const char*, SpanStats> spans;
  };

  ThreadShard* current_shard();

  std::atomic<std::uint64_t> session_{0};
  std::atomic<std::uint64_t> sample_every_{0};
  std::uint64_t next_session_ = 0;  // guarded by mu_
  bool available_ = false;
  bool enabled_once_ = false;
  std::uint32_t mask_ = 0;  // probe result, for the artifact counter list

  mutable std::mutex mu_;  // shard registry + context
  std::vector<std::unique_ptr<ThreadShard>> shards_;
  std::vector<std::pair<std::string, std::string>> context_;
};

/// RAII perf bracket: two group reads when armed, one relaxed load when the
/// session is off. The plain constructor arms whenever the session records
/// (coarse spans: refresh_settlement, sweep.point); the (name, ordinal)
/// form arms only every sample_interval()-th ordinal (per-round sites).
class PerfSpanScope {
 public:
  explicit PerfSpanScope(const char* name) {
    if (PerfSession::begin(&start_)) name_ = name;
  }
  PerfSpanScope(const char* name, std::uint64_t ordinal) {
    const std::uint64_t k = PerfSession::sample_interval();
    if (k != 0 && ordinal % k == 0 && PerfSession::begin(&start_))
      name_ = name;
  }

  PerfSpanScope(const PerfSpanScope&) = delete;
  PerfSpanScope& operator=(const PerfSpanScope&) = delete;

  ~PerfSpanScope() {
    if (name_ != nullptr) PerfSession::end(name_, start_);
  }

 private:
  const char* name_ = nullptr;
  PerfGroup::Reading start_{};
};

/// Strict structural validation of a parsed "beepmis.profile.v1" document —
/// the shared path used by beepmis_trace_check and the tests. Returns false
/// with `error` set on any malformed field; fills the optional summary
/// counts for one-line reports.
bool profile_validate(const JsonValue& doc, std::string* error,
                      std::size_t* span_count = nullptr,
                      std::size_t* counter_count = nullptr);

}  // namespace beepmis::obs
