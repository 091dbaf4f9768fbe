#include "src/obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <set>

#include "src/obs/json.hpp"
#include "src/support/task_pool.hpp"

namespace beepmis::obs {
namespace {

// Sticky track label for the calling thread, applied when (not if) the
// thread registers a ring buffer — so labeling works whether the label is
// set before or after enable(), and survives across sessions.
thread_local std::string t_pending_label;  // NOLINT(runtime/string)

constexpr std::uint64_t kPid = 1;  // every track belongs to one process
// 2^53: the largest count a JSON number (a double) holds exactly, and so
// the bound on every ns count a trace encodes.
constexpr double kMaxExact = 9007199254740992.0;

/// The TaskPool observer a tracing session installs. It labels each pool
/// worker's track on its first task and records a task-claim span per
/// claimed index (the replica's own nested spans carry the seed; the claim
/// span's arg is the task index).
class PoolTracer final : public support::TaskPool::Observer {
 public:
  void on_task(const char* pool_label, std::size_t worker_index,
               std::size_t task_index,
               std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) override {
    if (!Tracer::active()) return;
    // Track naming. Anonymous pools own the generic names: worker 0 is the
    // calling thread ("main"), spawned workers are "pool-worker-N". Labeled
    // pools are *private* — their batches may run inside another pool's
    // task — so their spawned workers get "<label>-worker-N" tracks and
    // worker 0 (the caller, which already has an identity: "main" or an
    // outer pool's worker) is never relabeled.
    thread_local const char* labeled_pool = nullptr;
    thread_local std::size_t labeled_as = static_cast<std::size_t>(-1);
    if (labeled_pool != pool_label || labeled_as != worker_index) {
      labeled_pool = pool_label;
      labeled_as = worker_index;
      if (pool_label == nullptr) {
        Tracer::set_thread_label(worker_index == 0
                                     ? std::string("main")
                                     : "pool-worker-" +
                                           std::to_string(worker_index));
      } else if (worker_index != 0) {
        Tracer::set_thread_label(std::string(pool_label) + "-worker-" +
                                 std::to_string(worker_index));
      }
    }
    Tracer::complete("pool.task", start, end,
                     static_cast<std::uint64_t>(task_index),
                     /*has_arg=*/true);
  }
};

PoolTracer g_pool_tracer;

bool fail(std::string* error, std::string msg) {
  *error = std::move(msg);
  return false;
}

// A timestamp or duration in µs whose ns count converts back exactly.
bool is_micros(const JsonValue& v) {
  return v.type == JsonValue::Type::Number && v.number >= 0.0 &&
         v.number <= kMaxExact / 1000.0;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t capacity_per_thread,
                    std::uint64_t counter_every) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.clear();
  capacity_ = capacity_per_thread == 0 ? 1 : capacity_per_thread;
  epoch_ = Clock::now();
  counter_every_.store(counter_every, std::memory_order_relaxed);
  // Release-publish: a recorder that acquire-loads the new session id sees
  // epoch_ and capacity_ from this critical section.
  session_.store(++next_session_, std::memory_order_release);
  support::TaskPool::set_observer(&g_pool_tracer);
}

void Tracer::disable() {
  session_.store(0, std::memory_order_relaxed);
  support::TaskPool::set_observer(nullptr);
}

Tracer::ThreadBuffer* Tracer::current_buffer() {
  struct Slot {
    ThreadBuffer* buf = nullptr;
    std::uint64_t session = 0;
  };
  thread_local Slot slot;
  const std::uint64_t live = session_.load(std::memory_order_acquire);
  if (live == 0) return nullptr;
  if (slot.session == live) return slot.buf;  // steady state: no lock

  // First record of this thread in this session: register a ring buffer.
  std::lock_guard<std::mutex> lock(mu_);
  if (session_.load(std::memory_order_relaxed) != live) return nullptr;
  auto owned = std::make_unique<ThreadBuffer>();
  ThreadBuffer* buf = owned.get();
  buf->ring.resize(capacity_);
  buf->tid = static_cast<std::uint64_t>(buffers_.size());
  buf->label = !t_pending_label.empty()
                   ? t_pending_label
                   : "thread-" + std::to_string(buf->tid);
  buffers_.push_back(std::move(owned));
  slot.buf = buf;
  slot.session = live;
  return buf;
}

void Tracer::record(const TraceRecord& r) {
  ThreadBuffer* buf = current_buffer();
  if (buf == nullptr) return;
  buf->ring[buf->head] = r;
  buf->head = buf->head + 1 == buf->ring.size() ? 0 : buf->head + 1;
  ++buf->recorded;
}

void Tracer::complete(const char* name, Clock::time_point start,
                      Clock::time_point end, std::uint64_t arg,
                      bool has_arg) {
  Tracer& t = instance();
  if (t.session_.load(std::memory_order_acquire) == 0) return;
  TraceRecord r;
  r.kind = TraceRecord::Kind::Span;
  r.name = name;
  r.ts_ns = since_epoch_ns(start, t.epoch_);
  r.dur_ns = end <= start ? 0 : since_epoch_ns(end, start);
  r.arg = arg;
  r.has_arg = has_arg;
  t.record(r);
}

void Tracer::counter(const char* name, double value) {
  Tracer& t = instance();
  if (t.session_.load(std::memory_order_acquire) == 0) return;
  TraceRecord r;
  r.kind = TraceRecord::Kind::Counter;
  r.name = name;
  r.ts_ns = since_epoch_ns(Clock::now(), t.epoch_);
  r.value = value;
  t.record(r);
}

void Tracer::instant(const char* name, std::uint64_t arg, bool has_arg) {
  Tracer& t = instance();
  if (t.session_.load(std::memory_order_acquire) == 0) return;
  TraceRecord r;
  r.kind = TraceRecord::Kind::Instant;
  r.name = name;
  r.ts_ns = since_epoch_ns(Clock::now(), t.epoch_);
  r.arg = arg;
  r.has_arg = has_arg;
  t.record(r);
}

void Tracer::set_thread_label(std::string label) {
  t_pending_label = std::move(label);
  Tracer& t = instance();
  if (t.session_.load(std::memory_order_acquire) == 0) return;
  // Already registered in the live session: rename the existing track.
  if (ThreadBuffer* buf = t.current_buffer()) {
    std::lock_guard<std::mutex> lock(t.mu_);
    buf->label = t_pending_label;
  }
}

void Tracer::set_context(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& kv : context_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  context_.emplace_back(key, value);
}

void Tracer::clear_context() {
  std::lock_guard<std::mutex> lock(mu_);
  context_.clear();
}

std::uint64_t Tracer::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& buf : buffers_) dropped += buf->dropped();
  return dropped;
}

std::vector<TraceRecord> Tracer::thread_tail(std::size_t max,
                                             std::uint64_t* tid) {
  std::vector<TraceRecord> out;
  ThreadBuffer* buf = current_buffer();
  if (buf == nullptr || max == 0) return out;
  *tid = buf->tid;
  const std::size_t cap = buf->ring.size();
  const std::size_t have =
      buf->recorded < cap ? static_cast<std::size_t>(buf->recorded) : cap;
  const std::size_t take = std::min(max, have);
  out.reserve(take);
  for (std::size_t k = 0; k < take; ++k)
    out.push_back(buf->ring[(buf->head + cap - take + k) % cap]);
  return out;
}

void trace_write_event(JsonWriter& w, const TraceRecord& r,
                       std::uint64_t tid) {
  const char* ph = r.kind == TraceRecord::Kind::Span      ? "X"
                   : r.kind == TraceRecord::Kind::Counter ? "C"
                                                          : "i";
  w.begin_object();
  w.field("ph", ph).field("pid", kPid).field("tid", tid);
  w.field("cat", "beepmis").field("name", r.name);
  // Chrome's trace-event clock is microseconds; a fractional value keeps
  // full ns precision.
  w.field("ts", static_cast<double>(r.ts_ns) / 1000.0);
  if (r.kind == TraceRecord::Kind::Span)
    w.field("dur", static_cast<double>(r.dur_ns) / 1000.0);
  if (r.kind == TraceRecord::Kind::Instant) w.field("s", "t");  // thread
  if (r.kind == TraceRecord::Kind::Counter)
    w.key("args").begin_object().field("value", r.value).end_object();
  else if (r.has_arg)
    w.key("args").begin_object().field("arg", r.arg).end_object();
  w.end_object();
}

void Tracer::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped_total = 0;
  JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents").begin_array();
  w.begin_object();
  w.field("ph", "M").field("pid", kPid).field("name", "process_name");
  w.key("args").begin_object().field("name", "beepmis").end_object();
  w.end_object();
  for (const auto& buf : buffers_) {
    const std::size_t cap = buf->ring.size();
    const bool wrapped = buf->recorded > cap;
    const std::size_t have =
        wrapped ? cap : static_cast<std::size_t>(buf->recorded);
    const std::size_t first = wrapped ? buf->head : 0;
    dropped_total += buf->dropped();
    w.begin_object();
    w.field("ph", "M").field("pid", kPid).field("tid", buf->tid);
    w.field("name", "thread_name");
    w.key("args").begin_object();
    w.field("name", buf->label);
    w.field("recorded", buf->recorded).field("dropped", buf->dropped());
    w.end_object();
    w.end_object();
    for (std::size_t k = 0; k < have; ++k)
      trace_write_event(w, buf->ring[(first + k) % cap], buf->tid);
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.field("schema", "beepmis.trace.v2");
  w.field("capacity_per_thread", static_cast<std::uint64_t>(capacity_));
  w.field("counter_every", counter_every_.load(std::memory_order_relaxed));
  w.field("dropped_total", dropped_total);
  w.key("otherData").begin_object();
  for (const auto& kv : context_) w.field(kv.first, kv.second);
  w.end_object();
  w.end_object();
  os << '\n';
}

bool trace_event_validate(const JsonValue& ev, const std::string& where,
                          std::string* error) {
  if (!ev.is_object()) return fail(error, where + ": event is not an object");
  const std::string ph = ev.get("ph").as_string();
  const std::string name = ev.get("name").as_string();
  if (ph.empty()) return fail(error, where + ": missing \"ph\"");
  if (name.empty()) return fail(error, where + ": missing \"name\"");
  // process_* metadata is process-scoped and legitimately has no tid.
  const bool process_scoped = ph == "M" && name.rfind("process_", 0) == 0;
  if (!json_is_count(ev.get("pid")) ||
      (!process_scoped && !json_is_count(ev.get("tid"))))
    return fail(error, where + ": missing pid/tid");
  const JsonValue& args = ev.get("args");
  if (ph == "M")  // metadata carries its payload in args (thread_name, ...)
    return args.is_object() ||
           fail(error, where + ": metadata record without args");
  if (!is_micros(ev.get("ts")))
    return fail(error, where + ": missing or out-of-range \"ts\"");
  if (ph == "X")
    return is_micros(ev.get("dur")) ||
           fail(error, where + ": complete event without a valid \"dur\"");
  if (ph == "C")
    return args.get("value").type == JsonValue::Type::Number ||
           fail(error, where + ": counter event without args.value");
  if (ph == "i") return true;
  return fail(error, where + ": unknown phase \"" + ph + "\"");
}

bool trace_validate(const JsonValue& doc, std::string* error,
                    std::size_t* track_count, std::size_t* event_count) {
  std::string scratch;
  if (error == nullptr) error = &scratch;
  if (!doc.is_object() ||
      doc.get("schema").as_string() != "beepmis.trace.v2")
    return fail(error, "not a beepmis.trace.v2 document");
  for (const char* field :
       {"capacity_per_thread", "counter_every", "dropped_total"})
    if (!json_is_count(doc.get(field)))
      return fail(error, std::string("missing count \"") + field + "\"");
  const JsonValue& context = doc.get("otherData");
  if (!context.is_object())
    return fail(error, "\"otherData\" is not an object");
  for (const auto& [key, value] : context.object)
    if (value.type != JsonValue::Type::String)
      return fail(error, "otherData: \"" + key + "\" is not a string");
  const JsonValue& events = doc.get("traceEvents");
  if (!events.is_array())
    return fail(error, "\"traceEvents\" is not an array");

  std::set<std::uint64_t> tracks;
  double dropped = 0.0;
  std::size_t records = 0;
  for (std::size_t i = 0; i < events.array.size(); ++i) {
    const JsonValue& ev = events.array[i];
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    if (!trace_event_validate(ev, where, error)) return false;
    const auto tid = static_cast<std::uint64_t>(ev.get("tid").number);
    if (ev.get("ph").as_string() == "M") {
      if (ev.get("name").as_string() != "thread_name") continue;
      const JsonValue& args = ev.get("args");
      if (args.get("name").as_string().empty() ||
          !json_is_count(args.get("recorded")) ||
          !json_is_count(args.get("dropped")))
        return fail(error, where + ": thread_name without args "
                                   "{name, recorded, dropped}");
      if (!tracks.insert(tid).second)
        return fail(error, where + ": track declared twice");
      dropped += args.get("dropped").number;
    } else if (tracks.count(tid) == 0) {
      return fail(error, where + ": event on an undeclared track");
    } else {
      ++records;
    }
  }
  if (dropped != doc.get("dropped_total").number)
    return fail(error, "dropped_total != sum of the tracks' dropped");
  if (track_count != nullptr) *track_count = tracks.size();
  if (event_count != nullptr) *event_count = records;
  return true;
}

}  // namespace beepmis::obs
