#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace beepmis::support {

/// Fixed-size worker pool for replica-level parallelism with deterministic
/// semantics. Every experiment tier in this codebase (sweeps, soak, batch
/// runs) decomposes into independent tasks — one per (family, n, seed)
/// replica — whose results the *coordinator* folds in a fixed order, so the
/// output of a parallel run is bit-identical to a serial one for any thread
/// count (see docs/architecture.md, "Deterministic parallel execution").
///
/// The pool guarantees:
///  - `parallel_for(count, fn)` calls fn(i) exactly once for every
///    i in [0, count), distributing indices dynamically (a shared cursor;
///    chunk size 1, because replica tasks are milliseconds, not
///    nanoseconds) and blocking until every claimed index has completed.
///  - The calling thread participates as a worker, so a pool constructed
///    with `threads == 1` spawns no threads at all and runs the batch
///    inline on the caller — the serial baseline is the same code path.
///  - Exception propagation is deterministic: indices are claimed in
///    ascending order and a claimed task always runs to completion, so
///    every index below the lowest-throwing one has executed; after the
///    batch drains, the lowest-throwing index's exception is rethrown.
///    Unclaimed indices are skipped once any task throws.
///
/// Tasks must not call back into the same pool (no nested parallel_for)
/// and must only write state they own — shared aggregation belongs to the
/// coordinator after parallel_for returns, never inside tasks.
class TaskPool {
 public:
  /// Maps a user-facing `--threads N` value to a worker count: 0 means "one
  /// per hardware thread" (at least 1 if the runtime reports nothing).
  static std::size_t resolve_thread_count(std::size_t requested) noexcept;

  /// Spawns `threads - 1` workers (the caller is the remaining one).
  /// `threads` must be >= 1; use resolve_thread_count for the 0 convention.
  ///
  /// `label` names the pool for observers (a static-storage string literal,
  /// like tracer span names, or nullptr for the anonymous default). Private
  /// pools — ones whose batches run *inside* another pool's task, like the
  /// sharded round kernel's — must pass a label: it lets the observer give
  /// their workers distinct trace tracks instead of fighting the outer
  /// pool's worker over the generic "main"/"pool-worker-N" names.
  explicit TaskPool(std::size_t threads = 1, const char* label = nullptr);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  std::size_t thread_count() const noexcept { return threads_; }
  const char* label() const noexcept { return label_; }

  /// Runs fn(0) .. fn(count - 1) across the pool; returns when every
  /// claimed index has finished. Rethrows the lowest-index exception, if
  /// any. One batch at a time: concurrent or nested calls are checked.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Observability hook. The support layer cannot depend on obs (obs links
  /// support), so the span tracer installs an implementation here when a
  /// tracing session starts. Callbacks run on the executing thread, outside
  /// the pool mutex; implementations must be thread-safe and cheap. With no
  /// observer installed the per-task cost is one relaxed atomic load.
  class Observer {
   public:
    virtual ~Observer() = default;
    /// One completed task: `pool_label` is the executing pool's label()
    /// (nullptr for anonymous pools), `worker_index` 0 is the thread that
    /// called parallel_for, spawned workers are 1..threads-1; start/end
    /// bracket the task body with a steady-clock pair taken by the pool.
    virtual void on_task(const char* pool_label, std::size_t worker_index,
                         std::size_t task_index,
                         std::chrono::steady_clock::time_point start,
                         std::chrono::steady_clock::time_point end) = 0;
  };

  /// Installs the process-wide observer (nullptr to remove). Swap only
  /// while no batch is running — the usual enable-tracing-then-run order.
  static void set_observer(Observer* observer) noexcept;

 private:
  void worker_loop(std::size_t worker_index);
  /// Claims and runs tasks until the current batch is exhausted or aborted.
  /// Called with `lock` held; drops it around each fn invocation.
  void run_tasks(std::unique_lock<std::mutex>& lock,
                 std::size_t worker_index);

  static std::atomic<Observer*> observer_;

  std::size_t threads_;
  const char* label_;
  std::vector<std::thread> workers_;

  // Current-batch state, all guarded by mu_. Claim and completion are two
  // short critical sections per task; replica tasks dwarf them. `count_ != 0`
  // doubles as the batch-active flag; the batch lives in the pool (not on
  // the caller's stack) so late-waking workers never touch freed memory.
  std::mutex mu_;
  std::condition_variable wake_;     // workers: a batch was published
  std::condition_variable drained_;  // caller: all claimed tasks finished
  std::size_t count_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t next_ = 0;  // next unclaimed index
  std::size_t done_ = 0;  // completed tasks
  bool abort_ = false;    // a task threw; stop claiming
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors_;
  bool stopping_ = false;
};

}  // namespace beepmis::support
