#include "src/support/task_pool.hpp"

#include <algorithm>

#include "src/support/check.hpp"

namespace beepmis::support {

std::atomic<TaskPool::Observer*> TaskPool::observer_{nullptr};

void TaskPool::set_observer(Observer* observer) noexcept {
  observer_.store(observer, std::memory_order_release);
}

std::size_t TaskPool::resolve_thread_count(std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

TaskPool::TaskPool(std::size_t threads, const char* label)
    : threads_(threads), label_(label) {
  BEEPMIS_CHECK(threads >= 1, "TaskPool needs at least one thread");
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void TaskPool::worker_loop(std::size_t worker_index) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock,
               [&] { return stopping_ || (next_ < count_ && !abort_); });
    if (stopping_) return;
    run_tasks(lock, worker_index);
  }
}

void TaskPool::run_tasks(std::unique_lock<std::mutex>& lock,
                         std::size_t worker_index) {
  while (next_ < count_ && !abort_) {
    const std::size_t index = next_++;
    const std::function<void(std::size_t)>* fn = fn_;
    lock.unlock();
    Observer* const obs = observer_.load(std::memory_order_acquire);
    std::chrono::steady_clock::time_point start;
    if (obs != nullptr) start = std::chrono::steady_clock::now();
    std::exception_ptr error;
    try {
      (*fn)(index);
    } catch (...) {
      error = std::current_exception();
    }
    if (obs != nullptr)
      obs->on_task(label_, worker_index, index, start,
                   std::chrono::steady_clock::now());
    lock.lock();
    ++done_;
    if (error != nullptr) {
      errors_.emplace_back(index, error);
      abort_ = true;  // stop claiming; already-claimed tasks still finish
    }
    if (done_ == next_) drained_.notify_all();
  }
}

void TaskPool::parallel_for(std::size_t count,
                            const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
  {
    std::unique_lock<std::mutex> lock(mu_);
    BEEPMIS_CHECK(count_ == 0,
                  "TaskPool::parallel_for: a batch is already running "
                  "(nested or concurrent use is not supported)");
    count_ = count;
    fn_ = &fn;
    next_ = 0;
    done_ = 0;
    abort_ = false;
    wake_.notify_all();

    // The caller is a worker too: with threads == 1 this runs the whole
    // batch inline, making the serial baseline the identical code path.
    run_tasks(lock, 0);

    drained_.wait(lock, [&] {
      return done_ == next_ && (next_ >= count_ || abort_);
    });
    errors = std::move(errors_);
    errors_.clear();
    count_ = 0;
    fn_ = nullptr;
    next_ = 0;
    done_ = 0;
    abort_ = false;
  }
  if (!errors.empty()) {
    // Ascending claim order means every index below the lowest thrower ran
    // and succeeded — rethrowing it is deterministic for any thread count.
    auto lowest = std::min_element(
        errors.begin(), errors.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(lowest->second);
  }
}

}  // namespace beepmis::support
