#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace cim::util {

namespace {

/// Set once in worker_loop; kNotAWorker everywhere else.
thread_local std::size_t t_worker_index = ThreadPool::kNotAWorker;

/// Published by shared() after the function-local static constructs, so
/// shared_if_created() can observe the pool without instantiating it.
std::atomic<const ThreadPool*> g_shared_pool{nullptr};

}  // namespace

/// One run() or run_beside() call: the shared function, the
/// not-yet-finished task count and the per-index captured exceptions.
/// Lives on the submitting thread's stack for the duration of the call.
struct ThreadPool::Batch {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> remaining{0};

  std::mutex error_mu;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors
      CIM_GUARDED_BY(error_mu);

  std::mutex done_mu;
  std::condition_variable done_cv;
  /// Set by the final task; the submitter's exit handshake waits on it.
  bool completed CIM_GUARDED_BY(done_mu) = false;
};

ThreadPool::ThreadPool(std::size_t workers) {
  queues_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
    threads_created_.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

// Every pool task body executes under this loop (or under a helping
// run() caller below): both are determinism-taint roots so no submitted
// task can reach a non-deterministic source unnoticed.
CIM_DETERMINISM_ROOT
void ThreadPool::worker_loop(std::size_t id) {
  t_worker_index = id;
  const bool takes_background = id == 0;
  for (;;) {
    Task task;
    // Background tasks only once the deques are empty: the hot path of
    // a busy pool takes no extra lock.
    if (pop_task(id, task) || (takes_background && pop_background(task))) {
      execute(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    work_cv_.wait(lock, [this, takes_background] {
      return stop_ || ready_ > 0 || (takes_background && background_ready_ > 0);
    });
    if (stop_) return;
  }
}

bool ThreadPool::pop_task(std::size_t home, Task& task) {
  const std::size_t n = queues_.size();
  if (n == 0) return false;
  // Own deque first, newest task first (LIFO keeps nested submissions
  // cache-warm on their submitter).
  if (home != npos) {
    WorkerQueue& own = *queues_[home];
    const std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      task = own.tasks.back();
      own.tasks.pop_back();
      const std::lock_guard<std::mutex> ready_lock(sleep_mu_);
      --ready_;
      return true;
    }
  }
  // Steal oldest-first from the peers, scanning from the next queue so
  // load spreads instead of everyone hammering queue 0.
  const std::size_t start = home != npos ? home + 1 : 0;
  for (std::size_t off = 0; off < n; ++off) {
    const std::size_t victim = (start + off) % n;
    if (victim == home) continue;
    WorkerQueue& q = *queues_[victim];
    const std::lock_guard<std::mutex> lock(q.mu);
    if (q.tasks.empty()) continue;
    task = q.tasks.front();
    q.tasks.pop_front();
    {
      const std::lock_guard<std::mutex> ready_lock(sleep_mu_);
      --ready_;
    }
    tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool ThreadPool::pop_background(Task& task, const Batch* batch) {
  const std::lock_guard<std::mutex> lock(background_.mu);
  std::deque<Task>& tasks = background_.tasks;
  const auto it =
      batch == nullptr
          ? tasks.begin()
          : std::find_if(tasks.begin(), tasks.end(),
                         [batch](const Task& t) { return t.batch == batch; });
  if (it == tasks.end()) return false;
  task = *it;
  tasks.erase(it);
  const std::lock_guard<std::mutex> ready_lock(sleep_mu_);
  --background_ready_;
  return true;
}

void ThreadPool::execute(const Task& task) {
  Batch& batch = *task.batch;
  try {
    (*batch.fn)(task.index);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(batch.error_mu);
    batch.errors.emplace_back(task.index, std::current_exception());
  }
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  if (batch.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task: mark completion under done_mu and wake the submitter.
    // The flag (not the atomic) is what the submitter's exit handshake
    // waits on — it guarantees this thread is done touching the Batch
    // before the submitter lets it leave scope.
    const std::lock_guard<std::mutex> lock(batch.done_mu);
    batch.completed = true;
    batch.done_cv.notify_all();
  }
}

CIM_DETERMINISM_ROOT
void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Inline serial execution: index order, so the first throwing index
    // surfaces — the same index the parallel path rethrows.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  Batch batch;
  batch.fn = &fn;
  batch.remaining.store(count, std::memory_order_relaxed);

  // Distribute round-robin over the worker deques. The cursor persists
  // across batches so repeated small runs don't all land on worker 0.
  const std::size_t base = next_queue_.fetch_add(count,
                                                 std::memory_order_relaxed);
  for (std::size_t i = 0; i < count; ++i) {
    WorkerQueue& q = *queues_[(base + i) % queues_.size()];
    const std::lock_guard<std::mutex> lock(q.mu);
    q.tasks.push_back(Task{&batch, i});
  }
  {
    const std::lock_guard<std::mutex> lock(sleep_mu_);
    ready_ += count;
  }
  work_cv_.notify_all();
  help_until_done(batch);
}

void ThreadPool::help_until_done(Batch& batch) {
  // Help until the batch drains. The helper may execute tasks of *other*
  // batches it steals — that is what makes nested run() calls from pool
  // workers deadlock-free: every submitter keeps draining queues while
  // its own tasks are in flight elsewhere.
  while (batch.remaining.load(std::memory_order_acquire) > 0) {
    Task task;
    if (pop_task(npos, task)) {
      execute(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(batch.done_mu);
    batch.done_cv.wait(lock, [&batch] { return batch.completed; });
    break;  // completed implies remaining == 0
  }
  {
    // Exit handshake: the Batch lives on the submitter's stack, so before
    // it leaves scope the final decrementer must be fully out of
    // notify_all — waiting for `completed` under done_mu synchronises
    // with it.
    std::unique_lock<std::mutex> lock(batch.done_mu);
    batch.done_cv.wait(lock, [&batch] { return batch.completed; });
  }

  if (!batch.errors.empty()) {
    // Every task has finished, so errors is complete; rethrow the lowest
    // index deterministically.
    std::size_t best = 0;
    for (std::size_t e = 1; e < batch.errors.size(); ++e) {
      if (batch.errors[e].first < batch.errors[best].first) best = e;
    }
    std::rethrow_exception(batch.errors[best].second);
  }
}

CIM_DETERMINISM_ROOT
void ThreadPool::run_beside(const std::function<void()>& background,
                            const std::function<void()>& foreground) {
  // Both sides always run to completion before anything is rethrown: the
  // background may reference the caller's stack, which the foreground's
  // exception would otherwise unwind under it.
  std::exception_ptr foreground_error;
  std::exception_ptr background_error;
  const auto run_foreground = [&] {
    try {
      foreground();
    } catch (...) {
      foreground_error = std::current_exception();
    }
  };
  if (workers_.empty()) {
    run_foreground();
    try {
      background();
    } catch (...) {
      background_error = std::current_exception();
    }
  } else {
    const std::function<void(std::size_t)> fn =
        [&background](std::size_t) { background(); };
    Batch batch;
    batch.fn = &fn;
    batch.remaining.store(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(background_.mu);
      background_.tasks.push_back(Task{&batch, 0});
    }
    {
      const std::lock_guard<std::mutex> lock(sleep_mu_);
      ++background_ready_;
    }
    work_cv_.notify_all();
    run_foreground();
    // Worker 0 may be busy or asleep: rather than wait for it, run the
    // background here if it has not started yet.
    Task own;
    if (pop_background(own, &batch)) execute(own);
    try {
      help_until_done(batch);
    } catch (...) {
      background_error = std::current_exception();
    }
  }
  if (foreground_error) std::rethrow_exception(foreground_error);
  if (background_error) std::rethrow_exception(background_error);
}

std::size_t ThreadPool::parse_width(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  // strtol saturates on overflow, so an out-of-range value also lands
  // above kMaxWidth.
  if (end == text || *end != '\0' || value <= 0 ||
      static_cast<unsigned long>(value) > kMaxWidth) {
    return 0;
  }
  return static_cast<std::size_t>(value);
}

std::size_t ThreadPool::default_width() {
  if (const std::size_t env = parse_width(std::getenv("CIMANNEAL_THREADS"));
      env > 0) {
    return env;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(default_width());
  g_shared_pool.store(&pool, std::memory_order_release);
  return pool;
}

const ThreadPool* ThreadPool::shared_if_created() {
  return g_shared_pool.load(std::memory_order_acquire);
}

std::size_t ThreadPool::current_worker_index() { return t_worker_index; }

}  // namespace cim::util
