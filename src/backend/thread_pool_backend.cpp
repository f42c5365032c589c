#include "backend/thread_pool_backend.hpp"

#include <algorithm>

#include "common/failpoint.hpp"

namespace abc::backend {

namespace {

// Identifies the pool (and lane) a thread belongs to, so nested
// parallel_for regions run inline on the owning worker.
thread_local ThreadPoolBackend* tls_pool = nullptr;
thread_local std::size_t tls_worker = 0;

}  // namespace

ThreadPoolBackend::ThreadPoolBackend(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads_.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPoolBackend::~ThreadPoolBackend() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPoolBackend::worker_loop(std::size_t worker_id) {
  tls_pool = this;
  tls_worker = worker_id;
  u64 seen = 0;
  for (;;) {
    std::shared_ptr<Task> task;
    {
      std::unique_lock<std::mutex> lk(m_);
      work_cv_.wait(lk, [&] { return stop_ || (task_ && generation_ != seen); });
      if (stop_) return;
      seen = generation_;
      task = task_;
    }
    run_share(*task, worker_id);
  }
}

void ThreadPoolBackend::run_share(Task& task, std::size_t worker_id) {
  const xf::OpCounts before = xf::op_counts();
  std::size_t processed = 0;
  for (;;) {
    const std::size_t i = task.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= task.count) break;
    try {
      ABC_FAILPOINT(fail::points::kBackendWorkerJob);
      (*task.job)(i, worker_id);
    } catch (...) {
      // Park the first exception for the submitting thread; the item still
      // counts as done so the region completes and the caller can rethrow.
      std::lock_guard<std::mutex> lk(task.ops_m);
      if (!task.error) task.error = std::current_exception();
    }
    ++processed;
  }
  if (processed == 0) return;
  // Fold this worker's op counts into the task *before* publishing the
  // processed items, so done == count implies all counts are aggregated.
  const xf::OpCounts delta = xf::op_counts() - before;
  {
    std::lock_guard<std::mutex> lk(task.ops_m);
    task.ops += delta;
  }
  if (task.done.fetch_add(processed, std::memory_order_acq_rel) + processed ==
      task.count) {
    { std::lock_guard<std::mutex> lk(m_); }  // pairs with the waiter's sleep
    done_cv_.notify_all();
  }
}

void ThreadPoolBackend::parallel_for(std::size_t count, const Job& job) {
  if (count == 0) return;
  if (tls_pool == this) {
    // Nested region from one of our own workers: run inline on its lane.
    // A throw here unwinds into the outer job, whose run_share parks it —
    // the same first-exception-wins contract as a top-level region.
    for (std::size_t i = 0; i < count; ++i) {
      ABC_FAILPOINT(fail::points::kBackendNestedJob);
      job(i, tls_worker);
    }
    return;
  }

  std::lock_guard<std::mutex> submit(submit_m_);
  auto task = std::make_shared<Task>();
  task->job = &job;
  task->count = count;
  {
    std::lock_guard<std::mutex> lk(m_);
    task_ = task;
    ++generation_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lk(m_);
    done_cv_.wait(lk, [&] {
      return task->done.load(std::memory_order_acquire) == count;
    });
    task_ = nullptr;
  }
  // Make the caller's analytic accounting identical to a scalar run.
  xf::op_counts() += task->ops;
  // Move the parked exception out of the Task: a worker may drop the last
  // Task reference at any time, and its ~Task must not release the
  // exception this thread is about to throw and read.
  if (task->error) std::rethrow_exception(std::move(task->error));
}

}  // namespace abc::backend
