#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "util/check.hpp"

namespace sdn::util {

AuxLane::AuxLane(std::size_t capacity) : capacity_(capacity) {
  SDN_CHECK(capacity_ >= 1);
}

AuxLane::~AuxLane() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stop_ = true;
    queue_.clear();  // still-queued tasks are abandoned, by contract
  }
  worker_cv_.notify_all();
  thread_.join();
}

void AuxLane::Submit(UniqueTask task) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!started_) {
    started_ = true;
    thread_ = std::thread([this] { Loop(); });
  }
  producer_cv_.wait(lock, [this] {
    return queue_.size() + (running_ ? 1 : 0) < capacity_;
  });
  if (error_) return;  // lane is poisoned until Drain() reports it
  queue_.push_back(std::move(task));
  lock.unlock();
  worker_cv_.notify_one();
}

void AuxLane::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!started_) return;
  producer_cv_.wait(lock, [this] { return queue_.empty() && !running_; });
  if (error_) {
    std::exception_ptr e = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

bool AuxLane::idle() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.empty() && !running_;
}

void AuxLane::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    worker_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    UniqueTask task = std::move(queue_.front());
    queue_.pop_front();
    running_ = true;
    lock.unlock();
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    running_ = false;
    if (error) {
      if (!error_) error_ = error;
      queue_.clear();  // downstream tasks would consume poisoned state
    }
    producer_cv_.notify_all();
  }
}

/// One ParallelFor call. Lives on the caller's stack; workers only touch it
/// between registering as active (under the pool mutex) and deregistering,
/// and the caller does not return before active_workers drops to zero.
struct ThreadPool::Job {
  std::int64_t n = 0;
  int shards = 0;
  int lanes = 0;
  const RangeFn* fn = nullptr;

  /// cursor[l] is the next shard lane l will claim; lane l owns the block
  /// [lane_begin[l], lane_begin[l+1]). Thieves fetch_add a victim's cursor
  /// exactly like the owner, so every shard is claimed exactly once.
  std::unique_ptr<std::atomic<int>[]> cursor;
  std::vector<int> lane_begin;  // size lanes + 1

  std::atomic<int> completed{0};
  int active_workers = 0;  // guarded by the pool mutex

  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::exception_ptr error;  // guarded by done_mutex; first one wins

  [[nodiscard]] bool HasUnclaimed() const {
    for (int l = 0; l < lanes; ++l) {
      const auto li = static_cast<std::size_t>(l);
      if (cursor[li].load(std::memory_order_relaxed) < lane_begin[li + 1]) {
        return true;
      }
    }
    return false;
  }
};

ThreadPool::ThreadPool(int workers) {
  SDN_CHECK(workers >= 0);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool([] {
    const auto hw = static_cast<int>(std::thread::hardware_concurrency());
    return std::max(1, hw - 1);  // + the calling lane = max(2, hw)
  }());
  return pool;
}

void ThreadPool::ExecuteShard(Job& job, int shard) {
  const std::int64_t begin = job.n * shard / job.shards;
  const std::int64_t end = job.n * (shard + 1) / job.shards;
  if (begin < end) {
    try {
      (*job.fn)(shard, begin, end);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(job.done_mutex);
      if (!job.error) job.error = std::current_exception();
    }
  }
  if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      job.shards) {
    // Lock so the notify cannot slip between the waiter's predicate check
    // and its wait.
    const std::lock_guard<std::mutex> lock(job.done_mutex);
    job.done_cv.notify_all();
  }
}

bool ThreadPool::RunOneShard(Job& job, int lane) {
  for (int i = 0; i < job.lanes; ++i) {
    // Own block first, then steal from the other lanes' cursors.
    const auto l = static_cast<std::size_t>((lane + i) % job.lanes);
    const int c = job.cursor[l].fetch_add(1, std::memory_order_relaxed);
    if (c < job.lane_begin[l + 1]) {
      ExecuteShard(job, c);
      return true;
    }
  }
  return false;
}

ThreadPool::Job* ThreadPool::PickClaimable() {
  for (Job* job : jobs_) {
    if (job->HasUnclaimed()) return job;
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(int worker_index) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || PickClaimable() != nullptr; });
    if (stop_) return;
    Job* job = PickClaimable();
    if (job == nullptr) continue;
    ++job->active_workers;
    lock.unlock();
    // Lane 0 is the caller's; workers spread over the remaining lanes.
    const int lane = job->lanes > 1 ? 1 + worker_index % (job->lanes - 1) : 0;
    while (RunOneShard(*job, lane)) {
    }
    lock.lock();
    if (--job->active_workers == 0) idle_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(std::int64_t n, int shards, int max_lanes,
                             const RangeFn& fn) {
  SDN_CHECK(n >= 0);
  SDN_CHECK(shards >= 1);
  if (n == 0) return;

  Job job;
  job.n = n;
  job.shards = shards;
  job.lanes = std::clamp(std::min(max_lanes, lanes()), 1, shards);
  job.fn = &fn;
  job.cursor = std::make_unique<std::atomic<int>[]>(
      static_cast<std::size_t>(job.lanes));
  job.lane_begin.resize(static_cast<std::size_t>(job.lanes) + 1);
  for (int l = 0; l <= job.lanes; ++l) {
    job.lane_begin[static_cast<std::size_t>(l)] = shards * l / job.lanes;
  }
  for (int l = 0; l < job.lanes; ++l) {
    const auto li = static_cast<std::size_t>(l);
    job.cursor[li].store(job.lane_begin[li], std::memory_order_relaxed);
  }

  if (job.lanes > 1) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      jobs_.push_back(&job);
    }
    work_cv_.notify_all();
  }

  // The caller is lane 0 and works like everyone else.
  while (RunOneShard(job, 0)) {
  }
  {
    std::unique_lock<std::mutex> lock(job.done_mutex);
    job.done_cv.wait(lock, [&job] {
      return job.completed.load(std::memory_order_acquire) == job.shards;
    });
  }

  if (job.lanes > 1) {
    std::unique_lock<std::mutex> lock(mutex_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    idle_cv_.wait(lock, [&job] { return job.active_workers == 0; });
  }

  if (job.error) std::rethrow_exception(job.error);
}

int NodeShards(std::int64_t n) {
  constexpr std::int64_t kMinShardNodes = 64;
  constexpr std::int64_t kMaxShards = 64;
  return static_cast<int>(
      std::clamp<std::int64_t>(n / kMinShardNodes, 1, kMaxShards));
}

void ShardRunner::Run(int shards,
                      const std::function<void(int shard)>& fn) const {
  SDN_CHECK(shards >= 0);
  if (pool_ == nullptr || shards <= 1) {
    for (int s = 0; s < shards; ++s) fn(s);
    return;
  }
  // One index per shard, so ParallelFor's [n*s/shards, n*(s+1)/shards)
  // split hands shard s exactly [s, s+1).
  pool_->ParallelFor(shards, shards, lanes_,
                     [&fn](int shard, std::int64_t, std::int64_t) {
                       fn(shard);
                     });
}

}  // namespace sdn::util
