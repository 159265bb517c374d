#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/check.h"

namespace bohr {

namespace {

thread_local int t_parallel_depth = 0;

/// One submitted parallel loop. Heap-allocated and shared between the
/// caller and every worker that wakes for it: each job owns its chunk
/// counter and a COPY of the body, so a worker that wakes late for an
/// already-finished job (run() returned, next run() submitted) drains an
/// exhausted counter and never touches another job's state or a dangling
/// std::function.
struct Job {
  std::function<void(std::size_t)> fn;
  std::size_t chunks = 0;
  std::atomic<std::size_t> next{0};
  /// The lowest chunk that threw and its exception (guarded by Pool::mu_).
  std::size_t error_chunk = 0;
  std::exception_ptr error;
};

/// Lazily-started fixed-size worker pool. Workers claim chunk indices
/// from the job's atomic counter; the thread that calls run() participates
/// too, so a pool of size T uses T-1 spawned workers.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  ~Pool() { stop(); }

  /// Drains and joins any running workers, then records the new size.
  /// Workers respawn lazily on the next run().
  void resize(std::size_t threads) {
    BOHR_EXPECTS(threads >= 1);
    BOHR_CHECK(t_parallel_depth == 0);
    stop();
    std::lock_guard lock(mu_);
    threads_target_ = threads;
  }

  std::size_t size() {
    std::lock_guard lock(mu_);
    return threads_target_;
  }

  /// Executes fn(0) .. fn(n_chunks - 1) across the pool. Blocks until
  /// every chunk has finished; rethrows the lowest chunk's exception.
  void run(std::size_t n_chunks, const std::function<void(std::size_t)>& fn) {
    auto job = std::make_shared<Job>();
    job->fn = fn;  // copy: a stale worker may hold the job past run()
    job->chunks = n_chunks;
    {
      std::unique_lock lock(mu_);
      ensure_workers(lock);
      job_ = job;
      ++generation_;
      work_cv_.notify_all();
    }
    drain(*job);
    std::unique_lock lock(mu_);
    done_cv_.wait(lock, [&] { return active_ == 0; });
    if (job_ == job) job_.reset();
    if (job->error) {
      std::exception_ptr error = job->error;
      lock.unlock();
      std::rethrow_exception(error);
    }
  }

 private:
  Pool() = default;

  void ensure_workers(std::unique_lock<std::mutex>& lock) {
    BOHR_CHECK(lock.owns_lock());
    const std::size_t want = threads_target_ > 0 ? threads_target_ - 1 : 0;
    while (workers_.size() < want) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void stop() {
    {
      std::lock_guard lock(mu_);
      if (workers_.empty()) return;
      shutdown_ = true;
      work_cv_.notify_all();
    }
    for (auto& worker : workers_) worker.join();
    std::lock_guard lock(mu_);
    workers_.clear();
    shutdown_ = false;
  }

  void drain(Job& job) {
    ++t_parallel_depth;
    for (;;) {
      const std::size_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= job.chunks) break;
      try {
        job.fn(chunk);
      } catch (...) {
        std::lock_guard lock(mu_);
        if (!job.error || chunk < job.error_chunk) {
          job.error = std::current_exception();
          job.error_chunk = chunk;
        }
      }
    }
    --t_parallel_depth;
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      std::shared_ptr<Job> job = job_;
      if (!job) continue;  // job already finished and detached
      ++active_;
      lock.unlock();
      drain(*job);
      job.reset();
      lock.lock();
      if (--active_ == 0) done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::size_t threads_target_ = 1;
  bool shutdown_ = false;
  // Latest submitted job (guarded by mu_; chunk counter lives in the Job).
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  std::size_t active_ = 0;
};

std::size_t env_or_hardware_threads() {
  if (const char* env = std::getenv("BOHR_THREADS")) {
    if (const auto parsed = parse_thread_count(env)) return *parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxThreads);
}

std::size_t& current_threads() {
  static std::size_t threads = env_or_hardware_threads();
  return threads;
}

std::mutex g_config_mu;

}  // namespace

std::size_t default_thread_count() { return env_or_hardware_threads(); }

std::size_t thread_count() {
  std::lock_guard lock(g_config_mu);
  return current_threads();
}

std::optional<std::size_t> parse_thread_count(std::string_view text) {
  std::size_t n = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || ptr != end || n < 1 || n > kMaxThreads) {
    return std::nullopt;
  }
  return n;
}

void set_thread_count(std::size_t n) {
  BOHR_EXPECTS(!in_parallel_region());
  BOHR_EXPECTS(n <= kMaxThreads);
  const std::size_t resolved = n == 0 ? env_or_hardware_threads() : n;
  {
    std::lock_guard lock(g_config_mu);
    current_threads() = resolved;
  }
  Pool::instance().resize(resolved);
}

bool in_parallel_region() { return t_parallel_depth > 0; }

std::size_t chunk_count(std::size_t n, std::size_t grain) {
  if (n == 0) return 0;
  if (grain == 0) grain = 1;
  std::size_t size = (n + kTargetChunks - 1) / kTargetChunks;
  if (size < grain) size = grain;
  return (n + size - 1) / size;
}

ChunkRange chunk_range(std::size_t n, std::size_t grain, std::size_t chunk) {
  const std::size_t count = chunk_count(n, grain);
  BOHR_EXPECTS(chunk < count);
  const std::size_t size = (n + count - 1) / count;
  ChunkRange range;
  range.index = chunk;
  range.count = count;
  range.begin = chunk * size;
  range.end = range.begin + size < n ? range.begin + size : n;
  return range;
}

void parallel_for_chunks(std::size_t n, std::size_t grain,
                         const std::function<void(const ChunkRange&)>& body) {
  if (n == 0) return;
  const std::size_t chunks = chunk_count(n, grain);
  const std::size_t threads = thread_count();
  if (threads <= 1 || chunks <= 1 || in_parallel_region()) {
    // Exact serial path: inline, in chunk order, no pool involvement.
    ++t_parallel_depth;
    try {
      for (std::size_t c = 0; c < chunks; ++c) {
        body(chunk_range(n, grain, c));
      }
    } catch (...) {
      --t_parallel_depth;
      throw;
    }
    --t_parallel_depth;
    return;
  }
  Pool::instance().run(chunks, [&](std::size_t chunk) {
    body(chunk_range(n, grain, chunk));
  });
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  parallel_for_chunks(n, grain, [&](const ChunkRange& range) {
    for (std::size_t i = range.begin; i < range.end; ++i) body(i);
  });
}

}  // namespace bohr
