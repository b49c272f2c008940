#include "util/threadpool.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/env.hpp"

namespace sdd {
namespace {

// How long a worker keeps polling for the next job before it parks, and a
// caller polls for its workers' chunks before it starts yielding its CPU.
// Decode passes issue sharded calls a few to a few tens of µs apart, so a
// worker that spins this long is usually still running when the next call
// comes and holds a CPU other than the caller's.
constexpr std::chrono::microseconds kSpin{30};

constexpr std::uint64_t kEpochOne = std::uint64_t{1} << 32;
constexpr std::size_t kMaxChunks = 0xFFFF;

std::uint64_t chunks_of(std::uint64_t word) { return (word >> 16) & 0xFFFF; }
std::uint64_t next_of(std::uint64_t word) { return word & 0xFFFF; }

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Polls `ready` for kSpin; true as soon as it holds.
template <typename Ready>
bool spin_until(const Ready& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  for (unsigned polls = 1;; ++polls) {
    if (ready()) return true;
    cpu_relax();
    if (polls % 32 == 0 && std::chrono::steady_clock::now() >= deadline) return false;
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == kAutoWorkers) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw > 1 ? hw - 1 : 0;
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true);
  job_.fetch_add(kEpochOne);  // moves every spinning or parked worker on
  job_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run(Body body, std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t chunks = std::min({total, workers_.size() + 1, kMaxChunks});
  if (chunks <= 1 || busy_.exchange(true, std::memory_order_acquire)) {
    for (std::size_t i = begin; i < end; ++i) body.call(body.fn, i);
    return;
  }

  body_ = body;
  begin_ = begin;
  end_ = end;
  chunk_ = (total + chunks - 1) / chunks;
  done_.store(0, std::memory_order_relaxed);
  const std::uint64_t epoch = (job_.load(std::memory_order_relaxed) >> 32) + 1;
  const std::uint64_t word = (epoch << 32) | (std::uint64_t{chunks} << 16);
  // seq_cst store, then seq_cst load of sleepers_: a worker that counted
  // itself a sleeper after this store sees the new word before it parks.
  job_.store(word);
  if (sleepers_.load() != 0) job_.notify_all();

  run_chunks(word);
  if (!spin_until([&] { return done_.load(std::memory_order_acquire) == chunks; })) {
    while (done_.load(std::memory_order_acquire) != chunks) std::this_thread::yield();
  }

  std::exception_ptr error;
  if (failed_.load(std::memory_order_relaxed)) {
    error = std::exchange(error_, nullptr);
    failed_.store(false, std::memory_order_relaxed);
  }
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

std::uint64_t ThreadPool::run_chunks(std::uint64_t word) noexcept {
  while (next_of(word) < chunks_of(word)) {
    // The claim succeeds only while the word still names this job, so a
    // worker that read an older job's word never runs a chunk of it.
    if (job_.compare_exchange_weak(word, word + 1, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      run_chunk(next_of(word));
      word = job_.load(std::memory_order_acquire);
    }
  }
  return word;
}

void ThreadPool::run_chunk(std::uint64_t chunk) noexcept {
  if (!failed_.load(std::memory_order_relaxed)) {
    const std::size_t lo = std::min(end_, begin_ + chunk * chunk_);
    const std::size_t hi = std::min(end_, lo + chunk_);
    try {
      for (std::size_t i = lo; i < hi; ++i) body_.call(body_.fn, i);
    } catch (...) {
      if (!failed_.exchange(true)) error_ = std::current_exception();
    }
  }
  done_.fetch_add(1, std::memory_order_release);
}

std::uint64_t ThreadPool::await_job(std::uint64_t seen) noexcept {
  std::uint64_t word = seen;
  if (spin_until([&] { return (word = job_.load(std::memory_order_acquire)) != seen; })) {
    return word;
  }
  // Counted before the re-check, so a caller that publishes after it wakes us.
  sleepers_.fetch_add(1);
  while ((word = job_.load()) == seen) job_.wait(seen);
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  return word;
}

void ThreadPool::worker_loop() noexcept {
  std::uint64_t word = job_.load(std::memory_order_acquire);
  for (;;) {
    word = run_chunks(word);
    // After the last read of the job word: either that read saw the
    // destructor's epoch bump, and with it stop_, or await_job sees the bump.
    if (stop_.load(std::memory_order_acquire)) return;
    word = await_job(word);
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool{[] {
    const std::int64_t requested = env_int("SDD_THREADS", 0);
    if (requested > 0) return static_cast<std::size_t>(requested - 1);
    return kAutoWorkers;
  }()};
  return pool;
}

}  // namespace sdd
