// Fork/join thread pool with a parallel_for helper, built so a call usually
// finds its workers already running on CPUs of their own.
//
// A call splits its range into contiguous chunks, one per participating
// thread, and publishes them as one job word: an epoch, the chunk count and
// the next unclaimed chunk. The caller and the workers claim chunk indices
// from that word by compare-and-swap, so a claim also checks that the job is
// still the one the claimant read, and the caller runs every chunk that no
// worker has taken: it never waits on a chunk that has not started, and a
// fork()ed child, which has no workers, still finishes. The caller then joins
// on an atomic done counter. After a job each worker spins for a fixed
// kSpin on the job word before parking on std::atomic::wait; a caller wakes
// parked workers only when one is counted, so a back-to-back call costs no
// syscall and no allocation. The pool pins nothing (docs/kernels.md,
// Threading, records why).
//
// One job runs at a time. A call that finds the pool busy — another thread's
// call, or a parallel_for from inside a chunk — runs its range inline, which
// gives the same result since every index is computed the same way
// whichever thread runs it.
//
// The global pool size is controlled by SDD_THREADS (total compute threads
// including the caller; unset or 0 = hardware_concurrency()).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <thread>
#include <vector>

namespace sdd {

class ThreadPool {
 public:
  // Sentinel selecting hardware_concurrency() - 1 workers (inline execution
  // when that is zero, i.e. on a single-core host).
  static constexpr std::size_t kAutoWorkers = std::numeric_limits<std::size_t>::max();

  // `workers` is the exact number of pool threads to spawn; the caller always
  // participates in parallel_for, so total parallelism is `workers + 1`.
  explicit ThreadPool(std::size_t workers = kAutoWorkers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return workers_.size(); }

  // Run fn(i) for i in [begin, end). Blocks until all iterations finish.
  // Work is split into contiguous chunks, one per participating thread
  // (including the caller), to keep cache locality for GEMM row blocks. The
  // first exception thrown by any chunk is rethrown here once every claimed
  // chunk has finished; chunks not yet started are then skipped, and the
  // pool stays usable.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, const Fn& fn) {
    run({&invoke<Fn>, &fn}, begin, end);
  }

  // Process-wide default pool. Sized from SDD_THREADS on first use: a value
  // N > 0 means N total compute threads (N - 1 pool workers); unset/0 means
  // auto-detect from hardware_concurrency().
  static ThreadPool& global();

 private:
  // Non-owning view of the caller's callable; valid for one run().
  struct Body {
    void (*call)(const void* fn, std::size_t i);
    const void* fn;
  };
  template <typename Fn>
  static void invoke(const void* fn, std::size_t i) {
    (*static_cast<const Fn*>(fn))(i);
  }

  void run(Body body, std::size_t begin, std::size_t end);
  // Claims and runs chunks of the job in `word` until none is left; returns
  // the last job word read.
  std::uint64_t run_chunks(std::uint64_t word) noexcept;
  void run_chunk(std::uint64_t chunk) noexcept;
  // Spins, then parks, until the job word differs from `seen`.
  std::uint64_t await_job(std::uint64_t seen) noexcept;
  void worker_loop() noexcept;

  // The job: written by the caller that holds busy_, before the job word
  // publishes it, and read only by a thread holding a claimed chunk.
  Body body_{};
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t chunk_ = 0;
  std::exception_ptr error_;           // written by the failed_ exchange winner
  std::atomic<bool> failed_{false};

  std::atomic<bool> busy_{false};      // a caller owns the job fields
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> sleepers_{0};
  // [epoch:32][chunks:16][next chunk:16]
  alignas(64) std::atomic<std::uint64_t> job_{0};
  alignas(64) std::atomic<std::uint64_t> done_{0};  // chunks finished this job

  std::vector<std::thread> workers_;  // last: workers start reading the above
};

// Convenience wrapper over the global pool.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, const Fn& fn) {
  ThreadPool::global().parallel_for(begin, end, fn);
}

}  // namespace sdd
