// The crash-tolerant fleet work queue (fleet/queue) and worker loop
// (fleet/orchestrator): atomic O_EXCL claims (exactly one racer wins), lease
// renewal vs. expiry, orphan reclaim after a simulated kill -9, poison-task
// quarantine, result-validation requeue, and the fleet-level fault hooks'
// once-per-run marker semantics. Suite names all start with "Fleet" so the
// TSan CI job picks them up (tests that fork are compiled out under TSan —
// fork+threads is outside TSan's model — while the thread-based races stay).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/orchestrator.hpp"
#include "fleet/queue.hpp"
#include "fleet/stages.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/proc.hpp"
#include "util/signals.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDD_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define SDD_TSAN 1
#endif

namespace sdd::fleet {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("sdd_fleet_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  static inline std::atomic<int> counter_{0};
  fs::path path_;
};

TaskSpec make_task(const std::string& id) {
  TaskSpec task;
  task.id = id;
  task.fields["kind"] = "test";
  task.fields["payload"] = id + "-payload";
  return task;
}

TEST(FleetTaskSpec, SerializeParseRoundTrip) {
  TaskSpec task;
  task.id = "cell_3";
  task.fields["kind"] = "eval_cell";
  task.fields["task"] = "gsm8k";
  task.fields["size"] = "800";
  const TaskSpec parsed = TaskSpec::parse(task.id, task.serialize());
  EXPECT_EQ(parsed.id, "cell_3");
  EXPECT_EQ(parsed.fields, task.fields);
  EXPECT_EQ(parsed.field("task"), "gsm8k");
  EXPECT_EQ(parsed.field_int("size"), 800);
  EXPECT_THROW(parsed.field("missing"), Error);
  TaskSpec bad = parsed;
  bad.fields["size"] = "not-a-number";
  EXPECT_THROW(bad.field_int("size"), Error);
}

// Seeded mutation fuzz of task files: every mutant parses, and field() and
// field_int() return or throw Error{fatal}.
TEST(FleetTaskSpec, MutatedSpecsParseOrThrowFatal) {
  eval::SuiteSpec spec;
  spec.task_seed = ~0ULL;
  TaskSpec distill = make_task("distill_gsm8k_32");
  distill.fields["size"] = "32";
  const std::vector<std::string> corpus{
      eval_cell("arc_c", "/m/model.bin", "/m/arc_c.metric", spec, 42).serialize(),
      distill.serialize()};
  Rng rng{0x7A5C};
  std::int64_t read = 0;
  std::int64_t fatal = 0;
  for (int i = 0; i < 20'000; ++i) {
    const TaskSpec task = TaskSpec::parse("fuzz", testing::mutate_bytes(corpus, rng));
    for (const char* key : {"kind", "size", "spec.mc_items", "world_seed"}) {
      try {
        task.field(key);
        task.field_int(key);
        ++read;
      } catch (const Error& e) {
        ASSERT_EQ(e.kind(), ErrorKind::kFatal);
        ++fatal;
      }
    }
  }
  EXPECT_GT(read, 1'000);
  EXPECT_GT(fatal, 1'000);
}

// Seeds travel in their typed text form: an unsigned seed at or above 2^63
// reaches the worker intact instead of failing the cell.
TEST(FleetStages, EvalCellCarriesSeedsFromTwoToThe63) {
  TempDir tmp;
  const nn::TransformerLM model{testing::tiny_real_vocab_config(1), 17};
  model.save(tmp.path() / "model.bin");
  eval::SuiteSpec spec;
  spec.mc_items = 3;
  spec.gen_items = 2;
  spec.task_seed = (1ULL << 63) | 5;
  spec.options.seed = (1ULL << 63) | 7;
  const std::uint64_t world_seed = (1ULL << 63) | 9;
  execute_task(eval_cell("arc_c", tmp.path() / "model.bin", tmp.path() / "arc_c.metric",
                         spec, world_seed));
  const eval::TaskResult result = read_metric(tmp.path() / "arc_c.metric");
  const eval::TaskResult direct =
      eval::evaluate_named_task(model, data::World{world_seed}, "arc_c", spec);
  EXPECT_EQ(result.n_items, 3);
  EXPECT_EQ(result.n_correct, direct.n_correct);
  EXPECT_EQ(result.accuracy, direct.accuracy);
}

// Seeded mutation fuzz of the SDDMTRC1 reader: a mutant either is the bytes
// of a published artifact and reads back its exact TaskResult, or throws
// SerializeError.
TEST(FleetMemo, MutatedMetricsReadBackExactlyOrThrow) {
  TempDir tmp;
  const std::vector<eval::TaskResult> published{
      {"arc_c", 0.75, 8, 6}, {"gsm8k", 0.0, 3, 0}, {"winogrande", 1.0 / 3.0, 60, 20}};
  std::vector<std::string> corpus;
  for (const eval::TaskResult& result : published) {
    const fs::path path = tmp.path() / (result.task + ".metric");
    write_metric(path, result);
    std::ifstream in{path, std::ios::binary};
    corpus.emplace_back(std::istreambuf_iterator<char>{in},
                        std::istreambuf_iterator<char>{});
  }
  Rng rng{0x3E7C};
  const fs::path path = tmp.path() / "mutant.metric";
  std::int64_t rejected = 0;
  for (int i = 0; i < 5'000; ++i) {
    const std::string mutant = testing::mutate_bytes(corpus, rng);
    std::ofstream{path, std::ios::binary | std::ios::trunc} << mutant;
    try {
      const eval::TaskResult result = read_metric(path);
      const auto original = std::find(corpus.begin(), corpus.end(), mutant);
      ASSERT_NE(original, corpus.end()) << "a changed artifact read back, mutant " << i;
      const eval::TaskResult& expected =
          published[static_cast<std::size_t>(original - corpus.begin())];
      EXPECT_EQ(result.task, expected.task);
      EXPECT_EQ(result.accuracy, expected.accuracy);
      EXPECT_EQ(result.n_items, expected.n_items);
      EXPECT_EQ(result.n_correct, expected.n_correct);
    } catch (const SerializeError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 4'000);
}

eval::SuiteSpec tiny_spec() {
  eval::SuiteSpec spec;
  spec.mc_items = 3;
  spec.gen_items = 2;
  return spec;
}

std::vector<fs::path> memo_entries(const fs::path& root) {
  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator{root / "memo"}) {
    if (entry.path().extension() == ".metric") entries.push_back(entry.path());
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

// A memo entry that no longer reads back is quarantined and recomputed to
// the same score; the other tasks are memo hits.
TEST(FleetMemo, CorruptEntryIsQuarantinedAndRecomputed) {
  const ScopedLogLevel quiet{LogLevel::kError};
  TempDir tmp;
  const nn::TransformerLM model{testing::tiny_real_vocab_config(1), 23};
  const data::World world{42};
  const auto& tasks = eval::core_tasks();
  const FleetConfig serial;
  FleetStats stats;
  const eval::SuiteScores first =
      run_eval_suite(model, world, tasks, tiny_spec(), serial, tmp.path(), &stats);
  EXPECT_EQ(stats.reused, 0);
  const eval::SuiteScores direct = eval::evaluate_suite(model, world, tasks, tiny_spec());
  EXPECT_EQ(first.tasks, direct.tasks);
  EXPECT_EQ(first.average, direct.average);

  const std::vector<fs::path> entries = memo_entries(tmp.path());
  ASSERT_EQ(entries.size(), tasks.size());
  {
    std::fstream file{entries[1], std::ios::in | std::ios::out | std::ios::binary};
    file.seekp(12);
    file.put('\x5A');
  }
  const eval::SuiteScores second =
      run_eval_suite(model, world, tasks, tiny_spec(), serial, tmp.path(), &stats);
  EXPECT_EQ(stats.reused, static_cast<std::int64_t>(tasks.size()) - 1);
  EXPECT_EQ(second.tasks, first.tasks);
  EXPECT_EQ(second.average, first.average);
  EXPECT_TRUE(fs::exists(entries[1].string() + ".corrupt"));
  EXPECT_NO_THROW(read_metric(entries[1]));  // rewritten

  run_eval_suite(model, world, tasks, tiny_spec(), serial, tmp.path(), &stats);
  EXPECT_EQ(stats.reused, static_cast<std::int64_t>(tasks.size()));
}

// The world seed is part of the key: two worlds never share an entry, and
// each one's scores are its own evaluate_suite.
TEST(FleetMemo, WorldSeedsNeverShareAnEntry) {
  TempDir tmp;
  const nn::TransformerLM model{testing::tiny_real_vocab_config(1), 29};
  const std::uint64_t hash = model.weight_hash();
  EXPECT_NE(memo_path(tmp.path(), hash, tiny_spec(), 42, "arc_c"),
            memo_path(tmp.path(), hash, tiny_spec(), 43, "arc_c"));
  const FleetConfig serial;
  for (const std::uint64_t seed : {42, 43}) {
    const data::World world{seed};
    const eval::SuiteScores memoized =
        run_eval_suite(model, world, {"arc_c"}, tiny_spec(), serial, tmp.path());
    EXPECT_EQ(memoized.tasks,
              eval::evaluate_suite(model, world, {"arc_c"}, tiny_spec()).tasks);
  }
  EXPECT_EQ(memo_entries(tmp.path()).size(), 2U);
}

TEST(FleetQueue, LifecycleCountsAndIdempotentEnqueue) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  EXPECT_TRUE(queue.enqueue(make_task("a")));
  EXPECT_TRUE(queue.enqueue(make_task("b")));
  EXPECT_FALSE(queue.enqueue(make_task("a")));  // duplicate is a no-op
  EXPECT_FALSE(queue.all_terminal());

  auto claim = queue.try_claim("w0");
  ASSERT_TRUE(claim.has_value());
  EXPECT_EQ(queue.counts().claimed, 1);
  queue.complete(claim->id, "w0");
  EXPECT_TRUE(queue.is_done(claim->id));
  EXPECT_EQ(queue.counts().claimed, 0);
  EXPECT_FALSE(queue.enqueue(make_task(claim->id)));  // done: resume reuses

  auto second = queue.try_claim("w0");
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->id, claim->id);
  queue.complete(second->id, "w0");
  EXPECT_TRUE(queue.all_terminal());
  EXPECT_FALSE(queue.try_claim("w0").has_value());
  const QueueCounts counts = queue.counts();
  EXPECT_EQ(counts.tasks, 2);
  EXPECT_EQ(counts.done, 2);
  EXPECT_EQ(counts.dead, 0);
}

TEST(FleetQueue, InvalidTaskIdRejected) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  EXPECT_THROW(queue.enqueue(make_task("../escape")), Error);
  EXPECT_THROW(queue.enqueue(make_task("")), Error);
}

// Many threads race one claim through O_CREAT|O_EXCL: exactly one wins.
TEST(FleetQueue, ConcurrentClaimExactlyOneWinner) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("contested")));

  constexpr int kRacers = 8;
  std::atomic<int> winners{0};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> racers;
  racers.reserve(kRacers);
  for (int i = 0; i < kRacers; ++i) {
    racers.emplace_back([&, i] {
      WorkQueue local{tmp.path()};
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (local.try_claim("w" + std::to_string(i)).has_value()) {
        winners.fetch_add(1);
      }
    });
  }
  while (ready.load() < kRacers) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& t : racers) t.join();
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(queue.counts().claimed, 1);
}

// Same race with the claim_race fault armed: every scanner targets the same
// task and pauses in the widened scan-to-claim window; still one winner.
TEST(FleetQueue, ClaimRaceFaultStillElectsOneWinner) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("contested")));

  fault::configure("claim_race");
  ASSERT_TRUE(fault::claim_race_armed());

  constexpr int kRacers = 6;
  std::atomic<int> winners{0};
  std::vector<std::thread> racers;
  for (int i = 0; i < kRacers; ++i) {
    racers.emplace_back([&, i] {
      WorkQueue local{tmp.path()};
      if (local.try_claim("w" + std::to_string(i)).has_value()) {
        winners.fetch_add(1);
      }
    });
  }
  for (std::thread& t : racers) t.join();
  fault::reset();
  EXPECT_EQ(winners.load(), 1);
}

// A lease whose renewal straddles the expiry window: a freshly renewed claim
// must survive reclaim, and the same claim left silent must be reclaimed
// (counting one failure against the task).
TEST(FleetQueue, LeaseRenewalStraddlesExpiry) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("leased")));
  auto claim = queue.try_claim("w0");
  ASSERT_TRUE(claim.has_value());

  // Fabricate an old beat, then renew: the beat must be fresh again and the
  // lease must survive a reclaim pass.
  auto info = queue.read_claim("leased");
  ASSERT_TRUE(info.has_value());
  std::ofstream out{queue.claim_path("leased")};
  out << "pid=" << info->pid << "\nworker=w0\nbeat=" << (info->beat_ms - 10'000)
      << "\n";
  out.close();
  queue.renew("leased", "w0");
  info = queue.read_claim("leased");
  ASSERT_TRUE(info.has_value());
  EXPECT_GT(info->beat_ms, proc::monotonic_ms() - 5'000);
  EXPECT_TRUE(queue.reclaim_stale(/*lease_ms=*/60'000, /*retry_budget=*/3)
                  .empty());
  EXPECT_EQ(queue.attempts("leased"), 0);

  // Now let the lease go stale: reclaim must break it and count a failure.
  std::ofstream stale{queue.claim_path("leased")};
  stale << "pid=" << info->pid << "\nworker=w0\nbeat="
        << (proc::monotonic_ms() - 10'000) << "\n";
  stale.close();
  const auto reclaimed = queue.reclaim_stale(/*lease_ms=*/1'000, 3);
  ASSERT_EQ(reclaimed.size(), 1U);
  EXPECT_EQ(reclaimed[0].id, "leased");
  EXPECT_EQ(reclaimed[0].claim.worker, "w0");
  EXPECT_FALSE(reclaimed[0].quarantined);
  EXPECT_EQ(queue.attempts("leased"), 1);
  EXPECT_FALSE(queue.read_claim("leased").has_value());

  // A renewal from the evicted owner must not resurrect the claim, and the
  // task must be claimable again.
  queue.renew("leased", "w0");
  EXPECT_FALSE(queue.read_claim("leased").has_value());
  EXPECT_TRUE(queue.try_claim("w1").has_value());
}

// A claim on a task that is already done (crash between the done marker and
// the claim release) is dropped without counting a failure.
TEST(FleetQueue, ReclaimOfDoneTaskDropsClaimSilently) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("t")));
  ASSERT_TRUE(queue.try_claim("w0").has_value());
  // Simulate the crash window: done marker published, claim never released.
  std::ofstream out{queue.done_path("t")};
  out << "worker=w0\n";
  out.close();
  std::ofstream stale{queue.claim_path("t")};
  stale << "pid=1\nworker=w0\nbeat=0\n";
  stale.close();
  EXPECT_TRUE(queue.reclaim_stale(/*lease_ms=*/1, 3).empty());
  EXPECT_FALSE(queue.read_claim("t").has_value());
  EXPECT_EQ(queue.attempts("t"), 0);
  EXPECT_TRUE(queue.all_terminal());
}

// A claim that never got its text (a claimer killed between creating and
// writing it, as an older writer could be) has no owner to wait for: it is
// reclaimed at once, and the task completes.
TEST(FleetQueue, EmptyClaimIsReclaimedAndTheTaskCompletes) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("torn")));
  std::ofstream{queue.claim_path("torn")}.close();
  EXPECT_FALSE(queue.read_claim("torn").has_value());
  EXPECT_FALSE(queue.try_claim("w0").has_value());

  const auto reclaimed = queue.reclaim_stale(/*lease_ms=*/60'000, 3);
  ASSERT_EQ(reclaimed.size(), 1U);
  EXPECT_EQ(reclaimed[0].claim.pid, -1);
  FleetConfig config;
  config.lease_ms = 60'000;
  config.poll_ms = 5;
  int executed = 0;
  EXPECT_EQ(worker_main(tmp.path(), "w0", config, [&](const TaskSpec&) { ++executed; }), 0);
  EXPECT_EQ(executed, 1);
  EXPECT_TRUE(queue.is_done("torn"));
}

// Seeded mutation fuzz of the claim reader: every mutant of a valid claim
// reads and sweeps without throwing, and one that does not parse is
// reclaimed. Beats at the ends of the int64 range must not overflow the
// silence computation (the ASan+UBSan build checks that).
TEST(FleetQueue, MutatedClaimsReadAndReclaimWithoutThrowing) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("t")));
  const std::vector<std::string> claims = {
      "pid=4242\nworker=w0-g1\nbeat=" + std::to_string(proc::monotonic_ms()) + "\n",
      "pid=1\nworker=w\nbeat=0\n",
      "pid=-1\nworker=\nbeat=-9223372036854775808\n",
      "pid=7\nworker=w7\nbeat=9223372036854775807\n",
  };
  // Both ends of the beat range are stale: int64 min is older than any
  // lease, and a beat from the future means the queue outlived a reboot.
  for (const std::string& edge : {claims[2], claims[3]}) {
    std::ofstream{queue.claim_path("t")} << edge;
    EXPECT_EQ(queue.reclaim_stale(/*lease_ms=*/60'000, 1'000'000).size(), 1U) << edge;
  }

  const ScopedLogLevel quiet{LogLevel::kOff};
  Rng rng{0xC1A1};
  for (int i = 0; i < 2'000; ++i) {
    {
      std::ofstream out{queue.claim_path("t"), std::ios::binary | std::ios::trunc};
      out << testing::mutate_bytes(claims, rng);
    }
    std::optional<ClaimInfo> claim;
    ASSERT_NO_THROW(claim = queue.read_claim("t")) << "mutant " << i;
    ASSERT_NO_THROW(queue.reclaim_stale(/*lease_ms=*/60'000, 1'000'000)) << "mutant " << i;
    if (!claim) {
      EXPECT_FALSE(fs::exists(queue.claim_path("t"))) << "mutant " << i;
    }
  }
}

TEST(FleetQueue, PoisonTaskQuarantinesAfterBudget) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("poison")));
  for (int attempt = 1; attempt <= 3; ++attempt) {
    auto claim = queue.try_claim("w0");
    ASSERT_TRUE(claim.has_value()) << "attempt " << attempt;
    const bool dead =
        queue.release_failed("poison", /*retry_budget=*/3, "synthetic failure");
    EXPECT_EQ(dead, attempt == 3);
  }
  const QueueCounts counts = queue.counts();
  EXPECT_EQ(counts.tasks, 0);
  EXPECT_EQ(counts.dead, 1);
  EXPECT_TRUE(fs::exists(queue.dead_path("poison")));
  EXPECT_TRUE(fs::exists(tmp.path() / "dead" / "poison.reason"));
  EXPECT_FALSE(queue.try_claim("w0").has_value());
  EXPECT_TRUE(queue.all_terminal());  // dead tasks left the live queue
  EXPECT_FALSE(queue.enqueue(make_task("poison")));  // stays quarantined
}

TEST(FleetQueue, RequeueDoneRejectsPublishedResult) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("t")));
  auto claim = queue.try_claim("w0");
  ASSERT_TRUE(claim.has_value());
  queue.complete("t", "w0");
  ASSERT_TRUE(queue.is_done("t"));
  EXPECT_FALSE(queue.requeue_done("t", /*retry_budget=*/3, "bad checksum"));
  EXPECT_FALSE(queue.is_done("t"));
  EXPECT_EQ(queue.attempts("t"), 1);
  EXPECT_TRUE(queue.try_claim("w1").has_value());  // claimable again
}

// In-process worker loop with an injected executor: drains the queue, counts
// failures, quarantines a poison task, and completes the rest.
TEST(FleetWorker, DrainsQueueAndQuarantinesPoison) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  for (const char* id : {"good_a", "good_b", "bad"}) {
    ASSERT_TRUE(queue.enqueue(make_task(id)));
  }
  FleetConfig config;
  config.workers = 1;
  config.lease_ms = 200;
  config.task_retry = 2;
  config.poll_ms = 5;

  std::atomic<int> executed{0};
  const int rc = worker_main(tmp.path(), "w0", config, [&](const TaskSpec& t) {
    executed.fetch_add(1);
    if (t.id == "bad") throw Error(ErrorKind::kFatal, "poison");
  });
  EXPECT_EQ(rc, 0);
  const QueueCounts counts = queue.counts();
  EXPECT_EQ(counts.done, 2);
  EXPECT_EQ(counts.dead, 1);
  EXPECT_EQ(counts.claimed, 0);
  // good_a + good_b once each, bad twice (retry budget 2).
  EXPECT_EQ(executed.load(), 4);
  EXPECT_TRUE(queue.is_done("good_a"));
  EXPECT_TRUE(queue.is_done("good_b"));
  EXPECT_TRUE(fs::exists(queue.dead_path("bad")));
}

// A completion that cannot be published (the done marker's tmp path is a
// directory) is a failed attempt: the worker survives, retries, and
// quarantines the task once its retry budget is spent.
TEST(FleetWorker, UnpublishableCompletionIsAFailedAttempt) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("t")));
  fs::create_directories(tmp.path() / "done" / "t.done.tmp" / "blocker");
  FleetConfig config;
  config.workers = 1;
  config.lease_ms = 200;
  config.task_retry = 2;
  config.poll_ms = 5;

  int executed = 0;
  EXPECT_EQ(worker_main(tmp.path(), "w0", config,
                        [&](const TaskSpec&) { ++executed; }),
            0);
  EXPECT_EQ(executed, 2);
  EXPECT_FALSE(queue.is_done("t"));
  EXPECT_TRUE(fs::exists(queue.dead_path("t")));
}

// Two in-process workers share one queue; every task is executed exactly
// once (claims are exclusive) and both exit once the queue is terminal.
TEST(FleetWorker, TwoWorkersPartitionTheQueue) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  constexpr int kTasks = 12;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(queue.enqueue(make_task("t" + std::to_string(i))));
  }
  FleetConfig config;
  config.workers = 2;
  config.lease_ms = 500;
  config.poll_ms = 5;

  std::atomic<int> executions{0};
  const auto executor = [&](const TaskSpec&) {
    executions.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  };
  std::thread other{[&] { worker_main(tmp.path(), "w1", config, executor); }};
  const int rc = worker_main(tmp.path(), "w0", config, executor);
  other.join();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(executions.load(), kTasks);
  EXPECT_EQ(queue.counts().done, kTasks);
}

TEST(FleetWorker, GracefulShutdownReleasesClaimWithoutFailure) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("t")));
  FleetConfig config;
  config.workers = 1;
  config.poll_ms = 5;

  // Install the graceful handler (flag-setting, idempotent) so the raised
  // SIGTERM below doesn't tear the test binary down with the default
  // disposition.
  signals::install_graceful_shutdown();
  signals::reset_interrupt_for_test();
  bool interrupted = false;
  try {
    worker_main(tmp.path(), "w0", config, [&](const TaskSpec&) {
      // Simulate SIGTERM arriving mid-execution; the worker observes it via
      // the supervisor heartbeat and unwinds with kInterrupted.
      ::raise(SIGTERM);
      throw Error(ErrorKind::kInterrupted, "shutdown requested by signal 15");
    });
  } catch (const Error& e) {
    interrupted = e.kind() == ErrorKind::kInterrupted;
  }
  signals::reset_interrupt_for_test();
  EXPECT_TRUE(interrupted);
  // The claim was released and no failure was counted: a respawned worker
  // can pick the task right back up.
  EXPECT_EQ(queue.counts().claimed, 0);
  EXPECT_EQ(queue.attempts("t"), 0);
  EXPECT_FALSE(queue.is_done("t"));
}

// An idle worker (its one task is held by a live sibling) waits in a 30 s
// queue poll. A process-directed SIGTERM, whichever thread takes it, ends
// that wait at once and the worker unwinds with kInterrupted.
TEST(FleetWorker, SigtermEndsTheIdleQueuePoll) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("t")));
  ASSERT_TRUE(queue.try_claim("sibling").has_value());
  FleetConfig config;
  config.workers = 1;
  config.poll_ms = 30'000;
  config.lease_ms = 600'000;

  signals::install_graceful_shutdown();
  signals::reset_interrupt_for_test();
  std::thread killer{[] {
    std::this_thread::sleep_for(std::chrono::milliseconds{100});
    ::kill(::getpid(), SIGTERM);
  }};
  const auto start = std::chrono::steady_clock::now();
  bool interrupted = false;
  try {
    worker_main(tmp.path(), "w0", config, [](const TaskSpec&) {});
  } catch (const Error& e) {
    interrupted = e.kind() == ErrorKind::kInterrupted;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  killer.join();
  signals::reset_interrupt_for_test();
  EXPECT_TRUE(interrupted);
  EXPECT_LT(elapsed, std::chrono::seconds{10});
  EXPECT_EQ(queue.counts().claimed, 1);  // the sibling's claim is untouched
}

// The worker_kill9 marker fires at most once per fleet run even when several
// workers reach the armed claim count (mode:throw keeps it in-process).
TEST(FleetFaults, WorkerKill9FiresOncePerRun) {
  TempDir tmp;
  const std::string spec = "worker_kill9:at=0,mode:throw";
  fault::configure(spec);

  int fired = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    // Each loop simulates a freshly respawned worker process: reset re-arms
    // the per-process claim counter, but the on-disk marker persists.
    fault::configure(spec);
    try {
      fault::on_fleet_claim(tmp.path());
    } catch (const fault::FaultCrash&) {
      ++fired;
    }
  }
  fault::reset();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(fs::exists(tmp.path() / ".fault_worker_kill9"));
}

TEST(FleetFaults, FaultSpecParsesFleetDirectives) {
  const fault::Spec config = fault::parse_fault_spec(
      "worker_kill9:at=2,worker_stall:1,claim_race,orch_crash:4,mode:throw");
  EXPECT_EQ(config.value(fault::Directive::worker_kill9), 2);
  EXPECT_EQ(config.value(fault::Directive::worker_stall), 1);
  EXPECT_TRUE(config.armed(fault::Directive::claim_race));
  EXPECT_EQ(config.value(fault::Directive::orch_crash), 4);
  EXPECT_TRUE(config.armed());
  EXPECT_EQ(fault::parse_fault_spec("worker_kill9:1")
                .value(fault::Directive::worker_kill9), 1);
  EXPECT_THROW(fault::parse_fault_spec("worker_kill9:at=x"),
               std::invalid_argument);
}

TEST(FleetFaults, OrchCrashFiresAtNthCompletion) {
  fault::configure("orch_crash:2,mode:throw");
  fault::on_fleet_completion();  // #0
  fault::on_fleet_completion();  // #1
  EXPECT_THROW(fault::on_fleet_completion(), fault::FaultCrash);  // #2
  fault::reset();
}

TEST(FleetErrorTaxonomy, NewKindsAreWired) {
  EXPECT_EQ(error_kind_name(ErrorKind::kWorkerLost), "worker_lost");
  EXPECT_EQ(error_kind_name(ErrorKind::kInterrupted), "interrupted");
  EXPECT_TRUE(error_kind_retryable(ErrorKind::kWorkerLost));
  EXPECT_FALSE(error_kind_retryable(ErrorKind::kInterrupted));
  EXPECT_EQ(error_kind_exit_code(ErrorKind::kWorkerLost), 71);
  EXPECT_EQ(error_kind_exit_code(ErrorKind::kInterrupted), 72);
}

#if !defined(SDD_TSAN)
// Orphan reclaim after a real kill -9: a forked child claims the task and
// dies without releasing; the parent reclaims the stale lease and re-runs
// the task. (fork + threads is outside TSan's model, so TSan builds skip
// this one; the lease logic itself is covered thread-only above.)
TEST(FleetOrphan, ReclaimAfterKill9) {
  TempDir tmp;
  WorkQueue queue{tmp.path()};
  ASSERT_TRUE(queue.enqueue(make_task("orphaned")));

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: claim, then die like SIGKILL — no release, no unwind.
    WorkQueue mine{tmp.path()};
    const auto claim = mine.try_claim("doomed");
    ::_exit(claim.has_value() ? 0 : 3);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  // The orphaned lease is held by a dead pid and never renews.
  auto info = queue.read_claim("orphaned");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->worker, "doomed");
  EXPECT_FALSE(queue.try_claim("w1").has_value());  // still locked out

  // Wait out the (tiny) lease, then reclaim and finish the task.
  std::this_thread::sleep_for(std::chrono::milliseconds{30});
  const auto reclaimed = queue.reclaim_stale(/*lease_ms=*/10, 3);
  ASSERT_EQ(reclaimed.size(), 1U);
  EXPECT_EQ(reclaimed[0].id, "orphaned");
  EXPECT_EQ(reclaimed[0].claim.pid, static_cast<std::int64_t>(child));
  EXPECT_EQ(queue.attempts("orphaned"), 1);

  auto claim = queue.try_claim("w1");
  ASSERT_TRUE(claim.has_value());
  queue.complete(claim->id, "w1");
  EXPECT_TRUE(queue.all_terminal());
}

// proc::Child against a real child process.
TEST(FleetProc, SpawnReapAndTerminate) {
  proc::Child child = proc::Child::spawn({"/bin/sh", "-c", "exit 7"});
  const auto status = child.wait(5'000);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->exit_code, 7);
  EXPECT_EQ(status->term_signal, 0);
  EXPECT_FALSE(status->clean());

  proc::Child sleeper = proc::Child::spawn({"/bin/sh", "-c", "sleep 30"});
  EXPECT_FALSE(sleeper.try_reap().has_value());
  const auto killed = sleeper.terminate(/*grace_ms=*/200);
  EXPECT_TRUE(killed.term_signal == SIGTERM || killed.term_signal == SIGKILL);
  EXPECT_TRUE(sleeper.try_reap().has_value());
}
#endif  // !SDD_TSAN

#if defined(SDD_CLI_PATH) && !defined(SDD_TSAN)
// The soak model shape with a 4-step pretrain, as environment assignments.
constexpr const char* kCliShape =
    "SDD_DMODEL=32 SDD_HEADS=2 SDD_LAYERS=4 SDD_DFF=64 SDD_MAX_SEQ=64 "
    "SDD_CORPUS_DOCS=400 SDD_PRETRAIN_STEPS=4 SDD_PRETRAIN_BATCH=2 "
    "SDD_PRETRAIN_SEQ=48 SDD_LOG_LEVEL=error ";

std::string read_text(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

// Runs `sdd_cli eval` serially and then through the fleet under `fleet_env`,
// expects the two digests to be byte-identical, and returns the fleet run's
// wall time in ms.
std::int64_t fleet_eval_ms(const std::string& fleet_env) {
  TempDir tmp;
  const auto eval = [&](const std::string& name, const std::string& fleet) {
    const fs::path dir = tmp.path() / name;
    return std::system((kCliShape + fleet + "SDD_CACHE_DIR=" + dir.string() + " " +
                        SDD_CLI_PATH + " eval --suite openllm --items 3 --out " +
                        (dir / "digest.txt").string() + " > /dev/null")
                           .c_str());
  };
  EXPECT_EQ(eval("serial", ""), 0);
  const std::int64_t start = proc::monotonic_ms();
  EXPECT_EQ(eval("fleet", fleet_env), 0);
  const std::int64_t elapsed = proc::monotonic_ms() - start;
  const std::string serial_text = read_text(tmp.path() / "serial" / "digest.txt");
  const std::string fleet_text = read_text(tmp.path() / "fleet" / "digest.txt");
  EXPECT_FALSE(serial_text.empty());
  EXPECT_EQ(fleet_text, serial_text);
  return elapsed;
}

// `sdd_cli eval` through the fleet: the orchestrator reaps its worker the
// moment it exits instead of sleeping out a 30 s poll tick.
TEST(FleetCliFork, EvalReapsTheWorkerWhenItExits) {
  EXPECT_LT(fleet_eval_ms("SDD_FLEET_WORKERS=1 SDD_FLEET_POLL_MS=30000 "), 10'000);
}

// Two workers: once the queue drains, one of them idles in its 30 s queue
// poll while the other finishes. The orchestrator's SIGTERM ends that wait at
// once, so the run does not sit out the 20 s lease grace before the SIGKILL.
TEST(FleetCliFork, EvalStopsAnIdleWorkerOnSigterm) {
  EXPECT_LT(fleet_eval_ms("SDD_FLEET_WORKERS=2 SDD_FLEET_POLL_MS=30000 "
                          "SDD_FLEET_LEASE_MS=20000 "),
            10'000);
}

// A memo entry corrupted between two fleet runs is quarantined and
// recomputed in a worker; the other cells are memo hits and the digest is
// unchanged.
TEST(FleetCliFork, CorruptMemoEntryIsRecomputedByAWorker) {
  TempDir tmp;
  const std::string run =
      std::string{kCliShape} + "SDD_FLEET_WORKERS=2 SDD_CACHE_DIR=" +
      (tmp.path() / "cache").string() + " " + SDD_CLI_PATH +
      " eval --suite openllm --items 3 --out ";
  ASSERT_EQ(
      std::system((run + (tmp.path() / "first.txt").string() + " > /dev/null").c_str()),
      0);
  const std::vector<fs::path> entries = memo_entries(tmp.path() / "cache" / "fleet");
  ASSERT_EQ(entries.size(), 6U);
  std::ofstream{entries[2], std::ios::binary | std::ios::trunc} << "SDDMTRC1 torn";
  ASSERT_EQ(std::system((run + (tmp.path() / "second.txt").string() + " > " +
                         (tmp.path() / "stdout.txt").string())
                            .c_str()),
            0);
  EXPECT_EQ(read_text(tmp.path() / "second.txt"), read_text(tmp.path() / "first.txt"));
  EXPECT_TRUE(fs::exists(entries[2].string() + ".corrupt"));
  // The rerun finds the corrupt cell done in its queue, rejects it and has a
  // worker recompute it: the one result this run produced.
  const std::string stdout_text = read_text(tmp.path() / "stdout.txt");
  EXPECT_NE(stdout_text.find("completed=1 rejected=1 reclaimed=0 respawned=0 dead=0"),
            std::string::npos)
      << stdout_text;
}

// Live processes whose command line runs `fleet-worker` over a queue under
// `root` (a zombie's command line reads empty).
std::vector<pid_t> fleet_workers_under(const fs::path& root) {
  std::vector<pid_t> pids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator{"/proc", ec}) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    const std::string cmdline = read_text(entry.path() / "cmdline");
    if (cmdline.find(std::string{"fleet-worker"} + '\0') != std::string::npos &&
        cmdline.find(root.string()) != std::string::npos) {
      pids.push_back(static_cast<pid_t>(std::stol(name)));
    }
  }
  return pids;
}

// kCliShape as a Child::spawn environment.
std::vector<std::string> cli_shape_env() {
  std::vector<std::string> env;
  const std::string shape{kCliShape};
  for (std::size_t at = 0; at < shape.size();) {
    const std::size_t end = shape.find(' ', at);
    env.push_back(shape.substr(at, end - at));
    at = end + 1;
  }
  return env;
}

// Waits up to 60 s for `count` fleet workers under `root`.
bool await_fleet_workers(const fs::path& root, std::size_t count) {
  const std::int64_t deadline = proc::monotonic_ms() + 60'000;
  while (fleet_workers_under(root).size() < count && proc::monotonic_ms() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
  }
  return fleet_workers_under(root).size() == count;
}

// SIGKILL an orchestrator mid-grid: its workers, one of them stalled on a
// claimed cell, die with it instead of draining the queue on their own.
TEST(FleetCliFork, WorkersDieWithTheirOrchestrator) {
  TempDir tmp;
  std::vector<std::string> env = cli_shape_env();
  env.insert(env.end(), {"SDD_CACHE_DIR=" + (tmp.path() / "cache").string(),
                         "SDD_FLEET_WORKERS=2", "SDD_FLEET_LEASE_MS=60000",
                         "SDD_CHILD_FAULT=worker_stall:0"});
  proc::Child orchestrator = proc::Child::spawn(
      {SDD_CLI_PATH, "eval", "--suite", "openllm", "--items", "3"}, env);

  // Mid-grid: both workers run and one sits on its claimed cell.
  ASSERT_TRUE(await_fleet_workers(tmp.path(), 2));
  orchestrator.signal(SIGKILL);
  ASSERT_TRUE(orchestrator.wait(5'000).has_value());

  const std::int64_t killed_at = proc::monotonic_ms();
  while (!fleet_workers_under(tmp.path()).empty() &&
         proc::monotonic_ms() < killed_at + 1'000) {
    std::this_thread::sleep_for(std::chrono::milliseconds{10});
  }
  const std::vector<pid_t> survivors = fleet_workers_under(tmp.path());
  for (const pid_t pid : survivors) ::kill(pid, SIGKILL);
  EXPECT_TRUE(survivors.empty())
      << survivors.size() << " fleet-worker(s) outlived the orchestrator";
}

// The orchestrator's binary is deleted mid-grid, as a rebuild replaces it:
// the worker that the lease sweep kills and respawns still runs, because
// workers exec the orchestrator's own image rather than the path it was
// started from, and the grid finishes with the serial digest.
TEST(FleetCliFork, RespawnRunsTheOrchestratorsImageAfterItsFileIsGone) {
  TempDir tmp;
  const fs::path cli = tmp.path() / "sdd_cli";
  fs::copy_file(SDD_CLI_PATH, cli);
  std::vector<std::string> env = cli_shape_env();
  env.insert(env.end(), {"SDD_CACHE_DIR=" + (tmp.path() / "fleet").string(),
                         "SDD_FLEET_WORKERS=1", "SDD_FLEET_LEASE_MS=1500",
                         "SDD_CHILD_FAULT=worker_stall:0"});
  proc::Child orchestrator = proc::Child::spawn(
      {cli.string(), "eval", "--suite", "openllm", "--items", "3", "--out",
       (tmp.path() / "fleet.txt").string()},
      env);
  // The first worker stalls on its first claim; its lease expires later.
  ASSERT_TRUE(await_fleet_workers(tmp.path(), 1));
  fs::remove(cli);
  const auto status = orchestrator.wait(120'000);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->exit_code, 0);

  ASSERT_EQ(std::system((kCliShape + std::string{"SDD_CACHE_DIR="} +
                         (tmp.path() / "serial").string() + " " + SDD_CLI_PATH +
                         " eval --suite openllm --items 3 --out " +
                         (tmp.path() / "serial.txt").string() + " > /dev/null")
                            .c_str()),
            0);
  const std::string serial = read_text(tmp.path() / "serial.txt");
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(read_text(tmp.path() / "fleet.txt"), serial);
}
#endif

}  // namespace
}  // namespace sdd::fleet
