// Fault-injection layer: the firing semantics the soak digests depend on
// (shared per-process ordinals, once-only firing, the seeded RNG draws) and
// how SDD_FAULT is read from the environment.
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDD_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define SDD_TSAN 1
#endif

namespace sdd {
namespace {

namespace fs = std::filesystem;

// A valid directive for `row`, written the way the soak scripts write it.
std::string example(const fault::Row& row) {
  const std::string name = row.name;
  switch (row.kind) {
    case fault::ArgKind::kNone: return name;
    case fault::ArgKind::kOrdinal: return name + ":at=3";
    case fault::ArgKind::kProb: return name + ":p=0.25";
    case fault::ArgKind::kMs: return name + ":ms=5";
    case fault::ArgKind::kCount: return name + ":4";
    case fault::ArgKind::kIndex: return name + ":1";
    case fault::ArgKind::kMode: return name + ":throw";
    case fault::ArgKind::kSeed: return name + ":7";
  }
  return name;
}

// Armed faults must never leak across tests; the hooks log every firing.
class FaultSemantics : public ::testing::Test {
 protected:
  void TearDown() override { fault::reset(); }
  const ScopedLogLevel quiet_{LogLevel::kOff};
};

TEST_F(FaultSemantics, CrashAndHangAtStepShareOneTrainStepCounter) {
  fault::configure("crash_at_step:2,hang_at_step:1,hang_cap:1,mode:throw");
  // The loss counter is separate: poisoning checks never move the steps.
  EXPECT_FALSE(std::isnan(fault::poison_loss(1.0F)));
  EXPECT_NO_THROW(fault::on_train_step());  // step 0
  EXPECT_FALSE(std::isnan(fault::poison_loss(1.0F)));
  try {
    fault::on_train_step();  // step 1: the hang expires unwatched
    ADD_FAILURE() << "hang_at_step:1 did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTimeout);
  }
  EXPECT_THROW(fault::on_train_step(), fault::FaultCrash);  // step 2
  EXPECT_NO_THROW(fault::on_train_step());                  // step 3
}

TEST_F(FaultSemantics, NanAtStepCountsLossChecksOnly) {
  fault::configure("nan_at_step:1");
  fault::on_train_step();
  EXPECT_FALSE(std::isnan(fault::poison_loss(2.0F)));  // check 0
  fault::on_train_step();
  EXPECT_TRUE(std::isnan(fault::poison_loss(2.0F)));   // check 1
  EXPECT_FALSE(std::isnan(fault::poison_loss(2.0F)));  // check 2
}

TEST_F(FaultSemantics, ConfigureRestartsEveryCounter) {
  fault::configure("crash_at_step:1,mode:throw");
  fault::on_train_step();  // step 0
  fault::configure("crash_at_step:1,mode:throw");
  fault::on_train_step();  // step 0 again
  EXPECT_THROW(fault::on_train_step(), fault::FaultCrash);
}

TEST_F(FaultSemantics, Kill9AndStallShareOneFleetClaimCounterAndFireOncePerRun) {
  const fs::path dir = fs::temp_directory_path() /
                       ("sdd_fault_claims_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  fault::configure("worker_kill9:at=1,worker_stall:0,hang_cap:1,mode:throw");
  // Claim 0 stalls (the 1 ms cap expires unkilled), claim 1 is killed.
  EXPECT_THROW(fault::on_fleet_claim(dir), fault::FaultCrash);
  EXPECT_THROW(fault::on_fleet_claim(dir), fault::FaultCrash);
  EXPECT_NO_THROW(fault::on_fleet_claim(dir));
  EXPECT_TRUE(fs::exists(dir / ".fault_worker_kill9"));
  EXPECT_TRUE(fs::exists(dir / ".fault_worker_stall"));
  // A respawned worker restarts its claim count but finds both markers.
  fault::configure("worker_kill9:at=1,worker_stall:0,hang_cap:1,mode:throw");
  EXPECT_NO_THROW(fault::on_fleet_claim(dir));
  EXPECT_NO_THROW(fault::on_fleet_claim(dir));
  fs::remove_all(dir);
}

TEST_F(FaultSemantics, Kill9AndWedgeShareOneRequestFrameCounter) {
  fault::configure("replica_kill9:at=1,replica_wedge:0,hang_cap:1,mode:throw");
  EXPECT_FALSE(fault::replica_wedged());
  EXPECT_THROW(fault::on_replica_request(), fault::FaultCrash);  // frame 0
  EXPECT_TRUE(fault::replica_wedged());
  EXPECT_THROW(fault::on_replica_request(), fault::FaultCrash);  // frame 1
  EXPECT_NO_THROW(fault::on_replica_request());                  // frame 2
  fault::reset();
  EXPECT_FALSE(fault::replica_wedged());
}

TEST_F(FaultSemantics, BreakerFlapOrdinalAdvancesOnlyForTheTarget) {
  fault::configure("breaker_flap,replica_idx:1");
  for (int i = 0; i < 12; ++i) {
    EXPECT_FALSE(fault::should_fail_replica(0));
    EXPECT_FALSE(fault::should_fail_replica(2));
    EXPECT_EQ(fault::should_fail_replica(1), (i / 3) % 2 == 1) << "ordinal " << i;
  }
}

TEST_F(FaultSemantics, DraftNanHasItsOwnCounter) {
  fault::configure("draft_nan:2,nan_decode:1");
  EXPECT_FALSE(fault::should_poison_logits());        // decode logits 0
  EXPECT_FALSE(fault::should_poison_draft_logits());  // draft row 0
  EXPECT_FALSE(fault::should_poison_draft_logits());  // draft row 1
  EXPECT_TRUE(fault::should_poison_logits());         // decode logits 1
  EXPECT_TRUE(fault::should_poison_draft_logits());   // draft row 2
  EXPECT_FALSE(fault::should_poison_draft_logits());  // draft row 3
  EXPECT_FALSE(fault::should_poison_logits());        // decode logits 2
}

TEST_F(FaultSemantics, DecodeHooksCountTheirOwnEvents) {
  fault::configure("alloc_fail:at=2,decode_pass_fail:1,hang_decode:1,hang_cap:1");
  fault::on_alloc(8);
  fault::on_decode_pass();
  fault::on_decode_token();
  fault::on_alloc(8);
  try {
    fault::on_alloc(8);  // allocation 2
    ADD_FAILURE() << "alloc_fail:at=2 did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResourceExhausted);
  }
  try {
    fault::on_decode_pass();  // pass 1
    ADD_FAILURE() << "decode_pass_fail:1 did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kResourceExhausted);
  }
  try {
    fault::on_decode_token();  // step 1: the hang expires unwatched
    ADD_FAILURE() << "hang_decode:1 did not fire";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kTimeout);
  }
  EXPECT_NO_THROW(fault::on_alloc(8));
  EXPECT_NO_THROW(fault::on_decode_pass());
  EXPECT_NO_THROW(fault::on_decode_token());
}

TEST_F(FaultSemantics, TornFrameFiresOncePerProcess) {
  fault::configure("ipc_torn_frame");
  EXPECT_TRUE(fault::should_tear_frame());
  EXPECT_FALSE(fault::should_tear_frame());
  EXPECT_FALSE(fault::should_tear_frame());
}

TEST_F(FaultSemantics, IoFailAndRejectStormDrawFromOneSeededRng) {
  fault::configure("io_fail:p=0.5,spec_reject_storm:p=0.5,seed:7");
  Rng coin{7};
  for (int i = 0; i < 64; ++i) {
    if (i % 3 == 0) {
      EXPECT_EQ(fault::should_fail_io("artifact.bin"), coin.bernoulli(0.5));
    } else {
      EXPECT_EQ(fault::corrupt_draft_token(4, 10) != 4, coin.bernoulli(0.5));
    }
    // A one-token vocabulary cannot be corrupted and draws nothing.
    EXPECT_EQ(fault::corrupt_draft_token(0, 1), 0);
  }
}

TEST_F(FaultSemantics, FullRejectStormMakesNoDraw) {
  fault::configure("io_fail:p=0.5,spec_reject_storm,seed:11");
  Rng coin{11};
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(fault::corrupt_draft_token(9, 10), 0);
    EXPECT_EQ(fault::should_fail_io("artifact.bin"), coin.bernoulli(0.5));
  }
}

// ---- the directive table ----------------------------------------------------

TEST(FaultTable, EveryRowParsesItsExample) {
  for (std::size_t i = 0; i < fault::kRows.size(); ++i) {
    const auto d = static_cast<fault::Directive>(i);
    const fault::Spec spec = fault::parse_fault_spec(example(fault::kRows[i]));
    const bool tunes_only = fault::row(d).kind == fault::ArgKind::kCount ||
                            fault::row(d).kind == fault::ArgKind::kIndex ||
                            fault::row(d).kind == fault::ArgKind::kMode ||
                            fault::row(d).kind == fault::ArgKind::kSeed;
    EXPECT_EQ(spec.armed(d), !tunes_only) << fault::kRows[i].name;
    EXPECT_EQ(spec.armed(), !tunes_only) << fault::kRows[i].name;
  }
}

// docs/robustness.md keeps the reader's copy of the table: one
// "| `usage` | doc |" line per row.
TEST(FaultTable, RobustnessDocListsEveryRow) {
  std::ifstream in{std::string{SDD_SOURCE_DIR} + "/docs/robustness.md"};
  ASSERT_TRUE(in.good());
  std::stringstream doc;
  doc << in.rdbuf();
  for (const fault::Row& row : fault::kRows) {
    const std::string line =
        "| `" + fault::usage(row) + "` | " + row.doc + " |";
    EXPECT_NE(doc.str().find(line), std::string::npos) << "missing: " << line;
  }
  EXPECT_NE(fault::directive_help().find("hang_cap:K"), std::string::npos);
}

// Seeded mutation fuzz: byte flips, truncation, duplication and splicing of
// every row's example. Each mutant parses or throws std::invalid_argument;
// any other exception fails the test.
TEST(FaultTable, MutatedSpecsParseOrThrowInvalidArgument) {
  std::vector<std::string> corpus;
  std::string all;
  for (const fault::Row& row : fault::kRows) {
    corpus.push_back(example(row));
    all += (all.empty() ? "" : ",") + corpus.back();
  }
  corpus.push_back(all);
  Rng rng{0xF022};
  std::int64_t parsed = 0;
  for (int i = 0; i < 20'000; ++i) {
    std::string spec = corpus[rng.index(corpus.size())];
    const std::int64_t mutations = rng.uniform_int(1, 3);
    for (std::int64_t m = 0; m < mutations && !spec.empty(); ++m) {
      const std::size_t at = rng.index(spec.size());
      switch (rng.uniform_int(0, 3)) {
        case 0:  // byte flip
          spec[at] = static_cast<char>(spec[at] ^ (1 << rng.uniform_int(0, 7)));
          break;
        case 1:  // truncation
          spec.resize(at);
          break;
        case 2:  // duplication
          spec.insert(at, spec.substr(at, rng.index(spec.size() - at) + 1));
          break;
        default: {  // splice with another corpus entry
          const std::string& other = corpus[rng.index(corpus.size())];
          spec = spec.substr(0, at) + other.substr(rng.index(other.size()));
        }
      }
    }
    try {
      fault::parse_fault_spec(spec);
      ++parsed;
    } catch (const std::invalid_argument&) {
    }
  }
  // The mutants cover both outcomes, not only the rejection path.
  EXPECT_GT(parsed, 1000);
  EXPECT_LT(parsed, 19'000);
}

#if !defined(SDD_TSAN)
// ---- SDD_FAULT in a fresh process (compiled out under TSan) ----------------

// The environment is read lazily at the first hook; a programmatic reset()
// before that hook must win, or a soak could not keep its setup fault-free.
TEST(FaultEnvFork, ResetBeforeTheFirstHookKeepsSddFaultDisarmed) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("SDD_FAULT", "crash_at_step:0", 1);
        fault::reset();
        fault::on_train_step();
        std::exit(fault::enabled() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(FaultEnvFork, SddFaultArmsAtTheFirstHook) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("SDD_FAULT", "crash_at_step:0", 1);
        fault::on_train_step();
        std::exit(0);
      },
      ::testing::ExitedWithCode(137), "");
}

TEST(FaultEnvFork, MalformedSddFaultExits64AtTheFirstHook) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("SDD_FAULT", "warp_core_breach", 1);
        fault::on_train_step();
        std::exit(0);
      },
      ::testing::ExitedWithCode(64), "warp_core_breach");
}
#endif  // !SDD_TSAN

}  // namespace
}  // namespace sdd
