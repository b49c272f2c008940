// Fault-injection framework for durability and chaos testing.
//
// Production code calls a handful of hooks (artifact commits, training and
// decode steps, fleet claims, replica dispatches and frames). A fault spec
// arms some of them. It is a comma-separated list of directives, one per
// row of SDD_FAULT_DIRECTIVES below, e.g. "io_fail:p=0.5,seed:7,mode:throw".
//
// Arguments, by kind:
//   N   ordinal, 0-based, of an event at the row's counter site; "at=N" too
//   P   probability in [0, 1]; "p=P" too; a bare directive means P = 1
//   MS  milliseconds >= 0; "ms=MS" too
//   K   count >= 1
//   I   index >= 0
// A directive named twice keeps its last value. Counters are per process,
// restart at configure(), and count the events at their site while a
// directive on it is armed; directives that share a site share one ordinal
// (crash_at_step and hang_at_step count the same training steps).
//
// Specs are armed three ways:
//   * SDD_FAULT, read at the first hook that runs. A malformed value logs the
//     directive table and exits 64 (EX_USAGE): a soak with a typo'd spec
//     must fail loudly, not run fault-free.
//   * configure(), from tests and from the serve/router/spec soaks, which
//     parse SDD_FAULT themselves (env_spec) and arm it only after setup. Any configure() or
//     reset() means SDD_FAULT is never read lazily afterwards.
//   * SDD_CHILD_FAULT (kChildEnv), which a spawner hands its workers as their
//     SDD_FAULT: the fleet orchestrator to every worker, the cross-process
//     router to the first worker generation of variant replica_idx only.
//
// With nothing armed every hook is one branch on an atomic flag.
// docs/robustness.md keeps the same table for readers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>

namespace sdd::fault {

// How a directive's argument is written (see the grammar above). Count,
// index, mode and seed arguments only tune other directives; they arm
// nothing on their own.
enum class ArgKind : std::uint8_t {
  kNone, kOrdinal, kProb, kMs, kCount, kIndex, kMode, kSeed
};

// The per-process event counter a directive's ordinal refers to.
enum class Site : std::uint8_t {
  kNone,
  kTrainStep,        // completed optimizer steps of train::train_loop
  kLossCheck,        // training losses train::train_loop computed
  kIoCommit,         // artifact commits, mid-commit
  kAlloc,            // guarded tensor / KV-cache allocations
  kDecodeStep,       // DecodeSession steps (a prompt chunk or a token)
  kDecodeLogits,     // served decode-token logits rows
  kDecodePass,       // batched serving decode passes
  kFleetClaim,       // tasks a fleet worker claimed
  kFleetCompletion,  // completions the orchestrator observed
  kReplicaDispatch,  // router dispatches to replica replica_idx
  kReplicaRequest,   // REQUEST frames a replica worker received
  kResponseFrame,    // RESPONSE frames a replica worker wrote
  kDraftLogits,      // draft-model logits rows
  kCount
};

// One row per directive: name (the spec token), argument kind, counter
// site, value when the spec does not name it, and the doc line shown in the
// malformed-spec message. Adding a directive means adding a row and reading
// it in a hook.
#define SDD_FAULT_DIRECTIVES(X)                                                 \
  X(io_fail, kProb, kNone, 0,                                                   \
    "every artifact commit fails (SerializeError) with probability P")          \
  X(truncate_write, kNone, kNone, 0,                                            \
    "artifact commits tear: half the bytes land at the final path, no rename")  \
  X(crash_at_step, kOrdinal, kTrainStep, 0,                                     \
    "die at the Nth training step, counted across pretrain, SFT and KD")        \
  X(crash_at_io, kOrdinal, kIoCommit, 0,                                        \
    "die in the Nth artifact commit, after the temp file is durable and "       \
    "before the rename")                                                        \
  X(hang_at_step, kOrdinal, kTrainStep, 0,                                      \
    "stall the Nth training step (pretrain, SFT or KD) until a watchdog "       \
    "cancels it (then Error{timeout}) or hang_cap expires")                     \
  X(nan_at_step, kOrdinal, kLossCheck, 0,                                       \
    "poison the Nth computed training loss (pretrain, SFT or KD) with NaN")     \
  X(slow_io, kMs, kNone, 0, "delay every artifact commit by MS ms")             \
  X(alloc_fail, kOrdinal, kAlloc, 0,                                            \
    "the Nth guarded tensor or KV-cache allocation throws "                     \
    "Error{resource_exhausted}")                                                \
  X(hang_decode, kOrdinal, kDecodeStep, 0,                                      \
    "stall the Nth decode step (a prompt chunk or a token) until a watchdog "   \
    "cancels it (then Error{timeout}) or hang_cap expires")                     \
  X(nan_decode, kOrdinal, kDecodeLogits, 0,                                     \
    "poison the logits of the Nth served decode token with NaN")                \
  X(decode_pass_fail, kOrdinal, kDecodePass, 0,                                 \
    "the Nth batched serving target pass throws Error{resource_exhausted}; "    \
    "every slot in it fails (draft passes do not count)")                       \
  X(worker_kill9, kOrdinal, kFleetClaim, 0,                                     \
    "a fleet worker raises SIGKILL right after its Nth claim; once per fleet "  \
    "run")                                                                      \
  X(worker_stall, kOrdinal, kFleetClaim, 0,                                     \
    "a fleet worker goes lease-silent after its Nth claim until it is "         \
    "killed (exit 137 at hang_cap); once per fleet run")                        \
  X(claim_race, kNone, kNone, 0,                                                \
    "fleet workers scan tasks in one order and pause before claiming, so "      \
    "they race for one claim file")                                             \
  X(orch_crash, kOrdinal, kFleetCompletion, 0,                                  \
    "the fleet orchestrator dies after observing its Nth completed task")       \
  X(replica_fail, kOrdinal, kReplicaDispatch, 0,                                \
    "router dispatches to replica replica_idx fail from its Nth dispatch on, "  \
    "for replica_fail_n dispatches")                                            \
  X(replica_fail_n, kCount, kNone, 6,                                           \
    "width of the replica_fail window (default 6)")                             \
  X(replica_idx, kIndex, kNone, 0,                                              \
    "the replica the router faults and SDD_CHILD_FAULT target (default 0)")     \
  X(replica_slow, kMs, kNone, 0,                                                \
    "the router delays a request's first dispatch to replica replica_idx by "   \
    "MS ms")                                                                    \
  X(breaker_flap, kNone, kReplicaDispatch, 0,                                   \
    "dispatches to replica replica_idx fail in bursts of three (ordinals 3-5, " \
    "9-11, ...)")                                                               \
  X(replica_kill9, kOrdinal, kReplicaRequest, 0,                                \
    "a replica worker raises SIGKILL on its Nth REQUEST frame")                 \
  X(replica_wedge, kOrdinal, kReplicaRequest, 0,                                \
    "a replica worker stops heartbeating and parks on its Nth REQUEST frame "   \
    "until it is killed (exit 137 at hang_cap)")                                \
  X(ipc_torn_frame, kNone, kResponseFrame, 0,                                   \
    "a replica worker writes half a RESPONSE frame, then dies; once per "       \
    "process")                                                                  \
  X(spec_reject_storm, kProb, kNone, 0,                                         \
    "corrupt each speculative draft proposal with probability P; output "       \
    "bytes must not change")                                                    \
  X(draft_nan, kOrdinal, kDraftLogits, 0,                                       \
    "poison the Nth draft-model logits row with NaN; the round falls back to "  \
    "a target-only step")                                                       \
  X(hang_cap, kCount, kNone, 60'000,                                            \
    "safety cap in ms for a hang, stall or wedge that nothing ends (default "   \
    "60000)")                                                                   \
  X(mode, kMode, kNone, 0,                                                      \
    "crash by _Exit(137) (exit, the default) or by throwing FaultCrash "        \
    "(throw, for in-process tests)")                                            \
  X(seed, kSeed, kNone, 0x5DDFA017,                                             \
    "seed of the RNG that io_fail and spec_reject_storm draw from")

// Enumerators are the spec tokens themselves, so a row names its directive
// once.
enum class Directive : std::uint8_t {
#define SDD_FAULT_ENUMERATOR(name, kind, site, fallback, doc) name,
  SDD_FAULT_DIRECTIVES(SDD_FAULT_ENUMERATOR)
#undef SDD_FAULT_ENUMERATOR
};

struct Row {
  const char* name;
  ArgKind kind;
  Site site;
  std::int64_t fallback;
  const char* doc;
};

inline constexpr std::array kRows{
#define SDD_FAULT_ROW(name, kind, site, fallback, doc) \
  Row{#name, ArgKind::kind, Site::site, fallback, doc},
    SDD_FAULT_DIRECTIVES(SDD_FAULT_ROW)
#undef SDD_FAULT_ROW
};

inline constexpr const Row& row(Directive d) {
  return kRows[static_cast<std::size_t>(d)];
}

// "truncate_write", "crash_at_step:N", "io_fail[:P]", ...: a row's grammar as
// the help text and the docs write it.
std::string usage(const Row& row);

// Every row as "usage  doc", one per line.
std::string directive_help();

// The environment variable a spawner forwards to its workers as SDD_FAULT.
inline constexpr const char* kChildEnv = "SDD_CHILD_FAULT";

enum class CrashMode : std::int64_t { kExit = 0, kThrow = 1 };

// Thrown by crash points when mode is throw; simulates an abrupt process
// death inside a single test process. Deliberately NOT derived from
// SerializeError: recovery code must not swallow it.
class FaultCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A parsed spec: one argument per row.
class Spec {
 public:
  Spec();

  // True when the spec names `d` with an argument that arms it: a flag, an
  // ordinal, a probability or a delay above 0. Count, index, mode and seed
  // rows never arm anything.
  bool armed(Directive d) const;
  // True when any directive is armed.
  bool armed() const;
  // The integer argument (mode: 0 exit, 1 throw), or the row's fallback.
  std::int64_t value(Directive d) const;
  // The probability argument, 0 when the spec does not name `d`.
  double probability(Directive d) const;
  CrashMode mode() const;

 private:
  friend Spec parse_fault_spec(const std::string& spec);

  std::array<bool, kRows.size()> named_{};
  std::array<std::int64_t, kRows.size()> value_{};
  std::array<double, kRows.size()> probability_{};
};

// Parses a spec; throws std::invalid_argument on a malformed directive.
Spec parse_fault_spec(const std::string& spec);

// Parses the spec in environment variable `var` (empty or unset: nothing
// armed). A malformed value logs the directive table and exits 64. Arms
// nothing.
Spec env_spec(const char* var = "SDD_FAULT");

// Arm `spec` and restart every counter. Tests pair this with reset().
void configure(const Spec& spec);
// Parse, then arm; throws std::invalid_argument on a malformed spec.
void configure(const std::string& spec);

// Disarm all faults and restart every counter.
void reset();

// True when any fault is armed (after the lazy SDD_FAULT read).
bool enabled();

// ---- hook points ----------------------------------------------------------

// Called by train::train_loop (pretrain, SFT and KD) once per completed
// optimizer step, after any checkpoint write for that step: crash_at_step,
// hang_at_step.
void on_train_step();

// Called by train::train_loop on every computed training loss before it is
// used: returns NaN on the nan_at_step check, `loss` otherwise.
float poison_loss(float loss);

// Called at the start of an artifact commit: true when the commit must fail
// (io_fail); the caller throws SerializeError.
bool should_fail_io(const std::filesystem::path& path);

// True when the caller must simulate a torn, non-atomic write.
bool should_truncate_write(const std::filesystem::path& path);

// Called mid-commit, after the temp file is durable but before the rename:
// crash_at_io.
void on_io_commit(const std::filesystem::path& path);

// Called at the start of an artifact commit; sleeps slow_io ms.
void io_delay(const std::filesystem::path& path);

// Called by guarded allocation sites (Tensor construction, decode KV-cache
// slots) with the requested byte count: alloc_fail.
void on_alloc(std::size_t bytes);

// Called once per DecodeSession step (a prompt chunk or a decode token), so
// generate, generative eval and every serving slot count: hang_decode.
void on_decode_token();

// Called once per served decode token on its fresh logits: true on the
// nan_decode row; the caller poisons the logits so the serving NaN guard
// runs end to end.
bool should_poison_logits();

// Called by the serving scheduler before each batched decode pass:
// decode_pass_fail.
void on_decode_pass();

// Called by a fleet worker right after it wins a claim, with the fleet run
// directory: worker_kill9, worker_stall. Each fires at most once per fleet
// run: the first worker to reach its Nth claim wins an O_EXCL marker file
// under `fleet_dir`, so respawned workers with the same spec make progress.
void on_fleet_claim(const std::filesystem::path& fleet_dir);

// True when claim_race is armed: the work queue scans tasks in one order
// across workers and widens the scan-to-claim window.
bool claim_race_armed();

// Called by the fleet orchestrator for each newly completed task it
// observes: orch_crash.
void on_fleet_completion();

// Called by the variant router just before submitting to replica `index`:
// true when the dispatch must count as a replica failure (replica_fail,
// breaker_flap); the router records a breaker failure and fails over.
bool should_fail_replica(std::int64_t index);

// Transit delay for a router dispatch to replica `index`: replica_slow for
// replica replica_idx, 0 otherwise. The router applies it as a non-blocking
// not_before gate (one delay per request).
std::int64_t replica_dispatch_delay_ms(std::int64_t index);

// Called by a cross-process replica worker once per REQUEST frame it
// receives: replica_kill9, replica_wedge.
void on_replica_request();

// True once replica_wedge has fired: the worker's heartbeat thread must go
// silent so the supervisor's liveness lease detects the wedge.
bool replica_wedged();

// True on the first RESPONSE frame when ipc_torn_frame is armed: the worker
// writes a torn frame and dies, so the parent classifies it as worker_lost.
bool should_tear_frame();

// Called on every speculative draft proposal: with spec_reject_storm,
// returns the token shifted by one (mod `vocab`) so the target rejects it;
// `token` otherwise. Must never change output bytes.
std::int32_t corrupt_draft_token(std::int32_t token, std::int32_t vocab);

// Called on every freshly computed draft-model logits row: true on the
// draft_nan row; the round degrades to a target-only step.
bool should_poison_draft_logits();

}  // namespace sdd::fault
