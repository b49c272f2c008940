// Fault-injection framework for durability testing.
//
// Production code is instrumented with a handful of hook points (artifact
// commits, training steps). Faults are armed either programmatically
// (tests) or through the SDD_FAULT environment variable (soak scripts):
//
//   SDD_FAULT="io_fail:p=0.05"      every artifact commit fails (throws
//                                   SerializeError) with probability p
//   SDD_FAULT="truncate_write"      artifact commits tear: half the bytes
//                                   land at the final path, no rename
//   SDD_FAULT="crash_at_step:N"     die at the Nth training step (process-
//                                   global counter across all loops)
//   SDD_FAULT="crash_at_io:N"       die during the Nth artifact commit,
//                                   after the temp file is durable but
//                                   before the rename
//   SDD_FAULT="hang_at_step:N"      stall the Nth training step: block until
//                                   the supervisor watchdog cancels the stage
//                                   (then throw Error{timeout}), or until a
//                                   safety cap expires
//   SDD_FAULT="nan_at_step:N"       poison the Nth training loss with NaN
//                                   (own counter, one counted call per step)
//   SDD_FAULT="slow_io:ms=M"        delay every artifact commit by M ms
//   SDD_FAULT="alloc_fail:at=N"     the Nth guarded tensor/KV-cache
//                                   allocation throws Error{resource_
//                                   exhausted} (counter starts at 0)
//   SDD_FAULT="hang_decode:N"       stall the Nth decode step (a prompt
//                                   chunk or a token): block until a
//                                   watchdog cancels the enclosing stage,
//                                   then throw Error{timeout}
//   SDD_FAULT="nan_decode:N"        poison the logits of the Nth decode
//                                   token with NaN (serving NaN-guard path)
//   SDD_FAULT="decode_pass_fail:N"  the Nth batched serving decode pass
//                                   throws Error{resource_exhausted}; every
//                                   slot in that pass fails, others go on
//   SDD_FAULT="worker_kill9:at=N"   a fleet worker raises SIGKILL right after
//                                   claiming its Nth task (0-based). Fires at
//                                   most once per fleet run (O_EXCL marker in
//                                   the fleet dir) so respawned workers make
//                                   progress; the orchestrator must reclaim
//                                   the orphaned lease
//   SDD_FAULT="worker_stall:N"      a fleet worker goes silent after claiming
//                                   its Nth task: no lease renewal, no
//                                   progress, until the orchestrator SIGKILLs
//                                   it (hang_cap safety exit 137 otherwise).
//                                   Once per fleet run, like worker_kill9
//   SDD_FAULT="claim_race"          fleet workers scan tasks in identical
//                                   order and pause between scan and claim,
//                                   forcing many workers to race one claim
//                                   file (exactly one may win)
//   SDD_FAULT="orch_crash:N"        the fleet orchestrator dies after
//                                   observing its Nth completed task; a
//                                   restart must resume from queue state
//   SDD_FAULT="replica_fail:at=N"   router dispatches to the target replica
//                                   (replica_idx, default 0) fail before
//                                   reaching its queue, starting at the Nth
//                                   dispatch to it, for replica_fail_n
//                                   consecutive dispatches (default 6) — long
//                                   enough to trip the circuit breaker; the
//                                   replica then "recovers" and half-open
//                                   probes succeed
//   SDD_FAULT="replica_fail_n:K"    width of the replica_fail failure window
//   SDD_FAULT="replica_idx:I"       which replica index the replica faults
//                                   target (default 0)
//   SDD_FAULT="replica_slow:MS"     transit to the target replica is slow:
//                                   the router delays a request's first
//                                   dispatch to it by MS ms (non-blocking
//                                   not_before gate, never stalls others)
//   SDD_FAULT="breaker_flap"        dispatches to the target replica fail in
//                                   bursts of three (ordinals 3-5, 9-11, ...)
//                                   so its breaker repeatedly opens, probes
//                                   closed, and re-opens
//   SDD_FAULT="replica_kill9:at=N"  a serving replica worker raises SIGKILL
//                                   on receiving its Nth REQUEST frame
//                                   (0-based, per-process counter) — the
//                                   supervisor must fail the in-flight
//                                   requests over and respawn
//   SDD_FAULT="replica_wedge:N"     a replica worker wedges on its Nth
//                                   REQUEST frame: the heartbeat thread goes
//                                   silent and the worker parks until the
//                                   supervisor's lease expires and SIGKILLs
//                                   it (hang_cap safety exit 137 otherwise)
//   SDD_FAULT="ipc_torn_frame"      a replica worker writes half a RESPONSE
//                                   frame then dies (once per process); the
//                                   reader must classify the torn frame as
//                                   retryable worker_lost
//   SDD_FAULT="spec_reject_storm"   corrupt every speculative draft proposal
//                                   (or a fraction with :p=P) so the target
//                                   rejects it; output bytes must not change
//                                   — only the acceptance rate collapses
//   SDD_FAULT="draft_nan:N"         poison the Nth draft-model logits row
//                                   with NaN (own counter); the speculative
//                                   round degrades to a target-only step
//   SDD_FAULT="mode:throw"          crash by throwing FaultCrash instead of
//                                   _Exit(137) (for in-process tests)
//   SDD_FAULT="seed:N"              seed for the io_fail coin
//
// Directives combine with commas: "io_fail:p=0.5,seed:7,mode:throw".
// With nothing armed every hook is a cheap branch on an atomic flag.
// A malformed SDD_FAULT value terminates the process with an actionable
// message at the first instrumented operation — a soak run with a typo'd
// spec must fail loudly, not silently run fault-free.
#pragma once

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>

namespace sdd::fault {

// Thrown by crash points when mode is kThrow; simulates an abrupt process
// death inside a single test process. Deliberately NOT derived from
// SerializeError: recovery code must not swallow it.
class FaultCrash : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class CrashMode { kExit, kThrow };

struct FaultConfig {
  double io_fail_p = 0.0;           // probability an artifact commit fails
  bool truncate_write = false;      // tear artifact commits
  std::int64_t crash_at_step = -1;  // die at this training step (-1 = never)
  std::int64_t crash_at_io = -1;    // die at this artifact commit (-1 = never)
  std::int64_t hang_at_step = -1;   // stall at this training step (-1 = never)
  std::int64_t nan_at_step = -1;    // poison this training loss (-1 = never)
  std::int64_t slow_io_ms = 0;      // per-commit delay in milliseconds
  std::int64_t alloc_fail_at = -1;  // fail this guarded allocation (-1 = never)
  std::int64_t hang_decode = -1;    // stall at this decode token (-1 = never)
  std::int64_t nan_decode = -1;     // poison this decode token's logits
  std::int64_t decode_pass_fail = -1;  // fail this batched decode pass
  std::int64_t worker_kill9_at = -1;  // SIGKILL self at this fleet claim
  std::int64_t worker_stall_at = -1;  // go lease-silent at this fleet claim
  bool claim_race = false;            // force fleet claim contention
  std::int64_t orch_crash_at = -1;  // orchestrator dies at Nth completion
  std::int64_t replica_fault_index = 0;  // replica the router faults target
  std::int64_t replica_fail_at = -1;  // fail target dispatches from this one
  std::int64_t replica_fail_count = 6;   // width of the failure window
  std::int64_t replica_slow_ms = 0;   // transit delay to the target replica
  bool breaker_flap = false;          // fail target dispatches in bursts of 3
  std::int64_t replica_kill9_at = -1;  // SIGKILL self at this REQUEST frame
  std::int64_t replica_wedge_at = -1;  // wedge (heartbeats stop) at this frame
  bool ipc_torn_frame = false;         // tear one RESPONSE frame, then die
  double spec_reject_p = 0.0;         // probability a draft proposal is corrupted
  std::int64_t draft_nan = -1;        // poison this draft logits row (-1 = never)
  std::int64_t hang_cap_ms = 60'000;  // safety cap for an unwatched hang
  CrashMode mode = CrashMode::kExit;
  std::uint64_t seed = 0x5DDFA017ULL;

  bool any() const {
    return io_fail_p > 0.0 || truncate_write || crash_at_step >= 0 ||
           crash_at_io >= 0 || hang_at_step >= 0 || nan_at_step >= 0 ||
           slow_io_ms > 0 || alloc_fail_at >= 0 || hang_decode >= 0 ||
           nan_decode >= 0 || decode_pass_fail >= 0 || worker_kill9_at >= 0 || worker_stall_at >= 0 ||
           claim_race || orch_crash_at >= 0 || replica_fail_at >= 0 ||
           replica_slow_ms > 0 || breaker_flap || replica_kill9_at >= 0 ||
           replica_wedge_at >= 0 || ipc_torn_frame || spec_reject_p > 0.0 ||
           draft_nan >= 0;
  }
};

// Parses an SDD_FAULT-style spec; throws std::invalid_argument on malformed
// directives. Exposed for tests.
FaultConfig parse_fault_spec(const std::string& spec);

// Arm faults programmatically (overrides any SDD_FAULT value) and reset all
// event counters. Tests should pair this with reset().
void configure(const FaultConfig& config);

// Disarm all faults and reset counters.
void reset();

// True when any fault is armed (after lazy SDD_FAULT initialization).
bool enabled();

// ---- hook points ----------------------------------------------------------

// Called by training loops once per completed optimizer step, after any
// checkpoint write for that step. Handles crash_at_step and hang_at_step
// (the hang parks in supervisor::wait_for_cancellation and throws
// Error{timeout} when the watchdog fires or the safety cap expires).
void on_train_step();

// Called by training loops on every computed loss value, before it is used.
// Returns NaN on the armed nan_at_step call (its own counter, incremented
// every call), the input unchanged otherwise.
float poison_loss(float loss);

// Called at the start of an artifact commit. Returns true when the commit
// must fail; the caller throws SerializeError.
bool should_fail_io(const std::filesystem::path& path);

// Returns true when the caller must simulate a torn, non-atomic write.
bool should_truncate_write(const std::filesystem::path& path);

// Called mid-commit, after the temp file is durable but before the rename.
// Handles crash_at_io.
void on_io_commit(const std::filesystem::path& path);

// Called at the start of an artifact commit; sleeps slow_io_ms when armed.
void io_delay(const std::filesystem::path& path);

// Called by guarded allocation sites (Tensor construction, decode KV-cache
// slots) with the requested byte count. Throws Error{resource_exhausted} on
// the armed alloc_fail_at call (its own counter, one count per call).
void on_alloc(std::size_t bytes);

// Called once per DecodeSession step (a prompt chunk or a decode token), so
// generate, generative eval and every serving slot count. Handles hang_decode exactly like on_train_step handles hang_at_step: the
// hang parks in supervisor::wait_for_cancellation and throws Error{timeout}
// when a watchdog fires or the safety cap expires.
void on_decode_token();

// Called once per decode token on the freshly computed logits. Returns true
// on the armed nan_decode call (its own counter); the caller poisons its
// logits with NaN so the serving NaN guard can be exercised end to end.
bool should_poison_logits();

// Called by the serving scheduler before each batched decode pass (its own
// counter). Throws Error{resource_exhausted} on the armed decode_pass_fail
// call, so the pass's failure semantics can be exercised end to end.
void on_decode_pass();

// Called by a fleet worker immediately after it wins a claim, with the fleet
// run directory (per-process claim counter). worker_kill9 raises SIGKILL —
// the truly unhandleable death — and worker_stall parks silently (no lease
// renewal) until the orchestrator kills the process or hang_cap_ms expires
// (then _Exit(137)). Both fire at most once per fleet run: the first worker
// to reach its Nth claim wins an O_EXCL marker file under `fleet_dir`, so
// respawned workers with the same SDD_FAULT environment still make progress.
// Under mode:throw, worker_kill9 throws FaultCrash instead (in-process tests).
void on_fleet_claim(const std::filesystem::path& fleet_dir);

// True when claim_race is armed: the work queue scans tasks in identical
// order across workers and widens the scan-to-claim window so concurrent
// workers contend for the same claim file.
bool claim_race_armed();

// Called by the fleet orchestrator each time it observes a newly completed
// task (per-process counter). Handles orch_crash_at.
void on_fleet_completion();

// Called by the variant router just before submitting to replica `index`.
// Returns true when the dispatch must be treated as a replica failure
// (replica_fail window or breaker_flap burst on the target replica); the
// router records a breaker failure and fails the request over. The dispatch
// ordinal counter only advances for the target replica while one of the two
// directives is armed.
bool should_fail_replica(std::int64_t index);

// Transit delay for a router dispatch to replica `index`: replica_slow_ms
// for the target replica, 0 otherwise. Stateless; the router applies it as
// a non-blocking not_before gate (one delay per request).
std::int64_t replica_dispatch_delay_ms(std::int64_t index);

// Called by a cross-process replica worker once per REQUEST frame it receives
// (per-process counter). replica_kill9 raises SIGKILL on the armed frame —
// the parent supervisor observes a reaped pid and torn stream. replica_wedge
// sets the wedged flag (the worker's heartbeat thread checks replica_wedged()
// and stops beating) and parks the request loop until the supervisor's lease
// expires and it is SIGKILLed, with a hang_cap_ms safety exit 137. Under
// mode:throw both throw FaultCrash instead (in-process tests).
void on_replica_request();

// True once replica_wedge has fired: the worker's heartbeat thread must go
// silent so the supervisor's liveness lease — not the request path — detects
// the wedge.
bool replica_wedged();

// True exactly once per process when ipc_torn_frame is armed: the replica
// worker writes a deliberately torn RESPONSE frame and dies, so the parent
// exercises the torn-frame → worker_lost classification end to end.
bool should_tear_frame();

// Called by the speculative decoder on every draft proposal. With
// spec_reject_storm armed, returns a corrupted token (shifted by one, mod
// `vocab`) with probability spec_reject_p so the target rejects the draft;
// returns `token` unchanged otherwise. Corruption must never change output
// bytes — only the acceptance telemetry.
std::int32_t corrupt_draft_token(std::int32_t token, std::int32_t vocab);

// Called by the speculative decoder on every freshly computed draft-model
// logits row (own counter). Returns true on the armed draft_nan call; the
// caller poisons the draft logits and the round degrades to a target-only
// step instead of failing the request.
bool should_poison_draft_logits();

}  // namespace sdd::fault
