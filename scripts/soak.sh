#!/usr/bin/env bash
# Every chaos soak, run from one case table.
#
# Usage: scripts/soak.sh <suite...|all> [release-build] [tsan-build] [log-dir]
#
#   suite          fault fleet serve router spec replica; all = every suite
#   release-build  tree for the release rows (default: build)
#   tsan-build     tree for the tsan rows, the thread-level suites meant to
#                  run under ThreadSanitizer (default: the release tree)
#   log-dir        keep one log per case and every fault/fleet digest there
#                  (default: a scratch dir removed at exit)
#
# Cases run <tree>/examples/soak <suite> (examples/soak.cpp lists what each
# suite asserts); the fault suite runs `soak pipeline`, the fleet suite
# `sdd_cli eval`. Suite settings are defaults: a variable already set in the
# environment wins (CI shrinks SDD_CORPUS_DOCS and SDD_SOAK_ITEMS).
#
# Every run of a case leads its own session (setsid). A process still in that
# session once the run has exited fails the case, which names its pid and
# command; the script then kills it. Per-group checks would miss these:
# proc::Child makes every fleet and replica worker lead its own group.
#
# Exit status: 0 when every case passed, 1 when one failed, 2 on bad usage.
set -uo pipefail

# One row per case: suite, case, tree, kind, fault variable, fault spec (- for
# none), then extra VAR=VALUE settings for the case. Kinds:
#   invariant    the driver checks its own invariants; exit 0 passes
#   fleet        exit 0 and the digest cmp-equal to the suite's reference
#   restart:RC   the faulted run exits RC; a clean rerun on the same cache
#                (fleet: queue dir) must then reproduce the reference digest
# The fault and fleet suites first run a clean, serial reference.
CASES='
# fault: step ordinals count pretrain (40 steps) then SFT (12 steps) on one
# counter, so step 48 is SFT step 8, after the SFT checkpoint at step 5.
# Crashes before the first checkpoint, between checkpoints, and in SFT:
fault    crash_pretrain_early  release  restart:137  SDD_FAULT  crash_at_step:3
fault    crash_pretrain_mid    release  restart:137  SDD_FAULT  crash_at_step:17
fault    crash_pretrain_late   release  restart:137  SDD_FAULT  crash_at_step:39
fault    crash_sft             release  restart:137  SDD_FAULT  crash_at_step:48
# Crash at the worst torn point of a commit: tmp file durable, no rename yet.
fault    crash_commit_first    release  restart:137  SDD_FAULT  crash_at_io:1
fault    crash_commit_later    release  restart:137  SDD_FAULT  crash_at_io:4
# Torn writes land in the final path: the checksum footer flags them, the
# rerun quarantines and recomputes.
fault    torn_writes           release  restart:0    SDD_FAULT  truncate_write
# Every store fails: caching is best effort, the rerun recomputes everything.
fault    store_blackout        release  restart:0    SDD_FAULT  io_fail:p=1
# Each store fails with probability 0.05; results still converge.
fault    store_flaky           release  restart:0    SDD_FAULT  io_fail:p=0.05
# A silent stall: the 1 s stage watchdog cancels the stage and the supervisor
# retries it in-process from the last checkpoint (pretrain step 9 is past the
# step-7 checkpoint; step 44 is SFT step 4, before the SFT checkpoint).
fault    hang_pretrain         release  restart:0    SDD_FAULT  hang_at_step:9   SDD_STAGE_HANG_SEC=1
fault    hang_sft              release  restart:0    SDD_FAULT  hang_at_step:44  SDD_STAGE_HANG_SEC=1
# A NaN loss: the guard rolls back to its in-memory snapshot and replays (the
# one-shot fault does not re-fire) to bit-identical weights, no restart.
fault    nan_pretrain          release  restart:0    SDD_FAULT  nan_at_step:11
fault    nan_sft               release  restart:0    SDD_FAULT  nan_at_step:45
# Every artifact write sleeps 5 ms: latency only, with watchdogs off.
fault    slow_io               release  restart:0    SDD_FAULT  slow_io:ms=5

# fleet: the eval grid on 2 worker processes, chaos armed in workers only.
# No faults: the fleet path alone matches the serial digest.
fleet    clean                 release  fleet        SDD_CHILD_FAULT  -
# kill -9 at the first claim: lease expiry, orphan reclaim, requeue, respawn.
fleet    worker_kill9          release  fleet        SDD_CHILD_FAULT  worker_kill9:at=0
# A hang at the first claim with no sibling to rescue the task: the stale
# lease sweep must SIGKILL and respawn the worker.
fleet    worker_stall          release  fleet        SDD_CHILD_FAULT  worker_stall:0  SDD_FLEET_WORKERS=1 SDD_FLEET_LEASE_MS=1500
# Every worker piles onto one task file: O_EXCL elects exactly one winner.
fleet    claim_race            release  fleet        SDD_CHILD_FAULT  claim_race
# Flaky commits in workers burn retry budget and still converge.
fleet    flaky_store           release  fleet        SDD_CHILD_FAULT  io_fail:p=0.3  SDD_FLEET_TASK_RETRY=8
# Every process-level injector at once.
fleet    combined              release  fleet        SDD_CHILD_FAULT  worker_kill9:at=0,worker_stall:2,claim_race  SDD_FLEET_LEASE_MS=1500
# The orchestrator exits 137 at its 2nd validated completion; the restart on
# the same queue dir must reuse completed cells (reused>0).
fleet    orch_restart          release  restart:137  SDD_FAULT  orch_crash:2

# serve: 4 clients at 4x queue capacity. Overload alone sheds, rejects and
# degrades.
serve    clean                 tsan     invariant    SDD_FAULT  -
# Allocation failure loading the model from the store: serve from memory.
serve    alloc_fail_load       tsan     invariant    SDD_FAULT  alloc_fail:at=3
# Allocation failure admitting a decode slot: the batch shrinks, no OOM.
serve    alloc_fail_serve      tsan     invariant    SDD_FAULT  alloc_fail:at=2  SDD_SERVE_SOAK_STORE=0
# A decode hangs: the watchdog recycles the worker, the hung request times
# out (typed), the other slots complete bit-identically.
serve    hang_decode           tsan     invariant    SDD_FAULT  hang_decode:5  SDD_SERVE_HANG_MS=200
# NaN logits: exactly that request fails with numeric_divergence.
serve    nan_decode            tsan     invariant    SDD_FAULT  nan_decode:10
# The 4th batched decode pass throws: exactly its own slots fail.
serve    decode_pass_fail      tsan     invariant    SDD_FAULT  decode_pass_fail:4
# Slow artifact I/O on the model load path: latency only.
serve    slow_io               tsan     invariant    SDD_FAULT  slow_io:ms=50
# Everything at once, aimed at the serving layer.
serve    combined              tsan     invariant    SDD_FAULT  hang_decode:20,nan_decode:40,alloc_fail:at=6  SDD_SERVE_HANG_MS=200 SDD_SERVE_SOAK_STORE=0

# router: full/p1/p2 in-process; chaos targets replica 0 (full). No faults:
# quality routing, deadline degradation, backpressure failover.
router   clean                 tsan     invariant    SDD_FAULT  -
# full dies for six dispatches: breaker opens, failover, probed back healthy.
router   replica_fail          tsan     invariant    SDD_FAULT  replica_fail:at=2
# Slow transit to full: latency only.
router   replica_slow          tsan     invariant    SDD_FAULT  replica_slow:30
# full fails in bursts of three: the breaker opens at least once.
router   breaker_flap          tsan     invariant    SDD_FAULT  breaker_flap
# Dead, then slow.
router   combined              tsan     invariant    SDD_FAULT  replica_fail:at=4,replica_slow:10

# spec: speculative output equals plain greedy decode. Clean self-drafting
# accepts every proposal.
spec     clean                 tsan     invariant    SDD_FAULT  -
# Every proposal corrupted: self-draft acceptance drops to exactly 0.
spec     reject_storm          tsan     invariant    SDD_FAULT  spec_reject_storm
# Half corrupted: partial acceptance and KV rollback every round.
spec     reject_half           tsan     invariant    SDD_FAULT  spec_reject_storm:p=0.5
# NaN draft logits: rounds degrade to target-only steps, nothing fails.
spec     draft_nan             tsan     invariant    SDD_FAULT  draft_nan:3
spec     combined              tsan     invariant    SDD_FAULT  spec_reject_storm:p=0.7,draft_nan:5

# replica: every variant in a worker process; the router hands the chaos to
# the first worker of variant 0 (full) only. No faults: outputs equal the
# in-process decode.
replica  clean                 release  invariant    SDD_CHILD_FAULT  -
# _Exit(137) on the 2nd request: in-flight requests fail over, the breaker
# opens, the worker respawns and is probed back healthy.
replica  kill9                 release  invariant    SDD_CHILD_FAULT  replica_kill9:at=2
# Heartbeats stop after 2 requests: the 300 ms lease expires, SIGKILL, respawn.
replica  wedge                 release  invariant    SDD_CHILD_FAULT  replica_wedge:2  SDD_REPLICA_LEASE_MS=300
# A torn half-frame, then death: worker_lost, never garbage tokens.
replica  torn_frame            release  invariant    SDD_CHILD_FAULT  ipc_torn_frame
# Rolling upgrade of full onto a new checkpoint mid-run.
replica  swap                  release  invariant    SDD_CHILD_FAULT  -  SDD_REPLICA_SOAK_SWAP=1
'

SUITES=()
while (($#)); do
  case "$1" in
    all) SUITES+=(fault fleet serve router spec replica) ;;
    fault | fleet | serve | router | spec | replica) SUITES+=("$1") ;;
    *) break ;;
  esac
  shift
done
if ((${#SUITES[@]} == 0)); then
  echo "usage: scripts/soak.sh <suite...|all> [release-build] [tsan-build] [log-dir]" >&2
  exit 2
fi
RELEASE="${1:-build}"
TSAN="${2:-${RELEASE}}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/sdd_soak.XXXXXX")"
trap 'rm -rf "${WORK}"' EXIT
LOGS="${3:-${WORK}/logs}"
mkdir -p "${LOGS}"

# Sets DEFAULTS (suite settings, each unless already in the environment),
# STATE (where case dir $3 keeps its cache, queue and digest) and CMD (the
# program in tree $2) for suite $1.
suite_setup() {
  local suite="$1" tree="$2" dir="$3" kv var
  local -a defaults=(SDD_LOG_LEVEL=warn)
  local -a shape=(SDD_DMODEL=32 SDD_HEADS=2 SDD_LAYERS=4 SDD_DFF=64
    SDD_MAX_SEQ=64 SDD_CORPUS_DOCS=400 SDD_PRETRAIN_STEPS=40
    SDD_PRETRAIN_BATCH=2 SDD_PRETRAIN_SEQ=48)
  local -a queue=(SDD_SERVE_QUEUE_CAP=8 SDD_SERVE_MAX_BATCH=4)
  local -a breaker=(SDD_ROUTE_BREAKER_FAILS=3 SDD_ROUTE_PROBE_MAX=1)
  STATE=()
  CMD=("${tree}/examples/soak" "${suite}")
  case "${suite}" in
    fault)
      # 40 pretrain steps checkpointed every 7, then 12 SFT steps (4 epochs
      # of 6 examples at batch 2) checkpointed every 5.
      defaults+=("${shape[@]}" SDD_SFT_EPOCHS=4 SDD_SFT_MAX_STEPS=20
        SDD_SFT_BATCH=2 SDD_DISTILL_MAX_TOKENS=8 SDD_CKPT_EVERY=7
        SDD_SFT_CKPT_EVERY=5 SDD_SOAK_DATASET_SIZE=6 SDD_SOAK_ITEMS=4)
      STATE=(SDD_CACHE_DIR="${dir}/cache" SDD_SOAK_OUT="${DIGEST}")
      CMD=("${tree}/examples/soak" pipeline) ;;
    fleet)
      # One base model pretrained once into a shared cache; info logging
      # prints the fleet's reused= count.
      defaults=(SDD_LOG_LEVEL=info "${shape[@]}")
      STATE=(SDD_CACHE_DIR="${WORK}/fleet-cache" SDD_FLEET_WORKERS=2
        SDD_FLEET_DIR="${dir}/queue")
      CMD=("${tree}/examples/sdd_cli" eval --suite openllm --items 3
        --out "${DIGEST}") ;;
    # Small queues so the offered load trips shedding, degradation and
    # backpressure failover; a fast breaker and respawn backoff so open ->
    # half-open -> healthy fits in a short soak.
    serve) defaults+=("${queue[@]}" SDD_SERVE_DEGRADE_MAX_TOKENS=4) ;;
    router) defaults+=("${queue[@]}" "${breaker[@]}" SDD_ROUTE_BREAKER_COOLDOWN_MS=100) ;;
    replica) defaults+=("${queue[@]}" "${breaker[@]}" SDD_ROUTE_BREAKER_COOLDOWN_MS=150
      SDD_REPLICA_BACKOFF_MS=50 SDD_REPLICA_BACKOFF_CAP_MS=500) ;;
    spec) defaults+=(SDD_SPEC_K=4) ;;
  esac
  DEFAULTS=()
  for kv in "${defaults[@]}"; do
    var="${kv%%=*}"
    DEFAULTS+=("${var}=${!var:-${kv#*=}}")
  done
}

# One run of suite $1 from tree $2 in case dir $3 with settings $4...,
# appended to $LOG; returns the program's exit status. Processes the run
# left behind are appended to $LEFT.
run() {
  local suite="$1" tree="$2" dir="$3" pid rc=0 left
  shift 3
  suite_setup "${suite}" "${tree}" "${dir}"
  if [[ ! -x "${CMD[0]}" ]]; then
    echo "${CMD[0]} not found; build it first (cmake --build ${tree} --target ${CMD[0]##*/})" >>"${LOG}"
    return 2
  fi
  mkdir -p "${dir}/tmp"
  # A background job of a script leads no process group, so setsid makes
  # the session in place: its id is the job's pid.
  setsid env "${DEFAULTS[@]}" TMPDIR="${dir}/tmp" "${STATE[@]}" "$@" "${CMD[@]}" \
    </dev/null >>"${LOG}" 2>&1 &
  pid=$!
  wait "${pid}" || rc=$?
  left="$(ps -eo pid=,sid=,stat=,args= | awk -v sid="${pid}" \
    '$2 == sid && $3 !~ /^Z/ { $2 = $3 = ""; print }')"
  if [[ -n "${left}" ]]; then
    echo "left running after the run: ${left}" >>"${LOG}"
    LEFT+="${left//$'\n'/; } "
    awk '{ print $1 }' <<<"${left}" | xargs -r kill -KILL 2>/dev/null
  fi
  return "${rc}"
}

FAILED=0
RESULTS=()
check() { # suite case tree kind fault-var spec [VAR=VALUE ...]
  local suite="$1" name="$2" tree="${RELEASE}" kind="$4" fault="$5=${6#-}"
  [[ "$3" == tsan ]] && tree="${TSAN}"
  shift 6
  local dir="${WORK}/${suite}/${name}" ref="${LOGS}/${suite}.reference.digest"
  local rc=0 verdict=ok
  LEFT=""
  LOG="${LOGS}/${suite}.${name}.log"
  DIGEST="${LOGS}/${suite}.${name}.digest"
  echo "== ${suite}/${name} (${fault}${*:+ $*})"
  : >"${LOG}"
  rm -f "${DIGEST}"
  case "${kind}" in
    invariant) run "${suite}" "${tree}" "${dir}" "${fault}" "$@" || verdict="exit $?" ;;
    reference)
      run "${suite}" "${tree}" "${dir}" SDD_FLEET_WORKERS=0 || verdict="exit $?"
      [[ -s "${DIGEST}" ]] || verdict="no reference digest (${verdict})" ;;
    fleet)
      run "${suite}" "${tree}" "${dir}" "${fault}" "$@" || verdict="exit $?"
      [[ "${verdict}" != ok ]] || cmp -s "${ref}" "${DIGEST}" || verdict="digest differs" ;;
    restart:*)
      run "${suite}" "${tree}" "${dir}" "${fault}" "$@" || rc=$?
      if [[ "${rc}" != "${kind#restart:}" ]]; then
        verdict="faulted run exited ${rc}, expected ${kind#restart:}"
      else
        rm -f "${DIGEST}"
        echo "-- clean rerun" >>"${LOG}"
        run "${suite}" "${tree}" "${dir}" "$@" || verdict="clean rerun exited $?"
        [[ "${verdict}" != ok ]] || cmp -s "${ref}" "${DIGEST}" || verdict="digest differs"
        [[ "${verdict}" != ok || "${suite}" != fleet ]] ||
          grep -q "reused=[1-9]" <(sed -n '/^-- clean rerun/,$p' "${LOG}") ||
          verdict="the restart recomputed every cell (expected reused>0)"
      fi ;;
  esac
  [[ "${verdict}" != ok || -z "${LEFT}" ]] || verdict="left running:${LEFT% }"
  if [[ "${verdict}" == ok ]]; then
    RESULTS+=("PASS  ${suite}/${name}")
    return
  fi
  [[ "${verdict}" != "digest differs" ]] || diff "${ref}" "${DIGEST}" >>"${LOG}"
  FAILED=$((FAILED + 1))
  RESULTS+=("FAIL  ${suite}/${name}: ${verdict}")
  echo "   FAILED: ${verdict}; last lines of ${LOG}:"
  tail -n 20 "${LOG}" | sed 's/^/   | /'
}

for suite in "${SUITES[@]}"; do
  if [[ "${suite}" == fault || "${suite}" == fleet ]]; then
    check "${suite}" reference release reference SDD_FAULT -
  fi
  while read -r row rest; do
    # Unquoted: the rest of the row splits into check's arguments.
    [[ "${row}" == "${suite}" ]] && check "${row}" ${rest}
  done <<<"${CASES}"
done

echo
echo "== soak summary"
printf '%s\n' "${RESULTS[@]}"
echo "-- $((${#RESULTS[@]} - FAILED)) passed, ${FAILED} failed"
((FAILED == 0))
