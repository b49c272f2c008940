#!/usr/bin/env bash
# Chaos soak for the multi-process fleet orchestrator (ISSUE 6 acceptance
# criterion): run the eval grid through `sdd_cli eval` with worker processes
# being kill -9'd, stalled, and raced against each other, and assert every
# fleet run's suite digest is byte-identical to the serial single-process
# run's. The final scenario crashes the orchestrator itself mid-run and
# asserts the restart resumes from queue state without recomputing
# completed cells.
#
# Usage: scripts/fleet_soak.sh [build-dir]
#
# Faults exercised (see src/util/fault.hpp; armed via SDD_CHILD_FAULT so the
# orchestrator stays fault-free and only workers inherit the injector):
#   worker_kill9:at=N  the worker raises SIGKILL at its Nth task claim, once
#                      per fleet run; the lease must expire, the orphaned
#                      claim be reclaimed, and the task re-run elsewhere
#   worker_stall:N     the worker hangs forever at its Nth claim; with one
#                      worker the orchestrator must SIGKILL it on lease
#                      expiry and respawn (with siblings, leaderless reclaim
#                      may recover the task first — both are wins)
#   claim_race         every claim attempt is pinned to the same scan order
#                      and widened with a sleep so workers pile onto one
#                      task file; O_EXCL must elect exactly one winner
#   io_fail:p=...      workers' artifact commits fail with probability p;
#                      failed tasks burn retry budget and must still finish
#   orch_crash:N       (via SDD_FAULT, parent-side) the orchestrator
#                      _Exit(137)s at its Nth validated completion
set -euo pipefail

source "$(dirname "${BASH_SOURCE[0]}")/soak_lib.sh"

BUILD="${1:-build}"
CLI="${BUILD}/examples/sdd_cli"
soak_require_binary fleet_soak "${CLI}" sdd_cli

soak_workdir sdd_fleet_soak

# Tiny but non-degenerate scale; the base model is pretrained once into the
# shared cache and every scenario evaluates the same weights.
export SDD_LOG_LEVEL="${SDD_LOG_LEVEL:-info}"
export SDD_DMODEL="${SDD_DMODEL:-32}" SDD_HEADS="${SDD_HEADS:-2}"
export SDD_LAYERS="${SDD_LAYERS:-4}" SDD_DFF="${SDD_DFF:-64}"
export SDD_MAX_SEQ="${SDD_MAX_SEQ:-64}"
export SDD_CORPUS_DOCS="${SDD_CORPUS_DOCS:-400}"
export SDD_PRETRAIN_STEPS="${SDD_PRETRAIN_STEPS:-40}"
export SDD_PRETRAIN_BATCH="${SDD_PRETRAIN_BATCH:-2}"
export SDD_PRETRAIN_SEQ="${SDD_PRETRAIN_SEQ:-48}"
export SDD_CACHE_DIR="${WORK}/cache"
ITEMS="${SDD_FLEET_SOAK_ITEMS:-3}"

run_eval() { # digest-out log-file [VAR=VALUE ...]
  local digest="$1" log="$2"
  shift 2
  env "$@" "${CLI}" eval --suite openllm --items "${ITEMS}" --out "${digest}" \
    >"${log}" 2>&1
}

# Reference digest from the serial single-process path (fleet off).
echo "== reference run (serial, no fleet)"
REF="${WORK}/reference.txt"
run_eval "${REF}" "${WORK}/reference.log"
[[ -s "${REF}" ]] || { echo "fleet_soak: reference run produced no digest" >&2; exit 2; }

chaos_case() { # name fleet-fault-spec [VAR=VALUE ...]
  local name="$1" fault="$2"
  shift 2
  local digest="${WORK}/digest_${name}.txt" log="${WORK}/${name}.log"
  echo "== ${name} (SDD_CHILD_FAULT=${fault:-<none>})"
  local rc=0
  run_eval "${digest}" "${log}" \
    SDD_FLEET_WORKERS=2 SDD_FLEET_DIR="${WORK}/fleet_${name}" \
    SDD_CHILD_FAULT="${fault}" "$@" || rc=$?
  if [[ "${rc}" -ne 0 ]]; then
    echo "   fleet run failed (exit ${rc}); last log lines:"
    tail -n 8 "${log}" | sed 's/^/   | /'
    soak_report "${name}" bad
    return
  fi
  if cmp -s "${REF}" "${digest}"; then
    soak_report "${name}" ok
  else
    echo "   digest differs from serial reference:"
    diff "${REF}" "${digest}" | sed 's/^/   | /' || true
    soak_report "${name}" bad
  fi
}

# No faults: the fleet path alone must already be byte-identical to serial.
chaos_case clean ""

# kill -9 on the first claim: lease expiry, orphan reclaim, requeue, respawn.
chaos_case worker_kill9 "worker_kill9:at=0"

# One worker hangs on its first claim: the orchestrator's stale-lease sweep
# must SIGKILL it and respawn (single worker so no sibling can rescue it).
chaos_case worker_stall "worker_stall:0" \
  SDD_FLEET_WORKERS=1 SDD_FLEET_LEASE_MS=1500

# All workers funnelled onto the same task file: O_EXCL claim exclusion.
chaos_case claim_race "claim_race"

# Flaky artifact commits inside workers: tasks fail with typed transient_io
# errors, burn retry budget, and must still converge.
chaos_case flaky_store "io_fail:p=0.3" SDD_FLEET_TASK_RETRY=8

# Acceptance scenario: every process-level injector at once.
chaos_case combined "worker_kill9:at=0,worker_stall:2,claim_race" \
  SDD_FLEET_LEASE_MS=1500

# Orchestrator crash + restart: the parent _Exit(137)s after its second
# validated completion; the restart against the same queue dir must reuse
# the completed cells (reused>0) instead of recomputing them, and still
# match the serial digest byte-for-byte.
echo "== orch_restart (SDD_FAULT=orch_crash:2 on the orchestrator)"
orc_ok=ok
rc=0
run_eval "${WORK}/digest_orch_crashed.txt" "${WORK}/orch_crash.log" \
  SDD_FLEET_WORKERS=2 SDD_FLEET_DIR="${WORK}/fleet_orch" \
  SDD_FAULT="orch_crash:2" || rc=$?
if [[ "${rc}" -ne 137 ]]; then
  echo "   expected orchestrator exit 137, got ${rc}"
  orc_ok=bad
fi
# Orphaned workers may keep draining the queue briefly after the parent dies;
# give them a moment so the restart observes a quiesced queue.
sleep 2
rc=0
run_eval "${WORK}/digest_orch_restart.txt" "${WORK}/orch_restart.log" \
  SDD_FLEET_WORKERS=2 SDD_FLEET_DIR="${WORK}/fleet_orch" || rc=$?
if [[ "${rc}" -ne 0 ]]; then
  echo "   restart failed (exit ${rc}); last log lines:"
  tail -n 8 "${WORK}/orch_restart.log" | sed 's/^/   | /'
  orc_ok=bad
elif ! cmp -s "${REF}" "${WORK}/digest_orch_restart.txt"; then
  echo "   restart digest differs from serial reference:"
  diff "${REF}" "${WORK}/digest_orch_restart.txt" | sed 's/^/   | /' || true
  orc_ok=bad
elif ! grep -q "reused=[1-9]" "${WORK}/orch_restart.log"; then
  echo "   restart recomputed every cell (expected reused>0):"
  grep "fleet:" "${WORK}/orch_restart.log" | sed 's/^/   | /' || true
  orc_ok=bad
fi
soak_report orch_restart "${orc_ok}"

soak_summary "fleet soak"
