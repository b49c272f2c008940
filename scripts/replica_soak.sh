#!/usr/bin/env bash
# Chaos soak for cross-process serving replicas (ISSUE 10 acceptance
# criterion): the router spawns each variant as a `replica-worker` child
# process behind the length-prefixed checksummed IPC protocol, concurrent
# clients fire requests across the process boundary, and the driver asserts
# that no request is ever lost (every one resolves with a response or a typed
# error), that a killed/wedged worker is quarantined by its breaker,
# respawned, and probed back to healthy, and that per-variant outputs stay
# byte-identical to the in-process reference decode with and without chaos.
#
# Usage: scripts/replica_soak.sh [build-dir]
#
# Faults exercised (see src/util/fault.hpp; armed via SDD_CHILD_FAULT, which
# the router hands only to the first worker of variant replica_idx, 0 here):
#   replica_kill9:at=N  the worker _Exit(137)s on its Nth request, mid-decode
#                       from the router's point of view: in-flight requests
#                       must fail over to sibling variants, the breaker opens,
#                       and the supervisor respawns + probes the worker back
#   replica_wedge:N     the worker stops heartbeating and reading after N
#                       requests; the liveness lease must expire, the
#                       supervisor SIGKILLs and respawns it
#   ipc_torn_frame      the worker writes a torn half-frame then dies; the
#                       parent must classify it as worker_lost (never decode
#                       garbage) and fail the in-flight requests over
#
# The swap case exercises the rolling variant upgrade path instead of a
# fault: mid-traffic, swap_model() drains the 'full' worker, respawns it on a
# new checkpoint, and post-swap pinned requests must match the new
# checkpoint's reference decode bit-for-bit.
set -euo pipefail

source "$(dirname "${BASH_SOURCE[0]}")/soak_lib.sh"

BUILD="${1:-build}"
SOAK="${BUILD}/examples/replica_soak"
soak_require_binary replica_soak "${SOAK}" replica_soak

soak_workdir sdd_replica_soak
export TMPDIR="${WORK}"

export SDD_LOG_LEVEL="${SDD_LOG_LEVEL:-warn}"
# Small queues so failover actually redistributes load, and a fast breaker /
# respawn backoff so open -> respawn -> half-open -> healthy fits in a short
# soak.
export SDD_SERVE_QUEUE_CAP="${SDD_SERVE_QUEUE_CAP:-8}"
export SDD_SERVE_MAX_BATCH="${SDD_SERVE_MAX_BATCH:-4}"
export SDD_ROUTE_BREAKER_FAILS="${SDD_ROUTE_BREAKER_FAILS:-3}"
export SDD_ROUTE_BREAKER_COOLDOWN_MS="${SDD_ROUTE_BREAKER_COOLDOWN_MS:-150}"
export SDD_ROUTE_PROBE_MAX="${SDD_ROUTE_PROBE_MAX:-1}"
export SDD_REPLICA_BACKOFF_MS="${SDD_REPLICA_BACKOFF_MS:-50}"
export SDD_REPLICA_BACKOFF_CAP_MS="${SDD_REPLICA_BACKOFF_CAP_MS:-500}"

check_case() { # name fault-spec [extra VAR=VAL ...]
  local name="$1" fault="$2"
  shift 2
  echo "== ${name} (SDD_CHILD_FAULT=${fault:-<none>}${*:+ $*})"
  local dir="${WORK}/${name}"
  mkdir -p "${dir}"
  local rc=0
  env SDD_REPLICA_SOAK_DIR="${dir}" SDD_CHILD_FAULT="${fault}" "$@" \
    "${SOAK}" || rc=$?
  if [[ "${rc}" -eq 0 ]]; then
    soak_report "${name}" ok
  else
    echo "   invariant violated (exit ${rc})"
    soak_report "${name}" bad
  fi
}

# Baseline: three worker processes under concurrent load, no faults. Every
# per-variant output must be byte-identical to the in-process reference
# decode (the same weights generated without crossing a process boundary).
check_case clean ""

# kill -9 equivalent mid-decode: the 'full' worker _Exit(137)s on its second
# request while siblings keep serving. The driver asserts zero lost requests,
# failovers >= 1, breaker_opens >= 1, restarts >= 1, and the worker probed
# back to healthy with probe_successes >= 1.
check_case kill9 "replica_kill9:at=2"

# Wedged worker: stops heartbeating after two requests. A short liveness
# lease makes the supervisor detect the silence, SIGKILL, and respawn.
check_case wedge "replica_wedge:2" SDD_REPLICA_LEASE_MS=300

# Torn frame: the worker writes a truncated frame then dies. The checksum /
# framing layer must surface worker_lost (never garbage tokens) and the
# requests must fail over and still match the reference decode.
check_case torn_frame "ipc_torn_frame"

# Rolling upgrade: mid-traffic swap of the 'full' variant onto a new
# checkpoint. Post-swap pinned requests must complete on 'full' and match
# the NEW checkpoint's reference decode bit-for-bit (restarts >= 1).
check_case swap "" SDD_REPLICA_SOAK_SWAP=1

soak_summary "replica soak"
