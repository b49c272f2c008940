#!/usr/bin/env bash
# Chaos soak for self-speculative decoding (ISSUE acceptance criterion):
# drive the draft-and-verify loop through the one-shot API, a draft-equipped
# InferenceServer, and a VariantRouter with SDD_SPEC_DRAFT pairing, and
# assert that every speculative output is bit-identical to the target's
# plain greedy decode — with and without injected rejection storms and
# draft-model NaNs. A fault may collapse the acceptance rate or degrade a
# round to a target-only step; it must never change output bytes or fail a
# request.
#
# Usage: scripts/spec_soak.sh [build-dir]
#
# Faults exercised (see src/util/fault.hpp; the soak arms SDD_FAULT only
# after model construction and reference decoding):
#   spec_reject_storm        every draft proposal is corrupted; acceptance
#                            collapses (self-draft: to exactly 0), bytes don't
#   spec_reject_storm:p=0.5  probabilistic rejection storm
#   draft_nan:N              Nth draft logits row is NaN; the round degrades
#                            to a target-only step, the request still completes
set -euo pipefail

source "$(dirname "${BASH_SOURCE[0]}")/soak_lib.sh"

BUILD="${1:-build}"
SOAK="${BUILD}/examples/spec_soak"
soak_require_binary spec_soak "${SOAK}" spec_soak

soak_workdir sdd_spec_soak
export TMPDIR="${WORK}"

export SDD_LOG_LEVEL="${SDD_LOG_LEVEL:-warn}"
export SDD_SPEC_K="${SDD_SPEC_K:-4}"

check_case() { # name -- fault-spec
  local name="$1"
  shift
  [[ "$1" == "--" ]] && shift
  local fault="${1:-}"
  echo "== ${name} (SDD_FAULT=${fault:-<none>})"
  local rc=0
  SDD_FAULT="${fault}" "${SOAK}" || rc=$?
  if [[ "${rc}" -eq 0 ]]; then
    soak_report "${name}" ok
  else
    echo "   invariant violated (exit ${rc})"
    soak_report "${name}" bad
  fi
}

# Baseline: no faults. Self-drafting must accept 100% of proposals.
check_case clean -- ""

# Every proposal corrupted: acceptance collapses to zero on the self-draft,
# output bytes identical everywhere.
check_case reject_storm -- "spec_reject_storm"

# Half the proposals corrupted: partial-prefix acceptance and KV rollback on
# every round, still bit-identical.
check_case reject_half -- "spec_reject_storm:p=0.5"

# Draft model emits NaN logits: the round degrades to a target-only step
# (draft_fallbacks > 0); no request fails, bytes identical.
check_case draft_nan -- "draft_nan:3"

# Storm and NaN together.
check_case combined -- "spec_reject_storm:p=0.7,draft_nan:5"

soak_summary "spec soak"
