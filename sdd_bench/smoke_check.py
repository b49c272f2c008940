#!/usr/bin/env python3
"""Smoke test of sdd_bench (the bench_e2e_smoke ctest).

    smoke_check.py <sdd_bench binary> <BENCHMARK.json> <work dir>

Runs every workload at smoke scale (~1 s phases, tiny pipeline) once untraced
and once traced, and fails unless every run checked its outputs (so the
served sample matched sequential decode), no request failed, every metric
BENCHMARK.json names appears with its unit, and the traced run wrote spans
for every layer.
"""
import json
import os
import shutil
import subprocess
import sys

SPANS = {
    "serving": ["request", "submit", "queue", "decode", "prefill_step", "decode_step",
                "decode_span", "sample_token", "shadow_step", "block.0.attn",
                "block.0.ffn"],
    "wide_spec": ["spec.verify", "spec.draft_step"],
    "sdd_pipeline": ["pipeline.run", "pipeline.pretrain", "pipeline.prune",
                     "pipeline.distill", "pipeline.recover", "pipeline.eval",
                     "eval.task.arc_c", "eval.task.gsm8k", "decode_step"],
}


def fail(message):
    print(f"smoke_check: {message}", file=sys.stderr)
    sys.exit(1)


def run(binary, work, trace):
    out = os.path.join(work, f"trace{trace}.json")
    cmd = [binary, "--smoke", "--workload", "all", "--seed", "1", "--trace", str(trace),
           "--json", out, "--workdir", os.path.join(work, "tmp")]
    if trace:
        cmd += ["--spans", os.path.join(work, "spans.jsonl")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("SDD_")}
    env["SDD_THREADS"] = "2"  # as run.py pins it
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"last stdout line has keys {sorted(last)}")
    with open(out) as f:
        return json.load(f)["runs"]


def main():
    binary, bench_path, work = sys.argv[1:4]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    with open(bench_path) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        runs = run(binary, work, trace)
        if [r["workload"] for r in runs] != workloads:
            fail(f"ran {[r['workload'] for r in runs]}, BENCHMARK.json lists {workloads}")
        for r in runs:
            result = r["result"]
            where = f"{r['workload']} (trace {trace})"
            if not result["correct"]:
                fail(f"{where}: output check failed")
            if result["failed"] != 0 or result["attempted"] < 1:
                fail(f"{where}: {result['failed']} of {result['attempted']} failed")
            metrics = result["metrics"]
            for metric in bench[key]:
                got = metrics.get(metric["name"])
                if got is None:
                    fail(f"{where}: metric {metric['name']} missing")
                if got["unit"] != metric["unit"]:
                    fail(f"{where}: {metric['name']} in {got['unit']}, "
                         f"BENCHMARK.json says {metric['unit']}")
            if trace and r["workload"] != "sdd_pipeline":
                if metrics["client.output_match"]["value"] != 1:
                    fail(f"{where}: output_match {metrics['client.output_match']['value']}")
                if metrics["client.error_rate"]["value"] != 0:
                    fail(f"{where}: error_rate {metrics['client.error_rate']['value']}")
            if trace:
                check_spans(work, r["workload"])
    print("smoke_check: ok")


def check_spans(work, workload):
    path = os.path.join(work, f"spans.{workload}.jsonl")
    try:
        with open(path) as f:
            names = {json.loads(line)["name"] for line in f}
    except (OSError, ValueError) as e:
        fail(f"{workload}: cannot read spans: {e}")
    expected = list(SPANS["sdd_pipeline" if workload == "sdd_pipeline" else "serving"])
    expected += SPANS.get(workload, [])
    missing = [name for name in expected if name not in names]
    if missing:
        fail(f"{workload}: no spans named {missing}")


if __name__ == "__main__":
    main()
