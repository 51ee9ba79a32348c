#!/usr/bin/env python3
"""Self-test of the benchmark, at a small scale.

    python3 perfbench/selftest.py

Asserts that
  * BENCHMARK.json and run.py name the same workloads and metrics;
  * every end-to-end metric is printed with its unit on every workload,
    and every per-layer metric appears in the traced output;
  * the output check fails (non-zero exit, "correct": false) when the
    expected checksum is wrong or an alloc reissues a probed block.
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SCALE = "0.05"


def bench(workload, trace=0, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(run.DEFAULT_SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", SCALE]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                       cwd=run.ROOT)
    return p.returncode, json.loads(p.stdout.strip().splitlines()[-1])


def expect(cond, what):
    if not cond:
        print("selftest FAILED: " + what)
        sys.exit(1)
    print("ok: " + what)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    def units(kind):
        return {m["name"]: m["unit"] for m in spec[kind]}

    expect(units("end_to_end") == run.END_TO_END
           and units("per_layer") == run.PER_LAYER
           and [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json names the metrics and workloads run.py prints")
    for w in run.WORKLOADS:
        code, out = bench(w)
        expect(code == 0 and out["correct"] and out["failed"] == 0
               and out["attempted"] > 0, f"{w}: clean run is correct")
        expect(all(out["metrics"].get(k, {}).get("unit") == u
                   and out["metrics"][k]["value"] > 0
                   for k, u in run.END_TO_END.items()),
               f"{w}: every end-to-end metric printed with its unit")

        code, out = bench(w, trace=1)
        expect(code == 0 and out["correct"], f"{w}: traced run is correct")
        expect(set(out["metrics"]) == set(run.PER_LAYER)
               and all(out["metrics"][k]["unit"] == u
                       for k, u in run.PER_LAYER.items()),
               f"{w}: every per-layer metric printed with its unit")

    for inject in ("checksum", "reissue"):
        code, out = bench("server", inject=inject)
        expect(code != 0 and not out["correct"],
               f"injected {inject} fault fails the output check")
        if inject == "reissue":
            expect(out["failed"] > 0, "a reissued block counts as a failed op")
    print("selftest passed")


if __name__ == "__main__":
    main()
