#!/usr/bin/env python3
"""The repository's benchmark: MineSweeper on three closed-loop workloads.

    python3 perfbench/run.py --workload server|graph|bulk --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run builds the round program
(and the runtime from src/) into .bench_build/perfbench with CMake.

A run replays the seed's op stream once on a bare JadeAllocator, which
gives the expected checksum, then starts rounds on the default
fully-concurrent MineSweeper for S seconds. Each round is a fresh
process with the same inputs: set-up and warm-up, a fixed op count per
mutator thread, shut-down. The first round only wakes the machine and
is not measured. Every round must reproduce the replay's checksum,
balance its ledger (allocs == frees, and the runtime counted the same
calls) and never hand out a block the UAF probe still points at.
Metrics are medians over the half of the rounds whose threads waited
least for a CPU (per-thread schedstat), so load from outside the run
moves them less.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
rounds with traced ones, which time every alloc/free call as a child
span of its op and sample the runtime's gauges, and prints the
per-layer metrics; the spans of the last traced round are written to
.bench_build/perfbench/spans/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is 0 only when every output check passed.
"""

import argparse
import ctypes
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
ROUND = os.path.join(BUILD, "perfbench_round")

WORKLOADS = ("server", "graph", "bulk")
DEFAULT_SEED = 1

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 60

END_TO_END = {
    "ops_per_s": "1/s",
    "cpu_us_per_op": "us",
    "op_p50_ns": "ns",
    "op_p99_ns": "ns",
    "rss_avg_mib": "MiB",
    "rss_peak_mib": "MiB",
    "setup_s": "s",
}

PER_LAYER = {
    "core.alloc_ns.p50": "ns",
    "core.alloc_ns.p99": "ns",
    "core.free_ns.p50": "ns",
    "core.free_ns.p99": "ns",
    "core.pause_ms": "ms",
    "core.emergency_sweeps": "count",
    "core.oom_returns": "count",
    "quarantine.bytes_avg_mib": "MiB",
    "quarantine.failed_free_ratio": "ratio",
    "sweep.count": "count",
    "sweep.mark_gbps": "GB/s",
    "sweep.phase_dirty_scan_ms": "ms",
    "sweep.phase_mark_ms": "ms",
    "sweep.phase_drain_ms": "ms",
    "sweep.phase_release_ms": "ms",
    "sweep.scanned_per_released": "ratio",
    "sweep.cpu_share": "ratio",
    "reclaim.unmapped_entries": "count",
    "reclaim.unmapped_per_kop": "1/kop",
    "vm.committed_avg_mib": "MiB",
    "vm.minflt_per_op": "1/op",
    "alloc.alloc_ns.p50": "ns",
    "alloc.free_ns.p50": "ns",
    "alloc.ops_per_s": "1/s",
    "alloc.overhead_x": "x",
    "proc.vcsw_per_op": "1/op",
    "proc.ivcsw_per_op": "1/op",
    "op.p999_ns": "ns",
    "op.self_ns.p50": "ns",
    "trace.overhead_pct": "%",
}


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "perfbench_round", "-j", str(nproc())])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                log("perfbench: build failed: " + " ".join(cmd))
                sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def thread_budget(workload, cpus):
    """Mutators + 1 sweeper + helpers take half the CPUs (two threads at
    least). The other half is left to the RSS sampler and to the host's
    other load: with every CPU busy, outside load preempts the runtime's
    own threads and the figures measure the scheduler."""
    threads = max(2, cpus // 2)
    mutators = max(1, threads // 2) if workload == "server" else 1
    return mutators, threads - mutators - 1


def clean_env():
    # MSW_* variables select policies and telemetry tiers; the benchmark
    # measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("MSW_")}


ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Runs in the round's process before exec: turn address-space
    randomisation off, so every round lays out its heap the same way
    (trials spread less from round to round). Left as is if refused."""
    ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)


def run_round(args, system, traced, budget, spans=None, inject=False):
    cmd = [ROUND, "--workload", args.workload, "--seed", str(args.seed),
           "--system", system, "--trace", "1" if traced else "0",
           "--mutators", str(budget[0]), "--helpers", str(budget[1]),
           "--scale", repr(args.scale)]
    if spans:
        cmd += ["--spans", spans]
    if inject:
        cmd.append("--inject-reissue")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=ROUND_TIMEOUT_S, env=clean_env(),
                           preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"{system} round timed out")
    if p.returncode != 0:
        raise CheckFailed(f"{system} round exited {p.returncode}: "
                          + p.stderr.strip()[-500:])
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_round(r, expected):
    problems = []
    if r["checksum"] != expected:
        problems.append(f"checksum {r['checksum']} != replay {expected}")
    if not r["ledger_ok"]:
        problems.append("ledger: allocs {} frees {} runtime {}/{}".format(
            r["allocs"], r["frees"], r["alloc_calls"], r["free_calls"]))
    if r["failed_allocs"]:
        problems.append(f"{r['failed_allocs']} allocations returned null")
    if r["probe_violations"]:
        problems.append(
            f"{r['probe_violations']} allocs reissued a probed block")
    return problems


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(r):
    ops = r["ops"]
    return {
        "ops_per_s": ops / r["timed_s"],
        "cpu_us_per_op": r["cpu_s"] * 1e6 / ops,
        "op_p50_ns": r["op_p50_ns"],
        "op_p99_ns": r["op_p99_ns"],
        "rss_avg_mib": r["rss_avg_mib"],
        "rss_peak_mib": r["rss_peak_mib"],
        "setup_s": r["setup_s"],
    }


def per_layer(r):
    """Layer metrics of one traced round."""
    ops = r["ops"]
    return {
        "core.alloc_ns.p50": r["alloc_p50_ns"],
        "core.alloc_ns.p99": r["alloc_p99_ns"],
        "core.free_ns.p50": r["free_p50_ns"],
        "core.free_ns.p99": r["free_p99_ns"],
        "core.pause_ms": r["pause_ns"] / 1e6,
        "core.emergency_sweeps": r["emergency_sweeps"],
        "core.oom_returns": r["oom_returns"],
        "quarantine.bytes_avg_mib": r["quarantine_avg_mib"],
        "quarantine.failed_free_ratio": ratio(
            r["failed_frees"], r["failed_frees"] + r["entries_released"]),
        "sweep.count": r["sweeps"],
        "sweep.mark_gbps": ratio(r["bytes_scanned"], r["phase_mark_ns"]),
        "sweep.phase_dirty_scan_ms": r["phase_dirty_scan_ns"] / 1e6,
        "sweep.phase_mark_ms": r["phase_mark_ns"] / 1e6,
        "sweep.phase_drain_ms": r["phase_drain_ns"] / 1e6,
        "sweep.phase_release_ms": r["phase_release_ns"] / 1e6,
        "sweep.scanned_per_released": ratio(r["bytes_scanned"],
                                            r["bytes_released"]),
        "sweep.cpu_share": ratio(r["sweep_cpu_ns"], r["cpu_s"] * 1e9),
        "reclaim.unmapped_entries": r["unmapped_entries"],
        "reclaim.unmapped_per_kop": r["unmapped_entries"] * 1e3 / ops,
        "vm.committed_avg_mib": r["committed_avg_mib"],
        "vm.minflt_per_op": r["minflt"] / ops,
        "proc.vcsw_per_op": r["nvcsw"] / ops,
        "proc.ivcsw_per_op": r["nivcsw"] / ops,
        "op.self_ns.p50": r["self_p50_ns"],
    }


def wait_share(r):
    """Share of the timed phase the round's threads spent waiting for a
    CPU: how much the host's other load disturbed the round."""
    return r["wait_s"] / r["timed_s"]


def cleanest(rounds):
    """The half of the rounds (MIN_ROUNDS at least) that waited least
    for a CPU. Outside load does not only slow a round: a starved sweeper
    sweeps less often, which lowers CPU per op and raises RSS. So rounds
    are not trimmed by their figures, only by how disturbed they were."""
    keep = max(MIN_ROUNDS, (len(rounds) + 1) // 2)
    return sorted(rounds, key=wait_share)[:keep]


def medians(rows):
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test hooks: shrink the workload, or break one output check.
    ap.add_argument("--scale", type=float, default=1.0,
                    help=argparse.SUPPRESS)
    ap.add_argument("--inject", choices=("checksum", "reissue"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.scale <= 1 or args.seconds <= 0:
        ap.error("--seed must be >= 0, --seconds > 0, --scale in (0, 1]")

    build()
    cpus = nproc()
    budget = thread_budget(args.workload, cpus)
    start = time.monotonic()
    problems = []
    rounds, traced_rounds, replays = [], [], []
    warm = None
    try:
        replays.append(run_round(args, "jade", False, budget))
        expected = replays[0]["checksum"]
        if args.inject == "checksum":
            expected = "%016x" % (int(expected, 16) ^ 1)
        if not replays[0]["ledger_ok"]:
            problems.append("replay ledger does not balance")
        spans = None
        if args.trace:
            os.makedirs(os.path.join(BUILD, "spans"), exist_ok=True)
            spans = os.path.join(
                BUILD, "spans", f"{args.workload}-seed{args.seed}.csv")
        # The first MineSweeper round wakes the machine (idle CPUs ran it
        # markedly slower in trials): it is checked, not measured.
        warm = run_round(args, "msw", False, budget,
                         inject=args.inject == "reissue")
        problems += check_round(warm, expected)
        # Rounds start until --seconds have passed. A run must end well
        # inside three minutes: stop starting rounds after twice the
        # budget even if the minimum is not reached.
        measure = time.monotonic()
        while ((time.monotonic() - measure < args.seconds
                or len(rounds) < 2 * MIN_ROUNDS
                or (args.trace and len(traced_rounds) < 2 * MIN_ROUNDS))
               and time.monotonic() - start < 2 * args.seconds + 20):
            traced = bool(args.trace) and len(rounds) > len(traced_rounds)
            r = run_round(args, "msw", traced, budget,
                          spans if traced else None,
                          inject=args.inject == "reissue")
            problems += check_round(r, expected)
            log("perfbench: round {}{}: {:.0f} ops/s, setup {:.3f} s, "
                "rss avg {:.2f} MiB, cpu wait {:.1%}".format(
                    len(rounds) + len(traced_rounds),
                    " (traced)" if traced else "",
                    r["ops"] / r["timed_s"], r["setup_s"], r["rss_avg_mib"],
                    wait_share(r)))
            (traced_rounds if traced else rounds).append(r)
        if args.trace:
            replays.append(run_round(args, "jade", True, budget))
    except CheckFailed as e:
        problems.append(str(e))

    checked = rounds + traced_rounds + ([warm] if warm else [])
    attempted = sum(r["ops"] for r in checked)
    failed = sum(r["failed_allocs"] + r["probe_violations"] for r in checked)
    metrics = {}
    if rounds and (not args.trace or (traced_rounds and len(replays) == 2)):
        kept = cleanest(rounds)
        e2e = [end_to_end(r) for r in kept]
        if args.trace:
            traced_kept = cleanest(traced_rounds)
            layer = medians([per_layer(r) for r in traced_kept])
            untraced = statistics.median(e["ops_per_s"] for e in e2e)
            traced_ops = statistics.median(
                end_to_end(r)["ops_per_s"] for r in traced_kept)
            substrate = end_to_end(replays[0])["ops_per_s"]
            layer["alloc.alloc_ns.p50"] = replays[1]["alloc_p50_ns"]
            layer["alloc.free_ns.p50"] = replays[1]["free_p50_ns"]
            layer["alloc.ops_per_s"] = substrate
            layer["alloc.overhead_x"] = substrate / untraced
            layer["op.p999_ns"] = statistics.median(
                r["op_p999_ns"] for r in kept)
            layer["trace.overhead_pct"] = (1 - traced_ops / untraced) * 100
            values, units = layer, PER_LAYER
        else:
            values, units = medians(e2e), END_TO_END
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in units.items()}

        print(f"perfbench {args.workload}: seed {args.seed}, nproc {cpus}, "
              f"{budget[0]} mutators + 1 sweeper + {budget[1]} helpers, "
              f"{len(rounds)} untraced + {len(traced_rounds)} traced rounds "
              f"of {rounds[0]['ops']} ops, medians over the {len(kept)} "
              f"untraced rounds that waited least for a CPU (at most "
              f"{max(wait_share(r) for r in kept):.1%} of the timed phase, "
              f"{sum(r['op_samples'] for r in kept)} latency samples), "
              f"checksum {expected}")
        for k, u in units.items():
            line = f"  {k:30s} {metrics[k]['value']:>16.6g} {u}"
            if not args.trace:
                lo, hi = quartiles([e[k] for e in e2e])
                line += f"   (quartiles {lo:.6g} .. {hi:.6g})"
            print(line)
    for p in problems:
        log("perfbench: CHECK FAILED: " + p)

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
