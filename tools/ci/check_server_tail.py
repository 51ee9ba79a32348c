#!/usr/bin/env python3
"""Validate BENCH_server_tail.json (CI smoke gate).

The server tail-latency benchmark is the repo's answer to "where do the
pauses land"; CI runs it in short duration mode and this script fails
the job if the output lost a system, a percentile key, or its
provenance stamp — the shapes the plotting/tracking tooling consumes.

Usage: check_server_tail.py [path-to-BENCH_server_tail.json]
"""

import json
import sys

EXPECTED_SYSTEMS = ("baseline", "markus", "ffmalloc", "minesweeper")
LATENCY_KEYS = ("count", "mean_ns", "p50_ns", "p90_ns", "p99_ns",
                "p999_ns", "max_ns")
DIGEST_KEYS = ("op_latency_ns", "sweep_pause_ns")
# Runtime counter totals, keyed by their MSW_STAT_LIST names.
TOTAL_KEYS = ("pause_ns", "stw_ns", "phase_dirty_scan_ns",
              "phase_mark_ns", "phase_drain_ns", "phase_release_ns")


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_server_tail.json"
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_server_tail: cannot read {path}: {e}",
              file=sys.stderr)
        return 1

    errors = []
    for key in ("schema_version", "git_describe", "systems"):
        if key not in doc:
            errors.append(f"missing top-level key {key!r}")
    systems = doc.get("systems", {})

    for name in EXPECTED_SYSTEMS:
        sys_doc = systems.get(name)
        if sys_doc is None:
            errors.append(f"missing system {name!r}")
            continue
        if not sys_doc.get("ok", False):
            errors.append(f"system {name!r} run failed (ok != true)")
        for digest in DIGEST_KEYS:
            d = sys_doc.get(digest)
            if not isinstance(d, dict):
                errors.append(f"{name}: missing digest {digest!r}")
                continue
            for k in LATENCY_KEYS:
                if k not in d:
                    errors.append(f"{name}.{digest}: missing key {k!r}")
            # A run with zero timed operations means the workload (or
            # the histogram plumbing) silently broke.
            if digest == "op_latency_ns" and d.get("count", 0) <= 0:
                errors.append(f"{name}: zero timed operations")
        for k in TOTAL_KEYS:
            if k not in sys_doc:
                errors.append(f"{name}: missing key {k!r}")

    if errors:
        for e in errors:
            print(f"check_server_tail: {e}", file=sys.stderr)
        return 1

    ops = {n: systems[n]["op_latency_ns"]["count"]
           for n in EXPECTED_SYSTEMS}
    print(f"check_server_tail: OK ({path}; ops per system: {ops})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
