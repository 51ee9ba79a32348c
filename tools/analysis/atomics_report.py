#!/usr/bin/env python3
"""Per-file memory-order histogram over the msw-analyze atomics dump.

Consumes the JSON written by `msw_analyze.py --dump-atomics PATH`
(or generates it on the fly when given a tree instead of a dump) and
prints one row per file: access counts bucketed by memory order, the
fence count, and how many relaxed sites carry an msw-relaxed/msw-cas
annotation. The final row totals the tree; `--json` emits the same
table machine-readably for CI artifacts.

Usage:
    python3 tools/analysis/atomics_report.py dump.json
    python3 tools/analysis/atomics_report.py --tree . [--json]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ORDER_COLUMNS = ("relaxed", "consume", "acquire", "release", "acq_rel",
                 "seq_cst")


def load_dump(args):
    if args.tree is not None:
        analyze = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "msw_analyze.py")
        with tempfile.NamedTemporaryFile(suffix=".json") as tmp:
            subprocess.run(
                [sys.executable, analyze, "--root", args.tree,
                 "--dump-atomics", tmp.name],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, check=False)
            with open(tmp.name, encoding="utf-8") as f:
                return json.load(f)
    with open(args.dump, encoding="utf-8") as f:
        return json.load(f)


def tabulate(dump):
    """[(rel, {order: n, "fences": n, "annotated": n, "relaxed_sites": n})]
    sorted by path, with a trailing ("TOTAL", ...) row."""
    rows = []
    total = {c: 0 for c in ORDER_COLUMNS}
    total.update(fences=0, annotated=0, relaxed_sites=0)
    for rel, facts in sorted(dump.get("files", {}).items()):
        row = {c: 0 for c in ORDER_COLUMNS}
        row.update(fences=0, annotated=0, relaxed_sites=0)
        for a in facts.get("accesses", []):
            # The success order characterises the access; failure
            # orders of a CAS would double-count it.
            orders = a.get("orders") or []
            if not orders:
                continue
            success = orders[0]
            if success in row:
                row[success] += 1
            if "relaxed" in orders:
                row["relaxed_sites"] += 1
                if a.get("annotated"):
                    row["annotated"] += 1
        row["fences"] = len(facts.get("fences", []))
        if not any(row.values()):
            continue
        rows.append((rel, row))
        for k, v in row.items():
            total[k] += v
    rows.append(("TOTAL", total))
    return rows


def render(rows, protocols):
    width = max(len(rel) for rel, _ in rows)
    header = (f"{'file':<{width}}  " +
              "".join(f"{c:>8}" for c in ORDER_COLUMNS) +
              f"{'fences':>8}{'ann/rlx':>9}")
    out = [header, "-" * len(header)]
    for rel, row in rows:
        cells = "".join(f"{row[c] or '.':>8}" for c in ORDER_COLUMNS)
        ann = f"{row['annotated']}/{row['relaxed_sites']}"
        out.append(f"{rel:<{width}}  {cells}{row['fences'] or '.':>8}"
                   f"{ann:>9}")
    out.append(f"protocols declared: {len(protocols)} "
               f"({', '.join(sorted(protocols))})")
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("dump", nargs="?", help="--dump-atomics JSON file")
    ap.add_argument("--tree", help="repo root: run the analyzer for the "
                                   "dump instead of reading a file")
    ap.add_argument("--json", action="store_true",
                    help="emit the table as JSON")
    args = ap.parse_args()
    if (args.dump is None) == (args.tree is None):
        ap.error("pass exactly one of DUMP or --tree")
    dump = load_dump(args)
    rows = tabulate(dump)
    protocols = dump.get("protocols", {})
    if args.json:
        print(json.dumps({
            "files": {rel: row for rel, row in rows},
            "protocols": sorted(protocols),
        }, indent=2))
    else:
        print(render(rows, protocols))
    return 0


if __name__ == "__main__":
    sys.exit(main())
