#!/usr/bin/env python3
"""Golden-file test for the SARIF 2.1.0 writer (msw_sarif.py).

Runs the analyzer over a hermetic mini tree that produces one finding
from each rule tier — a declaration-shaped textual rule
(MSW-RAW-SYNC), an interprocedural reachability rule
(MSW-SIGNAL-SAFE), and an atomics rule (MSW-ATOMIC-ORDER) — plus one
baseline-suppressed finding, then compares the interesting SARIF
fields (ruleIndex wiring, partialFingerprints, suppression records,
locations) against the checked-in golden
`tests/analysis/golden/sarif_golden.json`.

The fingerprint values are part of the golden on purpose: they are
what keeps code-scanning alert identity stable across pushes, so a
silent change to the fingerprint scheme must fail this test.
Regenerate after a deliberate change with:

    python3 tests/analysis/sarif_golden_test.py --regen
"""

import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
ANALYZE = os.path.join(REPO, "tools", "analysis", "msw_analyze.py")
GOLDEN = os.path.join(REPO, "tests", "analysis", "golden",
                      "sarif_golden.json")

# Tier 1 (textual, declaration-shaped): a raw std::mutex outside
# src/util/.
RAW_SYNC = """\
#include <mutex>

namespace mini {

std::mutex g_registry_lock;

}  // namespace mini
"""

# Baseline-suppressed second finding of the same rule.
RAW_SYNC_SUPPRESSED = """\
#include <mutex>

namespace mini {

std::mutex g_legacy_lock;

}  // namespace mini
"""

# Tier 2 (interprocedural reachability): an atfork child hook reaching
# fprintf one call hop away.
SIGNAL_SAFE = """\
#include <pthread.h>

#include <cstdio>

namespace mini {

void report_state()
{
    std::fprintf(stderr, "[mini] child resumed\\n");
}

void atfork_child()
{
    report_state();
}

void install_hooks()
{
    pthread_atfork(nullptr, nullptr, &atfork_child);
}

}  // namespace mini
"""

# Tier 3 (atomics): an unannotated relaxed access.
ATOMIC_ORDER = """\
#include <atomic>

namespace mini {

std::atomic<unsigned> g_ticks{0};

void tick()
{
    g_ticks.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace mini
"""

BASELINE = ("MSW-RAW-SYNC|src/core/legacy.cc|std::mutex g_legacy_lock;"
            "  # legacy lock, migrated separately\n")


def produce_sarif():
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "src", "core"))
        os.makedirs(os.path.join(tmp, "src", "sync"))
        paths = {
            "src/core/registry.cc": RAW_SYNC,
            "src/core/legacy.cc": RAW_SYNC_SUPPRESSED,
            "src/core/hooks.cc": SIGNAL_SAFE,
            "src/sync/ticks.cc": ATOMIC_ORDER,
            "baseline.txt": BASELINE,
        }
        for rel, content in paths.items():
            with open(os.path.join(tmp, rel), "w",
                      encoding="utf-8") as f:
                f.write(content)
        sarif_path = os.path.join(tmp, "out.sarif")
        proc = subprocess.run(
            [sys.executable, ANALYZE, "--root", tmp,
             "--baseline", os.path.join(tmp, "baseline.txt"),
             "--sarif", sarif_path],
            capture_output=True, text=True)
        if proc.returncode != 1:
            raise AssertionError(
                "expected exit 1 (findings) from the mini tree, got "
                f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
        with open(sarif_path, encoding="utf-8") as f:
            return json.load(f)


def normalize(doc):
    """The golden subset: everything identity- or shape-bearing, minus
    free prose (message wording may improve without churning alert
    identity — fingerprints hash it, so wording changes still surface
    in the fingerprint fields)."""
    run = doc["runs"][0]
    rules = [r["id"] for r in run["tool"]["driver"]["rules"]]
    results = []
    for res in run["results"]:
        loc = res["locations"][0]["physicalLocation"]
        results.append({
            "ruleId": res["ruleId"],
            "ruleIndex": res["ruleIndex"],
            "ruleAtIndex": rules[res["ruleIndex"]],
            "uri": loc["artifactLocation"]["uri"],
            "startLine": loc["region"]["startLine"],
            "partialFingerprints": res["partialFingerprints"],
            "suppressions": [
                {"kind": s["kind"], "status": s["status"],
                 "justification": s.get("justification")}
                for s in res.get("suppressions", [])
            ] or None,
        })
    results.sort(key=lambda r: (r["ruleId"], r["uri"], r["startLine"]))
    return {
        "version": doc["version"],
        "driverName": run["tool"]["driver"]["name"],
        "columnKind": run["columnKind"],
        "ruleIds": rules,
        "results": results,
    }


def main():
    regen = "--regen" in sys.argv[1:]
    got = normalize(produce_sarif())

    tiers = {r["ruleId"] for r in got["results"]}
    for rule in ("MSW-RAW-SYNC", "MSW-SIGNAL-SAFE", "MSW-ATOMIC-ORDER"):
        assert rule in tiers, f"mini tree lost its {rule} finding"
    assert any(r["suppressions"] for r in got["results"]), \
        "baseline-suppressed finding lost its suppression record"
    for r in got["results"]:
        assert r["ruleAtIndex"] == r["ruleId"], \
            f"ruleIndex points at {r['ruleAtIndex']}, not {r['ruleId']}"
        assert r["partialFingerprints"].get("mswAnalyze/v1"), \
            f"missing mswAnalyze/v1 fingerprint on {r['ruleId']}"

    if regen:
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w", encoding="utf-8") as f:
            json.dump(got, f, indent=2)
            f.write("\n")
        print(f"sarif_golden_test: regenerated {GOLDEN}")
        return 0

    with open(GOLDEN, encoding="utf-8") as f:
        want = json.load(f)
    if got != want:
        print("sarif_golden_test: FAIL — SARIF output diverged from "
              "the golden file.", file=sys.stderr)
        print("golden:", json.dumps(want, indent=2), file=sys.stderr)
        print("got:   ", json.dumps(got, indent=2), file=sys.stderr)
        print("If the change is deliberate, regenerate with: "
              "python3 tests/analysis/sarif_golden_test.py --regen",
              file=sys.stderr)
        return 1
    print("sarif_golden_test: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
