#!/usr/bin/env python3
"""msw-analyze: domain-specific static analyzer for the MineSweeper tree.

Generic linters cannot check the invariants this allocator's correctness
rests on: the LD_PRELOAD shim must never re-enter the allocator, every
lock must respect the core -> quarantine -> bin -> extent -> vm ->
metrics hierarchy, hot-path counters belong in StatCells, and
pointer<->integer laundering is confined to the util/vm helpers. This
tool encodes those rules as a rule pack and runs them over src/ with a
comment-aware lexical engine that needs nothing beyond python3, so every
run, in CI or on a laptop, gives the same result. The fixture self-test
(--self-test) pins each rule's behaviour.

Rules (see DESIGN.md section 10 for the catalogue):

  per-line / per-file:
  MSW-REENTRANT-ALLOC  shim entry points must not reach allocating
                       constructs (std::vector growth, std::string,
                       iostream/locale, non-placement new, throw)
  MSW-RAW-SYNC         std::mutex / pthread_mutex / raw
                       std::condition_variable banned outside src/util
  MSW-LOCK-RANK        ranks used by msw::Mutex/SpinLock constructions
                       must exist, be totally ordered, and match the
                       DESIGN.md section 9 table (doc drift is a finding)
  MSW-STAT-CELLS       new std::atomic counter members under src/core
                       and src/alloc are flagged toward core::StatCells
  MSW-SHIM-ERRNO       shim entry points must save/restore errno and be
                       noexcept-clean
  MSW-FAILPOINT-XREF   every Failpoint enumerator needs an injection
                       site in src/ and a reference in tests/
  MSW-UB-PTR-CAST      pointer<->integer reinterpret_casts confined to
                       src/util and src/vm (use msw::to_addr /
                       msw::to_ptr / msw::to_ptr_of)

  interprocedural, over the whole-program call graph (msw_graph):
  MSW-LOCK-HELD        held-rank-set dataflow: no path may acquire a
                       rank <= one already held (fork-window equal-rank
                       bulk acquisitions excepted, as at runtime)
  MSW-SIGNAL-SAFE      signal handlers and pthread_atfork child hooks
                       must not reach non-async-signal-safe libc calls
                       or allocating constructs
  MSW-TLS-FASTPATH     shim entries / fast-path-tagged functions must
                       not reach a ranked-lock acquisition except
                       through '// msw-analyze: slow-path(<why>)'

  atomics / lock-free protocols, over the whole-tree atomics model
  (msw_atomics; protocol catalogue in DESIGN.md section 13):
  MSW-ATOMIC-ORDER     relaxed accesses need '// msw-relaxed(<proto>):
                       <reason>' naming a declared protocol; defaulted
                       (seq_cst-by-default) orders and orphaned halves
                       of release/acquire pairs are findings; the
                       section-13 table must agree with the annotations
                       in both directions
  MSW-CAS-LOOP         ABA-prone CAS-loop shapes (pointer payloads
                       without a generation/tag justification, strong
                       CAS without expected refresh) and failure orders
                       stronger than success orders
  MSW-FENCE-PAIR       atomic_thread_fence sites must pair release <->
                       acquire across the model or name their partner
                       protocol in an msw-fence justification

Suppression baseline (tools/analysis/baseline.txt): lines of the form

  RULE-ID|relative/path|<whitespace-collapsed source line>  # justification

Every entry MUST carry a justification comment; entries without one are
a configuration error (exit 2), and an entry that no longer matches any
finding is a stale suppression — also exit 2 — so the baseline can only
shrink to match reality. --update-baseline appends missing entries with
a "TODO: justify" marker, which deliberately keeps the run red until a
human writes the justification.

A run over the whole tree takes about a second. --sarif writes SARIF
2.1.0 for code-scanning upload; --timings prints per-rule wall time.

Exit codes: 0 clean, 1 findings, 2 configuration error
(malformed/unjustified/stale baseline, bad arguments).
"""

import argparse
import json
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from msw_common import (  # noqa: E402
    Finding, Tree, _ALLOCATING_TOKENS, _SHIM_ENTRIES, _match_delim,
    fingerprint, parse_enum)
import msw_graph  # noqa: E402
import msw_sarif  # noqa: E402
from msw_atomics import ATOMIC_RULES, AtomicsModel  # noqa: E402
from msw_rules2 import INTERPROC_RULES  # noqa: E402

TOOL_VERSION = "3.0"

_KEYWORDS = msw_graph._KEYWORDS  # re-exported for the legacy rules

# --------------------------------------------------------------------------
# Function extents and intra-file call graph (shim rules)
# --------------------------------------------------------------------------

# Definitions sit at column 0 in this repo's style; out-of-line member
# definitions (`RootRegistry::park_handler(...)`) are keyed by their
# last component. (The interprocedural rules use the generic scanner in
# msw_graph instead; this layout-bound one stays for the shim rules,
# whose translation units follow it.)
_FUNC_DEF_RE = re.compile(r"(?m)^(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)\s*\(")
_CALL_RE = re.compile(r"(?<![\w.>:])([A-Za-z_]\w*)\s*\(")


def function_defs(sf):
    """Map name -> (body_start, body_end) using the repo's layout (return
    type on its own line, function name at column 0). Good enough for the
    shim translation units the reentrancy/errno rules target."""
    defs = {}
    for m in _FUNC_DEF_RE.finditer(sf.code):
        name = m.group(1)
        if name in _KEYWORDS:
            continue
        open_paren = sf.code.index("(", m.start())
        close_paren = _match_delim(sf.code, open_paren, "(", ")")
        if close_paren < 0:
            continue
        j = close_paren + 1
        while j < len(sf.code) and (sf.code[j].isspace() or
                                    sf.code[j:j + 5] == "const" or
                                    sf.code[j:j + 8] == "noexcept"):
            if sf.code[j:j + 5] == "const":
                j += 5
            elif sf.code[j:j + 8] == "noexcept":
                j += 8
            else:
                j += 1
        if j >= len(sf.code) or sf.code[j] != "{":
            continue
        body_end = _match_delim(sf.code, j, "{", "}")
        if body_end < 0:
            continue
        defs.setdefault(name, (j, body_end))
    return defs


def calls_in(code, start, end, universe):
    out = set()
    for m in _CALL_RE.finditer(code, start, end):
        if m.group(1) in universe:
            out.add(m.group(1))
    return out


def shim_files(tree):
    """Translation units that define malloc-family entry points."""
    out = []
    for sf in tree.src:
        if not sf.rel.endswith((".cc", ".cpp")):
            continue
        if 'extern "C"' not in sf.raw:
            continue
        defs = function_defs(sf)
        entries = sorted(_SHIM_ENTRIES & set(defs))
        if entries:
            out.append((sf, defs, entries))
    return out


# --------------------------------------------------------------------------
# Rule implementations
# --------------------------------------------------------------------------

def _flag_reachable_allocs(sf, defs, entries, kind, findings):
    """BFS the intra-file call graph from @p entries; flag allocating
    tokens with one witness path per reached function."""
    parent = {}
    seen = set(entries)
    work = list(entries)
    while work:
        fn = work.pop()
        body = defs[fn]
        for callee in calls_in(sf.code, body[0], body[1], set(defs)):
            if callee not in seen:
                seen.add(callee)
                parent[callee] = fn
                work.append(callee)
    for fn in sorted(seen):
        start, end = defs[fn]
        for tok_re, what in _ALLOCATING_TOKENS:
            for m in tok_re.finditer(sf.code, start, end):
                line = sf.line_of(m.start())
                path = [fn]
                while path[-1] in parent:
                    path.append(parent[path[-1]])
                via = " <- ".join(path)
                findings.append(Finding(
                    "MSW-REENTRANT-ALLOC", sf.rel, line,
                    what.format(m.group(1) if m.groups() else "") +
                    f" reachable from {kind} ({via})"))


def rule_reentrant_alloc(tree):
    """MSW-REENTRANT-ALLOC: no allocating construct reachable from a
    malloc-family entry point (LD_PRELOAD would recurse or deadlock).
    Signal handlers, which used to be a shallow special case here, are
    covered cross-TU by the interprocedural MSW-SIGNAL-SAFE rule."""
    findings = []
    for sf, defs, entries in shim_files(tree):
        _flag_reachable_allocs(sf, defs, entries,
                               "shim entry point", findings)
    return findings


_RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?!_any)|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|\bpthread_(mutex|cond|rwlock|spin)_")


def rule_raw_sync(tree):
    """MSW-RAW-SYNC: raw synchronisation primitives are invisible to the
    thread-safety annotations and the lock-rank checker; outside
    src/util, use msw::Mutex / msw::SpinLock / msw::LockGuard /
    msw::UniqueLock / std::condition_variable_any."""
    findings = []
    for sf in tree.src:
        if sf.rel.startswith("src/util/"):
            continue
        for i, line in enumerate(sf.code_lines, 1):
            m = _RAW_SYNC_RE.search(line)
            if m:
                findings.append(Finding(
                    "MSW-RAW-SYNC", sf.rel, i,
                    f"raw synchronisation primitive '{m.group(0)}' "
                    "bypasses thread-safety annotations and lock-rank "
                    "checking; use the ranked msw:: wrappers "
                    "(util/mutex.h, util/spin_lock.h)"))
    return findings


_TABLE_ROW_RE = re.compile(r"^\|\s*(\d+)\s+`(k\w+)`\s*\|([^|]*)\|")
_RANK_CTOR_RE = re.compile(
    r"([A-Za-z_]\w*)\s*[{(]\s*(?:msw::)?(?:util::)?LockRank::(k\w+)")
_RANK_INFRA = ("src/util/lock_rank.h", "src/util/lock_rank.cc",
               "src/util/mutex.h", "src/util/spin_lock.h")


def rule_lock_rank(tree):
    """MSW-LOCK-RANK: the LockRank enum must be totally ordered, every
    construction must use a declared rank, and the DESIGN.md section 9
    table must agree with both (doc drift is a finding)."""
    findings = []
    rank_h = tree.find_src("src/util/lock_rank.h")
    if rank_h is None:
        return findings  # tree has no lock-rank subsystem; nothing to check
    enum = parse_enum(rank_h, "LockRank")
    values = {name: val for name, val, _ in enum}

    # (a) declaration order must be strictly increasing: the enum IS the
    # total order the runtime checker enforces, so an out-of-order value
    # silently changes the hierarchy.
    prev = None
    for name, val, line in enum:
        if prev is not None and val <= prev[1]:
            findings.append(Finding(
                "MSW-LOCK-RANK", rank_h.rel, line,
                f"rank {name}={val} breaks the strictly-increasing "
                f"declaration order (follows {prev[0]}={prev[1]})"))
        prev = (name, val)

    reserved = set()
    for name, _val, line in enum:
        # Doc comment may trail the enumerator or sit on preceding lines.
        context = " ".join(rank_h.raw_line(l)
                           for l in range(max(1, line - 2), line + 1))
        if re.search(r"[Rr]eserved|[Oo]pted out", context):
            reserved.add(name)

    # (b) DESIGN table <-> enum agreement, both directions.
    table = {}
    if tree.design is not None:
        for i, line in enumerate(tree.design.raw_lines, 1):
            tm = _TABLE_ROW_RE.match(line.strip())
            if tm:
                table[tm.group(2)] = (int(tm.group(1)), tm.group(3), i)
        for name, (val, _locks, line) in sorted(table.items()):
            if name not in values:
                findings.append(Finding(
                    "MSW-LOCK-RANK", tree.design.rel, line,
                    f"DESIGN table lists rank {name} which does not "
                    "exist in util/lock_rank.h"))
            elif values[name] != val:
                findings.append(Finding(
                    "MSW-LOCK-RANK", tree.design.rel, line,
                    f"DESIGN table says {name}={val} but "
                    f"util/lock_rank.h says {values[name]} (doc drift)"))
        for name, val, line in enum:
            if name not in table:
                findings.append(Finding(
                    "MSW-LOCK-RANK", rank_h.rel, line,
                    f"rank {name}={val} missing from the DESIGN.md "
                    "locking-hierarchy table (doc drift)"))

    # (c) every construction uses a declared rank and is documented.
    used = set()
    for sf in tree.src:
        if sf.rel in _RANK_INFRA:
            continue
        for m in _RANK_CTOR_RE.finditer(sf.code):
            member, rank = m.group(1), m.group(2)
            line = sf.line_of(m.start())
            used.add(rank)
            if rank not in values:
                findings.append(Finding(
                    "MSW-LOCK-RANK", sf.rel, line,
                    f"construction of '{member}' uses undeclared rank "
                    f"LockRank::{rank}"))
                continue
            if table and rank in table and member not in table[rank][1]:
                findings.append(Finding(
                    "MSW-LOCK-RANK", sf.rel, line,
                    f"lock '{member}' (rank {rank}) is not named in the "
                    "DESIGN.md locking-hierarchy row for that rank "
                    "(doc drift)"))

    # (d) non-reserved ranks must be constructed somewhere, or they are
    # dead hierarchy slots that will silently rot.
    for name, val, line in enum:
        if name not in used and name not in reserved:
            findings.append(Finding(
                "MSW-LOCK-RANK", rank_h.rel, line,
                f"rank {name}={val} has no msw::Mutex/SpinLock "
                "construction (mark it Reserved or delete it)"))
    return findings


_ATOMIC_COUNTER_RE = re.compile(
    r"std::atomic<\s*(?:std::)?(u?int(?:8|16|32|64)?(?:_t)?|unsigned|"
    r"long|size_t|uint64_t|uintptr_t)\s*>\s*(\w+_)\s*[{;=]")
_COUNTER_NAME_RE = re.compile(
    r"(count|counts|bytes|calls|hits|misses|fails|failures|done|total)_$")


def rule_stat_cells(tree):
    """MSW-STAT-CELLS: statistic-shaped std::atomic members in the
    runtime layers belong in the striped core::StatCells, not as fresh
    contended cache lines."""
    findings = []
    for sf in tree.src:
        if not sf.rel.startswith(("src/core/", "src/alloc/")):
            continue
        if os.path.basename(sf.rel).startswith("stat_cells"):
            continue  # the striped-counter implementation itself
        for i, line in enumerate(sf.code_lines, 1):
            m = _ATOMIC_COUNTER_RE.search(line)
            if m and _COUNTER_NAME_RE.search(m.group(2)):
                findings.append(Finding(
                    "MSW-STAT-CELLS", sf.rel, i,
                    f"atomic counter member '{m.group(2)}' in the "
                    "runtime layers: route it through core::StatCells "
                    "(striped, cache-line padded) instead of a fresh "
                    "contended atomic"))
    return findings


def rule_shim_errno(tree):
    """MSW-SHIM-ERRNO: every malloc-family entry point must either
    delegate to another entry point or save/restore errno around engine
    calls, and must not contain throw expressions."""
    findings = []
    for sf, defs, entries in shim_files(tree):
        for fn in entries:
            start, end = defs[fn]
            body = sf.code[start:end]
            line = sf.line_of(start)
            if re.search(r"\bthrow\b", body):
                findings.append(Finding(
                    "MSW-SHIM-ERRNO", sf.rel, line,
                    f"shim entry point '{fn}' contains a throw "
                    "expression; entries must be noexcept-clean"))
            delegates = bool(calls_in(sf.code, start, end,
                                      set(entries) - {fn}))
            saves = re.search(r"=\s*errno\b", body)
            restores = re.search(r"\berrno\s*=", body)
            if not delegates and not (saves and restores):
                findings.append(Finding(
                    "MSW-SHIM-ERRNO", sf.rel, line,
                    f"shim entry point '{fn}' neither delegates to "
                    "another entry nor saves/restores errno; engine "
                    "calls issue syscalls that clobber the caller's "
                    "errno"))
    return findings


def rule_failpoint_xref(tree):
    """MSW-FAILPOINT-XREF: a Failpoint enumerator without an injection
    site is dead configuration surface; one without a test reference is
    an untested failure path."""
    findings = []
    fp_h = tree.find_src("src/util/failpoint.h")
    if fp_h is None:
        return findings
    enum = parse_enum(fp_h, "Failpoint", stop="kCount")
    src_refs = set()
    for sf in tree.src:
        if sf.rel.startswith("src/util/failpoint"):
            continue
        for m in re.finditer(r"Failpoint::(k\w+)", sf.code):
            src_refs.add(m.group(1))
    test_refs = set()
    for sf in tree.tests:
        for m in re.finditer(r"Failpoint::(k\w+)", sf.code):
            test_refs.add(m.group(1))
    for name, _val, line in enum:
        if name not in src_refs:
            findings.append(Finding(
                "MSW-FAILPOINT-XREF", fp_h.rel, line,
                f"Failpoint::{name} has no injection site in src/ "
                "(failpoint_should_fail call)"))
        if name not in test_refs:
            findings.append(Finding(
                "MSW-FAILPOINT-XREF", fp_h.rel, line,
                f"Failpoint::{name} is never referenced by a test; "
                "every injectable failure needs coverage"))
    return findings


_PTR_TO_INT_RE = re.compile(
    r"reinterpret_cast<\s*(?:std::)?(u?intptr_t|size_t)(?:\s+const)?\s*>")
_CAST_OPEN_RE = re.compile(r"reinterpret_cast\s*<")
_UINTPTR_DECL_RE = re.compile(r"(?:std::)?u?intptr_t\s+(\w+)\b")


def _reinterpret_casts(code):
    """Yield (offset, target_type, argument_text) for every
    reinterpret_cast, balancing nested template angle brackets."""
    for m in _CAST_OPEN_RE.finditer(code):
        i = m.end()
        depth = 1
        while i < len(code) and depth:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        if depth:
            continue
        target = code[m.end():i - 1].strip()
        j = i
        while j < len(code) and code[j].isspace():
            j += 1
        if j >= len(code) or code[j] != "(":
            continue
        close = _match_delim(code, j, "(", ")")
        if close < 0:
            continue
        yield m.start(), target, code[j + 1:close]


def rule_ub_ptr_cast(tree):
    """MSW-UB-PTR-CAST: pointer<->integer conversions are provenance
    hazards; they live behind msw::to_addr / msw::to_ptr / msw::to_ptr_of
    in src/util (and the mmap plumbing in src/vm), nowhere else."""
    findings = []
    # Members declared uintptr_t anywhere in the tree (trailing-underscore
    # names are unambiguous across files in this codebase's style).
    global_int_members = set()
    for sf in tree.src:
        for m in _UINTPTR_DECL_RE.finditer(sf.code):
            if m.group(1).endswith("_"):
                global_int_members.add(m.group(1))
    for sf in tree.src:
        if sf.rel.startswith(("src/util/", "src/vm/")):
            continue
        local_ints = {m.group(1)
                      for m in _UINTPTR_DECL_RE.finditer(sf.code)}
        for off, target, arg in _reinterpret_casts(sf.code):
            line = sf.line_of(off)
            if re.fullmatch(r"(?:std::)?(u?intptr_t|size_t)(\s+const)?",
                            target):
                findings.append(Finding(
                    "MSW-UB-PTR-CAST", sf.rel, line,
                    f"pointer-to-integer reinterpret_cast<{target}> "
                    "outside src/util|src/vm; use msw::to_addr()"))
                continue
            if not target.endswith("*"):
                continue
            root = re.match(r"\s*([A-Za-z_]\w*)", arg)
            rootname = root.group(1) if root else ""
            if (".base()" in arg or ".end()" in arg or
                    rootname in local_ints or
                    rootname in global_int_members):
                findings.append(Finding(
                    "MSW-UB-PTR-CAST", sf.rel, line,
                    "integer-to-pointer reinterpret_cast outside "
                    "src/util|src/vm; use msw::to_ptr()/to_ptr_of<T>()"))
    return findings


RULES = {
    "MSW-REENTRANT-ALLOC": rule_reentrant_alloc,
    "MSW-RAW-SYNC": rule_raw_sync,
    "MSW-LOCK-RANK": rule_lock_rank,
    "MSW-STAT-CELLS": rule_stat_cells,
    "MSW-SHIM-ERRNO": rule_shim_errno,
    "MSW-FAILPOINT-XREF": rule_failpoint_xref,
    "MSW-UB-PTR-CAST": rule_ub_ptr_cast,
}

ALL_RULES = dict(RULES)
ALL_RULES.update(INTERPROC_RULES)
ALL_RULES.update(ATOMIC_RULES)


def rule_description(rule_id):
    fn = ALL_RULES[rule_id]
    doc = " ".join((fn.__doc__ or "").split())
    doc = doc.split(": ", 1)[-1]  # drop the leading "MSW-...:" tag
    # First sentence (avoid splitting inside "e.g." style tokens; the
    # docstrings here end sentences with ". " or final ".").
    end = doc.find(". ")
    return (doc[:end + 1] if end >= 0 else doc).strip()


# SARIF names the engine that produced a run; there is one.
ENGINE = "textual"


def run_rule(rule_id, tree, program, atomics):
    if rule_id in INTERPROC_RULES:
        return INTERPROC_RULES[rule_id](tree, program)
    if rule_id in ATOMIC_RULES:
        return ATOMIC_RULES[rule_id](tree, atomics)
    return RULES[rule_id](tree)


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------

class Baseline:
    def __init__(self, path):
        self.path = path
        self.entries = {}  # (rule, rel, fp) -> justification
        self.errors = []
        self.matched = set()
        self.suppressed_findings = []  # (Finding, justification)
        if path is None or not os.path.isfile(path):
            return
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                body, _hash, just = line.partition(" #")
                parts = body.rstrip().split("|", 2)
                if len(parts) != 3:
                    self.errors.append(
                        f"{path}:{lineno}: malformed baseline entry "
                        "(want RULE|path|fingerprint  # justification)")
                    continue
                just = just.strip()
                if not just or just.upper().startswith("TODO"):
                    self.errors.append(
                        f"{path}:{lineno}: baseline entry for "
                        f"{parts[0]} at {parts[1]} has no justification "
                        "comment; every suppression must say why")
                    continue
                key = (parts[0], parts[1], fingerprint(parts[2]))
                self.entries[key] = just

    def suppresses(self, finding, tree):
        sf = None
        for cand in tree.src + tree.tests + \
                ([tree.design] if tree.design else []):
            if cand.rel == finding.rel:
                sf = cand
                break
        fp = fingerprint(sf.raw_line(finding.line)) if sf else ""
        key = (finding.rule, finding.rel, fp)
        if key in self.entries:
            self.matched.add(key)
            self.suppressed_findings.append(
                (finding, self.entries[key]))
            return True
        return False

    def stale(self, active_rules=None, active_paths=None):
        """Unmatched entries; with a --rule subset or a positional
        path scope, entries for rules/paths that did not run are
        unknown rather than stale."""
        unmatched = set(self.entries) - self.matched
        if active_rules is not None:
            unmatched = {k for k in unmatched if k[0] in active_rules}
        if active_paths is not None:
            unmatched = {k for k in unmatched
                         if _in_paths(k[1], active_paths)}
        return sorted(unmatched)


def _in_paths(rel, paths):
    """True when @p rel falls under one of the positional path scopes
    (repo-relative prefixes; 'src/' and 'src' both scope to src/)."""
    if not paths:
        return True
    rel = rel.replace(os.sep, "/")
    for p in paths:
        p = p.strip("/")
        if rel == p or rel.startswith(p + "/"):
            return True
    return False


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def analyze_root(root, rules, baseline_path, timings=None, paths=None,
                 want_atomics_model=False):
    """Returns (kept_findings, baseline, config_errors, atomics_model).
    Stale baseline entries are config errors: a suppression that matches
    nothing must be removed, or the baseline rots into an
    allow-everything list. @p paths optionally scopes findings (and the
    staleness check) to repo-relative prefixes."""
    t0 = time.perf_counter()
    tree = Tree(root)
    baseline = Baseline(baseline_path)
    if baseline.errors:
        return [], baseline, baseline.errors, None
    if timings is not None:
        timings["<tree>"] = time.perf_counter() - t0

    program = None
    if any(r in INTERPROC_RULES for r in rules):
        t0 = time.perf_counter()
        program = msw_graph.Program(tree)
        if timings is not None:
            timings["<call-graph>"] = time.perf_counter() - t0

    atomics = None
    if want_atomics_model or any(r in ATOMIC_RULES for r in rules):
        t0 = time.perf_counter()
        atomics = AtomicsModel(tree)
        if timings is not None:
            timings["<atomics>"] = time.perf_counter() - t0

    findings = []
    for rule_id in rules:
        t0 = time.perf_counter()
        findings.extend(run_rule(rule_id, tree, program, atomics))
        if timings is not None:
            timings[rule_id] = time.perf_counter() - t0
    findings = sorted({f.key(): f for f in findings}.values(),
                      key=lambda f: (f.rel, f.line, f.rule))
    if paths:
        # DESIGN.md drift findings stay in scope whenever src/ does:
        # the doc tables are checker input for the src rules.
        findings = [f for f in findings
                    if _in_paths(f.rel, paths) or
                    (f.rel == "DESIGN.md" and _in_paths("src", paths))]
    kept = [f for f in findings if not baseline.suppresses(f, tree)]

    errors = []
    for key in baseline.stale(active_rules=set(rules),
                              active_paths=paths):
        errors.append(
            f"stale suppression {key[0]}|{key[1]}|{key[2]} no longer "
            "matches any finding; remove stale suppression from "
            f"{baseline.path}")
    return kept, baseline, errors, atomics


def run_self_test(fixtures_dir, rules):
    cases = sorted(
        d for d in os.listdir(fixtures_dir)
        if os.path.isfile(os.path.join(fixtures_dir, d, "expect.txt")))
    if not cases:
        sys.stderr.write(
            f"msw-analyze: no fixture cases under {fixtures_dir}\n")
        return 2
    failures = 0
    for case in cases:
        root = os.path.join(fixtures_dir, case)
        with open(os.path.join(root, "expect.txt"), encoding="utf-8") as f:
            expect_lines = [ln.strip() for ln in f
                            if ln.strip() and not ln.startswith("#")]
        baseline = os.path.join(root, "baseline.txt")
        baseline = baseline if os.path.isfile(baseline) else None
        kept, bl, errors, _ = analyze_root(root, rules, baseline)
        got = sorted({f.rule for f in kept})
        # Every case doubles as a SARIF writer regression test: the
        # emitted document (suppression records included) must pass the
        # structural validator.
        doc = msw_sarif.to_sarif(
            kept, [(r, rule_description(r)) for r in rules], ENGINE,
            TOOL_VERSION, suppressed=bl.suppressed_findings)
        sarif_problems = msw_sarif.validate(doc)
        if expect_lines == ["exit:2"]:
            ok = bool(errors)
            want_desc = "configuration error"
        else:
            want = sorted(r for r in expect_lines if r != "none")
            ok = not errors and got == want
            want_desc = ", ".join(want) if want else "no findings"
        ok = ok and not sarif_problems
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {case}: expected {want_desc}; got "
              f"{', '.join(got) if got else 'no findings'}"
              f"{' + config errors' if errors else ''}")
        if not ok:
            for f in kept:
                print(f"    {f.rel}:{f.line}: {f.rule}: {f.msg}")
            for e in errors:
                print(f"    {e}")
            for p in sarif_problems:
                print(f"    sarif: {p}")
            failures += 1
    print(f"msw-analyze self-test: {len(cases) - failures}/{len(cases)} "
          "cases passed (SARIF validated per case)")
    return 1 if failures else 0


def rule_tier(rule_id):
    if rule_id in INTERPROC_RULES:
        return "interprocedural"
    if rule_id in ATOMIC_RULES:
        return "atomics"
    return "textual"


def main():
    ap = argparse.ArgumentParser(
        prog="msw_analyze.py",
        description="MineSweeper domain-specific static analyzer")
    script_dir = os.path.dirname(os.path.abspath(__file__))
    default_root = os.path.dirname(os.path.dirname(script_dir))
    ap.add_argument("--root", default=default_root,
                    help="analysis root containing src/ (default: repo)")
    ap.add_argument("--rule", action="append", default=[],
                    metavar="ID[,ID...]",
                    help="run specific rule(s) (repeatable, accepts "
                    "comma lists; default: all)")
    ap.add_argument("--baseline", default=None,
                    help="suppression baseline (default: "
                         "tools/analysis/baseline.txt under --root)")
    ap.add_argument("--sarif", metavar="PATH", default=None,
                    help="write SARIF 2.1.0 to PATH (for code scanning)")
    ap.add_argument("--timings", action="store_true",
                    help="print per-rule wall time")
    ap.add_argument("--self-test", metavar="FIXTURES_DIR",
                    help="run the fixture self-test and exit")
    ap.add_argument("--list-rules", action="store_true",
                    help="emit the rule catalogue as JSON and exit")
    ap.add_argument("--update-baseline", action="store_true",
                    help="append entries (marked TODO: justify) for "
                         "current findings to the baseline")
    ap.add_argument("--dump-atomics", metavar="PATH", default=None,
                    help="write the atomics inventory (declarations, "
                         "access sites with orders/annotations, fences, "
                         "section-13 protocols) as JSON; '-' for stdout")
    ap.add_argument("paths", nargs="*", metavar="PATH",
                    help="optional repo-relative path scopes (e.g. "
                         "'src/'): only findings under these prefixes "
                         "are reported")
    args = ap.parse_args()

    rules = list(ALL_RULES)
    selected = []
    for part in args.rule:
        selected += [r.strip() for r in part.split(",") if r.strip()]
    if selected:
        unknown = [r for r in selected if r not in ALL_RULES]
        if unknown:
            sys.stderr.write(
                f"msw-analyze: unknown rule(s): {', '.join(unknown)}\n")
            return 2
        rules = [r for r in ALL_RULES if r in selected]

    root = os.path.abspath(args.root)

    if args.list_rules:
        # Machine-readable: id, description, tier.
        catalogue = [{
            "id": rule_id,
            "description": rule_description(rule_id),
            "tier": rule_tier(rule_id),
        } for rule_id in rules]
        json.dump(catalogue, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    if args.self_test:
        return run_self_test(args.self_test, rules)

    if not os.path.isdir(os.path.join(root, "src")):
        sys.stderr.write(f"msw-analyze: no src/ under {root}\n")
        return 2

    baseline_path = args.baseline or os.path.join(
        root, "tools", "analysis", "baseline.txt")
    timings = {} if args.timings else None
    t_total = time.perf_counter()
    kept, baseline, errors, atomics = analyze_root(
        root, rules, baseline_path, timings=timings,
        paths=args.paths or None, want_atomics_model=True)
    t_total = time.perf_counter() - t_total
    for e in errors:
        sys.stderr.write(f"msw-analyze: error: {e}\n")
    if errors:
        return 2

    if args.dump_atomics:
        payload = atomics.dump_json()
        if args.dump_atomics == "-":
            sys.stdout.write(payload)
        else:
            with open(args.dump_atomics, "w", encoding="utf-8") as f:
                f.write(payload)
            print(f"msw-analyze: wrote atomics inventory to "
                  f"{args.dump_atomics}")

    for f in kept:
        print(f"{f.rel}:{f.line}: {f.rule}: {f.msg}")

    if args.sarif:
        doc = msw_sarif.to_sarif(
            kept, [(r, rule_description(r)) for r in rules], ENGINE,
            TOOL_VERSION, suppressed=baseline.suppressed_findings)
        problems = msw_sarif.validate(doc)
        if problems:
            for p in problems:
                sys.stderr.write(f"msw-analyze: sarif: {p}\n")
            return 2
        msw_sarif.write_sarif(args.sarif, doc)
        print(f"msw-analyze: wrote SARIF to {args.sarif} "
              f"({len(kept)} result(s), "
              f"{len(baseline.suppressed_findings)} suppressed)")

    if timings is not None:
        for rule_id, dt in sorted(timings.items(),
                                  key=lambda kv: -kv[1]):
            print(f"msw-analyze timing: {rule_id:<22s} {dt * 1e3:8.1f} ms")
        print(f"msw-analyze timing: {'total':<22s} {t_total * 1e3:8.1f} ms")

    if args.update_baseline and kept:
        tree = Tree(root)
        with open(baseline_path, "a", encoding="utf-8") as out:
            for f in kept:
                sf = next((s for s in tree.src + tree.tests if
                           s.rel == f.rel), None)
                fp = fingerprint(sf.raw_line(f.line)) if sf else ""
                out.write(f"{f.rule}|{f.rel}|{fp}  # TODO: justify\n")
        print(f"msw-analyze: appended {len(kept)} TODO entries to "
              f"{baseline_path}; runs stay red until justified")

    n_sup = len(baseline.matched)
    print(f"msw-analyze [{ENGINE}]: {len(kept)} finding(s), "
          f"{n_sup} suppressed by baseline, {len(rules)} rule(s)")
    return 1 if kept else 0


if __name__ == "__main__":
    sys.exit(main())
