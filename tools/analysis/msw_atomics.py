"""Atomics model and lock-free protocol checker for msw-analyze.

MineSweeper's correctness rests on a handful of lock-free protocols
being exactly right: the marker-scan races mutators against the sweep,
a CAS token serialises sweepers, epochs hand quarantined memory between
threads. TSan only sees orders that execute; this pass checks the
memory-order *discipline* statically, against the protocol catalogue
the design doc declares.

The model is built from the stripped sources (the accesses this
codebase uses are syntactically regular):

  * every `std::atomic<T>` field/global/local declaration (including
    pointer-to-atomic members like the shadow-map word arrays);
  * every access site — `.load/.store/.exchange/.fetch_*/
    .compare_exchange_{weak,strong}` members (of an atomic, or of a
    `std::atomic_ref<T>(obj)` over a plain field, keyed by the field's
    name) and the `__atomic_*` builtins — with its memory orders (success and failure for CAS),
    or the fact that the order was *defaulted* to seq_cst;
  * every `std::atomic_thread_fence` site;
  * CAS-loop shapes (loop spans, expected-variable refresh);
  * justification annotations scanned from the raw comment text.

Annotations (attached to an access if they appear on any line of the
access's statement or up to two lines above it):

  // msw-relaxed(<protocol>): <reason>   sanctions a relaxed access
  // msw-cas(<protocol>): <reason>       sanctions an ABA-shaped CAS loop
  // msw-fence(<protocol>): <reason>     names a lone fence's partner

`<protocol>` must name a row of the DESIGN.md section 13 protocol
table (see parse contract below) — an annotation naming an undeclared
protocol is a finding, and a declared protocol no annotation references
is doc drift, also a finding. Deleting a section-13 row therefore makes
the checker fail, exactly like the section-9 lock-rank table.

Rules:

  MSW-ATOMIC-ORDER  every relaxed access carries a justification naming
                    a declared protocol; no access defaults its order
                    to seq_cst; every release store has a matching
                    acquire-side access of the same atomic somewhere in
                    the program, and vice versa (orphaned halves of a
                    release/acquire pair are wrong or wasted ordering)
  MSW-CAS-LOOP      CAS loops over pointer-payload atomics are
                    ABA-prone (quarantine addresses recycle) and need a
                    msw-cas justification naming the protocol that tags
                    or fences them; a strong CAS retried in a loop must
                    refresh its expected value; a CAS failure order
                    must not be release/acq_rel or stronger than its
                    success order
  MSW-FENCE-PAIR    a release fence needs an acquire fence somewhere in
                    the program (and vice versa) or an msw-fence
                    justification naming its protocol; relaxed fences
                    are no-ops and always flagged

Approximations, deliberately simple and documented: atomics are keyed
by *name* across the whole tree (two same-named members merge — fine
for pairing, which only needs "some matching side exists"), and the
release/acquire matching is whole-program rather than per-thread-entry
(an under-approximation of "reachable from another thread entry": it
never flags a protocol the graph could prove paired, it only misses
pairs that are unreachable from any second thread).

DESIGN.md section 13 parse contract (the table IS the checker input):
a `## 13.` heading followed by a pipe table whose rows start with a
backtick-quoted protocol name; the second cell lists the backtick-
quoted atomics involved (`Class::member_` — matched by the last `::`
component); remaining cells are prose (happens-before claim, dynamic
test cross-reference) the checker does not interpret.
"""

import json
import re

from msw_common import Finding, _match_delim

ATOMIC_FACTS_VERSION = 3

# Memory-order spellings: std::memory_order_relaxed,
# std::memory_order::relaxed, and the __ATOMIC_RELAXED builtin macros.
_ORDER_RE = re.compile(
    r"\bmemory_order(?:::|_)(relaxed|consume|acquire|release|acq_rel|"
    r"seq_cst)\b|__ATOMIC_(RELAXED|CONSUME|ACQUIRE|RELEASE|ACQ_REL|"
    r"SEQ_CST)\b")

# Member operations. load/store are generic words (any class may have
# them); the rest are distinctive enough to imply an atomic receiver.
_MEMBER_OPS = ("load", "store", "exchange", "compare_exchange_weak",
               "compare_exchange_strong", "fetch_add", "fetch_sub",
               "fetch_and", "fetch_or", "fetch_xor")
_DISTINCT_OPS = frozenset(_MEMBER_OPS) - {"load", "store"}
_CAS_OPS = frozenset(("compare_exchange_weak", "compare_exchange_strong"))

_MEMBER_ACCESS_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:\[[^][]*\])?\s*(?:\.|->)\s*(" +
    "|".join(_MEMBER_OPS) + r")\s*\(")
# Call-result receivers: `log_level_ref().load(...)` — keyed by the
# function name, which is identity enough for pairing.
_RESULT_ACCESS_RE = re.compile(
    r"([A-Za-z_]\w*)\s*\(\s*\)\s*\.\s*(" + "|".join(_MEMBER_OPS) +
    r")\s*\(")
# `std::atomic_ref[<T>](obj).op(...)`: an atomic access to a plain field.
_ATOMIC_REF_RE = re.compile(r"\batomic_ref\b(?:\s*<[^;(){}]*>)?\s*\(")
_REF_OP_RE = re.compile(
    r"\s*\.\s*(" + "|".join(_MEMBER_OPS) + r")\s*\(")
_BUILTIN_RE = re.compile(
    r"__atomic_(load_n|load|store_n|store|exchange_n|exchange|"
    r"fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    r"compare_exchange_n|compare_exchange)\s*\(")
_FENCE_RE = re.compile(r"\batomic_thread_fence\s*\(")

_DECL_RE = re.compile(
    r"std::atomic\s*<")
_ANN_RE = re.compile(
    r"msw-(relaxed|cas|fence)\(([A-Za-z0-9_-]+)\)\s*(:?)\s*(.*)")

# First identifier of an expression that names the accessed object,
# skipping cast/helper wrappers.
_SKIP_IDENTS = frozenset((
    "to_ptr_of", "to_ptr", "static_cast", "reinterpret_cast",
    "const_cast", "std", "const", "volatile", "unsigned", "signed",
    "char", "short", "int", "long", "uint8_t", "uint16_t", "uint32_t",
    "uint64_t", "size_t", "uintptr_t", "detail"))

_PROTO_HEADING_RE = re.compile(r"^##\s*13\.")
_PROTO_ROW_RE = re.compile(r"^\|\s*`([A-Za-z0-9_-]+)`\s*\|([^|]*)\|")
_BACKTICK_RE = re.compile(r"`([^`]+)`")


def _expr_ident(arg):
    """Best-effort name of the object a builtin's address argument
    denotes: the first identifier that is not a cast/helper."""
    for m in re.finditer(r"[A-Za-z_]\w*", arg):
        if m.group(0) not in _SKIP_IDENTS:
            return m.group(0)
    return "<expr>"


def _loop_spans(code):
    """[(start, end)] character spans whose contents execute repeatedly:
    while/for bodies and conditions, do { } while (cond) including the
    trailing condition. Nested loops simply produce nested spans."""
    spans = []
    for m in re.finditer(r"\b(while|for)\s*\(", code):
        open_p = code.index("(", m.end() - 1)
        close_p = _match_delim(code, open_p, "(", ")")
        if close_p < 0:
            continue
        j = close_p + 1
        while j < len(code) and code[j].isspace():
            j += 1
        if j < len(code) and code[j] == "{":
            close_b = _match_delim(code, j, "{", "}")
            if close_b > 0:
                spans.append((open_p, close_b))
            continue
        # Single-statement body (or `} while (...)` of a do-loop, which
        # has no body here: the condition span still counts as looped).
        end = code.find(";", j)
        spans.append((open_p, end if end > 0 else close_p))
    for m in re.finditer(r"\bdo\b", code):
        j = m.end()
        while j < len(code) and code[j].isspace():
            j += 1
        if j >= len(code) or code[j] != "{":
            continue
        close_b = _match_delim(code, j, "{", "}")
        if close_b < 0:
            continue
        tail = re.match(r"\s*while\s*\(", code[close_b + 1:])
        end = close_b
        if tail:
            open_p = close_b + 1 + tail.end() - 1
            close_p = _match_delim(code, open_p, "(", ")")
            if close_p > 0:
                end = close_p
        spans.append((j, end))
    return spans


def _in_any(spans, off):
    return any(s <= off <= e for s, e in spans)


def _collect_annotations(sf):
    """{line: (kind, protocol, has_colon, reason)} from raw comments.

    An annotation is keyed at the *last line of its contiguous comment
    block*, not the line carrying the marker: a marker followed by
    continuation `//` lines still sanctions the two code lines after
    the block, so multi-line justifications don't eat the window."""
    anns = {}
    lines = sf.raw_lines
    for lineno, raw in enumerate(lines, 1):
        m = _ANN_RE.search(raw)
        if m:
            end = lineno
            while end < len(lines) and \
                    lines[end].lstrip().startswith("//"):
                end += 1
            anns[end] = (m.group(1), m.group(2), m.group(3) == ":",
                         m.group(4).strip())
    return anns


def _decl_sites(sf):
    """Declarations of std::atomic objects: (name, value_type,
    ptr_to_atomic, line). Handles members, globals, statics, arrays,
    and pointer-to-atomic members (`std::atomic<T>* words_`)."""
    out = []
    code = sf.code
    for m in _DECL_RE.finditer(code):
        open_a = code.index("<", m.end() - 1)
        depth = 0
        i = open_a
        while i < len(code):
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if depth:
            continue
        value_type = " ".join(code[open_a + 1:i].split())
        rest = code[i + 1:i + 160]
        dm = re.match(
            r"\s*(\*?)\s*&?\s*([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*[;{=(,)]",
            rest)
        if not dm:
            continue
        name = dm.group(2)
        if name in ("operator",):
            continue
        out.append({
            "name": name,
            "type": value_type,
            "ptr": dm.group(1) == "*",
            "line": sf.line_of(m.start()),
        })
    return out


def extract_atomics_facts(sf):
    """Per-file atomics model fragment."""
    code = sf.code
    anns = _collect_annotations(sf)
    loops = _loop_spans(code)

    def annotation_for(kind, line_start, line_end):
        for ln in range(line_start - 2, line_end + 1):
            ann = anns.get(ln)
            if ann is not None and ann[0] == kind:
                return ann
        return None

    accesses = []

    def record(var, op, args_start, args_end, off):
        args = code[args_start + 1:args_end]
        orders = ["_".join(filter(None, g)).lower()
                  for g in _ORDER_RE.findall(args)]
        line_start = sf.line_of(off)
        line_end = sf.line_of(args_end)
        expected_var = ""
        refreshed = False
        in_loop = _in_any(loops, off)
        if op in _CAS_OPS or op.startswith("compare_exchange"):
            em = re.match(r"\s*&?\s*([A-Za-z_]\w*)", args)
            # Builtins pass (&atomic, &expected, ...): expected is the
            # second argument there, first for the member form.
            if op.startswith("compare_exchange") and op not in _CAS_OPS:
                parts = args.split(",")
                em = re.match(r"\s*&?\s*([A-Za-z_]\w*)",
                              parts[1]) if len(parts) > 1 else None
            if em:
                expected_var = em.group(1)
            if in_loop and expected_var:
                for s, e in loops:
                    if s <= off <= e:
                        body = code[s:e]
                        if re.search(
                                r"\b(?:bool\s+|auto\s+)?" +
                                re.escape(expected_var) + r"\s*=",
                                body):
                            refreshed = True
                            break
        accesses.append({
            "var": var, "op": op, "orders": orders,
            "line": line_start, "line_end": line_end,
            "defaulted": not orders,
            "in_loop": in_loop, "expected": expected_var,
            "refreshed": refreshed,
            "ref": False,
            "ann": annotation_for(
                "cas" if op in _CAS_OPS or
                op.startswith("compare_exchange") else "relaxed",
                line_start, line_end),
        })

    claimed = set()
    for m in _MEMBER_ACCESS_RE.finditer(code):
        open_p = code.index("(", m.end() - 1)
        close_p = _match_delim(code, open_p, "(", ")")
        if close_p < 0:
            continue
        claimed.add(open_p)
        record(m.group(1), m.group(2), open_p, close_p, m.start())
    for m in _ATOMIC_REF_RE.finditer(code):
        ref_open = m.end() - 1
        ref_close = _match_delim(code, ref_open, "(", ")")
        op = _REF_OP_RE.match(code, ref_close + 1) if ref_close > 0 \
            else None
        if op is None:
            continue
        names = re.findall(r"[A-Za-z_]\w*", code[ref_open:ref_close])
        open_p = op.end() - 1
        close_p = _match_delim(code, open_p, "(", ")")
        if names and close_p >= 0:
            record(names[-1], op.group(1), open_p, close_p, m.start())
            accesses[-1]["ref"] = True
    for m in _RESULT_ACCESS_RE.finditer(code):
        open_p = code.index("(", m.end() - 1)
        close_p = _match_delim(code, open_p, "(", ")")
        if close_p < 0 or open_p in claimed:
            continue
        record(m.group(1), m.group(2), open_p, close_p, m.start())
    for m in _BUILTIN_RE.finditer(code):
        open_p = code.index("(", m.end() - 1)
        close_p = _match_delim(code, open_p, "(", ")")
        if close_p < 0:
            continue
        args = code[open_p + 1:close_p]
        first = args.split(",", 1)[0]
        op = "__atomic_" + m.group(1)
        norm = {"load_n": "load", "load": "load", "store_n": "store",
                "store": "store", "exchange_n": "exchange",
                "exchange": "exchange"}.get(m.group(1), m.group(1))
        if norm.startswith("compare_exchange"):
            norm = "compare_exchange_strong"
        record(_expr_ident(first), norm, open_p, close_p, m.start())
        accesses[-1]["builtin"] = op

    fences = []
    for m in _FENCE_RE.finditer(code):
        open_p = code.index("(", m.end() - 1)
        close_p = _match_delim(code, open_p, "(", ")")
        if close_p < 0:
            continue
        args = code[open_p + 1:close_p]
        orders = ["_".join(filter(None, g)).lower()
                  for g in _ORDER_RE.findall(args)]
        line = sf.line_of(m.start())
        fences.append({
            "order": orders[0] if orders else "seq_cst",
            "line": line,
            "ann": annotation_for("fence", line, sf.line_of(close_p)),
        })

    return {
        "decls": _decl_sites(sf),
        "accesses": accesses,
        "fences": fences,
    }


# --------------------------------------------------------------------------
# Protocol table (DESIGN.md section 13)
# --------------------------------------------------------------------------

def parse_protocol_table(design_sf):
    """{protocol: {"atomics": [names], "line": n}} from the section-13
    table. Atomic tokens are reduced to their last `::` component with
    array/pointer decoration stripped; tokens ending in `()` (helper
    functions named for context) are ignored."""
    protocols = {}
    if design_sf is None:
        return protocols
    in_section = False
    for lineno, raw in enumerate(design_sf.raw_lines, 1):
        stripped = raw.strip()
        if stripped.startswith("## "):
            in_section = bool(_PROTO_HEADING_RE.match(stripped))
            continue
        if not in_section:
            continue
        m = _PROTO_ROW_RE.match(stripped)
        if not m:
            continue
        atoms = []
        for tok in _BACKTICK_RE.findall(m.group(2)):
            tok = tok.strip()
            if tok.endswith("()"):
                continue
            tok = tok.split("::")[-1].rstrip("*").split("[")[0].strip()
            if tok:
                atoms.append(tok)
        protocols[m.group(1)] = {"atomics": atoms, "line": lineno}
    return protocols


# --------------------------------------------------------------------------
# Linked model
# --------------------------------------------------------------------------

_RELEASE_SIDE = frozenset(("release", "acq_rel", "seq_cst"))
_ACQUIRE_SIDE = frozenset(("acquire", "consume", "acq_rel", "seq_cst"))
_STRENGTH = {"relaxed": 0, "consume": 1, "acquire": 2, "release": 2,
             "acq_rel": 3, "seq_cst": 4}


class AtomicsModel:
    """Whole-tree atomics inventory: declarations, accesses, fences,
    and the declared protocol catalogue, keyed for the three rules."""

    def __init__(self, tree):
        self.tree = tree
        self.facts = {sf.rel: extract_atomics_facts(sf) for sf in tree.src}
        self.protocols = parse_protocol_table(tree.design)
        self._link()

    def _link(self):
        self.decl_names = set()
        self.ptr_payload = set()   # atomics whose value type is T*
        self.access_names = set()
        self.release_side = set()  # names with a release-side op
        self.acquire_side = set()  # names with an acquire-side op
        for rel, facts in sorted(self.facts.items()):
            for d in facts["decls"]:
                self.decl_names.add(d["name"])
                if d["type"].endswith("*") and not d["ptr"]:
                    self.ptr_payload.add(d["name"])
            for a in facts["accesses"]:
                self.access_names.add(a["var"])
                orders = a["orders"]
                success = orders[0] if orders else None
                op = a["op"]
                if success is None or a["ref"]:
                    continue
                is_rmw = op not in ("load", "store")
                if (op != "load" and success in _RELEASE_SIDE) and \
                        (is_rmw or op == "store"):
                    self.release_side.add(a["var"])
                if (op != "store" and success in _ACQUIRE_SIDE) and \
                        (is_rmw or op == "load"):
                    self.acquire_side.add(a["var"])
        self.fence_orders = set()
        for facts in self.facts.values():
            for f in facts["fences"]:
                self.fence_orders.add(f["order"])

    def is_atomic_access(self, access):
        return (not access["defaulted"] or
                access["op"] in _DISTINCT_OPS or
                access["var"] in self.decl_names)

    # -- dump ---------------------------------------------------------

    def dump(self):
        """JSON-ready inventory for --dump-atomics and the
        atomics_report tool."""
        files = {}
        for rel, facts in sorted(self.facts.items()):
            if not facts["accesses"] and not facts["decls"] and \
                    not facts["fences"]:
                continue
            files[rel] = {
                "decls": facts["decls"],
                "accesses": [{
                    "var": a["var"], "op": a["op"],
                    "orders": a["orders"], "line": a["line"],
                    "defaulted": a["defaulted"],
                    "annotated": a["ann"][1] if a["ann"] else None,
                } for a in facts["accesses"]
                    if self.is_atomic_access(a)],
                "fences": [{
                    "order": f["order"], "line": f["line"],
                    "annotated": f["ann"][1] if f["ann"] else None,
                } for f in facts["fences"]],
            }
        return {
            "version": ATOMIC_FACTS_VERSION,
            "protocols": {
                name: {"atomics": p["atomics"], "line": p["line"]}
                for name, p in sorted(self.protocols.items())},
            "files": files,
        }

    def dump_json(self):
        return json.dumps(self.dump(), indent=2) + "\n"


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

def _check_annotation(model, rel, line, ann, used_protocols, findings,
                      what):
    """Shared annotation validity: must name a declared protocol and
    carry a reason. Returns True when the annotation sanctions."""
    kind, proto, has_colon, reason = ann
    used_protocols.add(proto)
    if proto not in model.protocols:
        findings.append(Finding(
            "MSW-ATOMIC-ORDER", rel, line,
            f"{what} names protocol '{proto}' which is not declared in "
            "the DESIGN.md section-13 protocol table (add the row or "
            "fix the name; the table is the checker's input)"))
        return False
    if not has_colon or not reason:
        findings.append(Finding(
            "MSW-ATOMIC-ORDER", rel, line,
            f"{what} has no reason after the protocol name; write "
            f"'msw-{kind}({proto}): <why this ordering is sufficient>'"))
        return False
    return True


def rule_atomic_order(tree, model):
    """MSW-ATOMIC-ORDER: every relaxed access must carry a
    'msw-relaxed(<protocol>): <reason>' justification naming a declared
    section-13 protocol; no access may default its memory order to
    seq_cst (an explicit seq_cst is a decision, a defaulted one is
    usually an unexamined one); release stores and acquire loads must
    have a matching opposite side on the same atomic somewhere in the
    program; and the protocol table must agree with the annotations in
    both directions (undeclared and unreferenced protocols are both
    findings, like the section-9 lock-rank table)."""
    findings = []
    used_protocols = set()
    flagged_orphans = set()
    for rel, facts in sorted(model.facts.items()):
        for a in facts["accesses"]:
            if not model.is_atomic_access(a):
                continue
            orders = a["orders"]
            if a["defaulted"]:
                findings.append(Finding(
                    "MSW-ATOMIC-ORDER", rel, a["line"],
                    f"'{a['var']}.{a['op']}' defaults its memory order "
                    "to seq_cst; state the order explicitly (seq_cst "
                    "included) so the protocol is a decision, not a "
                    "default"))
                continue
            if "relaxed" in orders:
                ann = a["ann"]
                if ann is None:
                    findings.append(Finding(
                        "MSW-ATOMIC-ORDER", rel, a["line"],
                        f"relaxed access '{a['var']}.{a['op']}' has no "
                        "'// msw-relaxed(<protocol>): <reason>' "
                        "justification naming a DESIGN.md section-13 "
                        "protocol"))
                else:
                    _check_annotation(
                        model, rel, a["line"], ann, used_protocols,
                        findings,
                        f"relaxed-access justification on '{a['var']}'")
            elif a["ann"] is not None and a["ann"][0] == "relaxed":
                # Keep the table's reference graph honest even when the
                # annotated access is not relaxed (e.g. documentation on
                # the release half of a protocol).
                used_protocols.add(a["ann"][1])
            success = orders[0]
            var = a["var"]
            # Pairing is checked per declared atomic; a field reached
            # through atomic_ref is not one, whatever its name.
            if a["ref"] or var not in model.decl_names or \
                    var in flagged_orphans:
                continue
            op = a["op"]
            if op == "store" and success in ("release", "seq_cst") and \
                    var not in model.acquire_side:
                flagged_orphans.add(var)
                findings.append(Finding(
                    "MSW-ATOMIC-ORDER", rel, a["line"],
                    f"release store to '{var}' has no acquire-side "
                    "access of the same atomic anywhere in the program "
                    "(orphaned release: either the acquire half is "
                    "missing or the release ordering is wasted — make "
                    "it relaxed and justify it)"))
            if op == "load" and success in ("acquire", "seq_cst") and \
                    var not in model.release_side:
                flagged_orphans.add(var)
                findings.append(Finding(
                    "MSW-ATOMIC-ORDER", rel, a["line"],
                    f"acquire load of '{var}' has no release-side "
                    "access of the same atomic anywhere in the program "
                    "(orphaned acquire: nothing publishes with release "
                    "ordering, so this synchronises with nothing)"))

    design_rel = tree.design.rel if tree.design else "DESIGN.md"
    for proto, info in sorted(model.protocols.items()):
        if proto not in used_protocols:
            findings.append(Finding(
                "MSW-ATOMIC-ORDER", design_rel, info["line"],
                f"protocol '{proto}' is declared in the section-13 "
                "table but no msw-relaxed/msw-cas/msw-fence annotation "
                "references it (doc drift: delete the row or annotate "
                "its accesses)"))
        for atom in info["atomics"]:
            if atom not in model.decl_names and \
                    atom not in model.access_names:
                findings.append(Finding(
                    "MSW-ATOMIC-ORDER", design_rel, info["line"],
                    f"protocol '{proto}' lists atomic '{atom}' which "
                    "matches no std::atomic declaration or access in "
                    "src/ (doc drift)"))
    return findings


def rule_cas_loop(tree, model):
    """MSW-CAS-LOOP: a CAS loop whose payload is a raw pointer is
    ABA-prone in an allocator (freed addresses recycle through the
    quarantine and come back bit-identical) and must carry a
    'msw-cas(<protocol>): <reason>' naming the protocol whose
    generation/tag word (or single-writer structure) defuses it; a
    strong CAS retried in a loop must refresh its expected value inside
    the loop (weak CAS refreshes it by contract); and a CAS failure
    order must not be release/acq_rel or stronger than the success
    order."""
    findings = []
    used = set()
    for rel, facts in sorted(model.facts.items()):
        for a in facts["accesses"]:
            op = a["op"]
            if op not in _CAS_OPS:
                continue
            orders = a["orders"]
            if len(orders) >= 2:
                success, failure = orders[0], orders[1]
                if failure in ("release", "acq_rel"):
                    findings.append(Finding(
                        "MSW-CAS-LOOP", rel, a["line"],
                        f"CAS on '{a['var']}' uses failure order "
                        f"'{failure}': a failed CAS performs no store, "
                        "so release semantics are meaningless there "
                        "(and ill-formed before C++17)"))
                elif _STRENGTH[failure] > _STRENGTH[success]:
                    findings.append(Finding(
                        "MSW-CAS-LOOP", rel, a["line"],
                        f"CAS on '{a['var']}' has failure order "
                        f"'{failure}' stronger than success order "
                        f"'{success}'; the failure path cannot need "
                        "more ordering than the success path"))
            if not a["in_loop"]:
                continue
            if a["var"] in model.ptr_payload:
                ann = a["ann"]
                if ann is None:
                    findings.append(Finding(
                        "MSW-CAS-LOOP", rel, a["line"],
                        f"CAS loop over pointer-payload atomic "
                        f"'{a['var']}' is ABA-prone (a freed pointer "
                        "can recycle to the same bits between load and "
                        "CAS); add a generation/tag word or justify "
                        "with '// msw-cas(<protocol>): <reason>'"))
                else:
                    used.add(ann[1])
                    _check_annotation(
                        model, rel, a["line"], ann, used, findings,
                        f"CAS-loop justification on '{a['var']}'")
            if op == "compare_exchange_strong" and a["expected"] and \
                    not a["refreshed"]:
                findings.append(Finding(
                    "MSW-CAS-LOOP", rel, a["line"],
                    f"strong CAS on '{a['var']}' retried in a loop "
                    f"never refreshes expected value "
                    f"'{a['expected']}' inside the loop; a stale "
                    "expected spins forever (use the weak form, which "
                    "updates it, or reassign it in the loop body)"))
    return findings


def rule_fence_pair(tree, model):
    """MSW-FENCE-PAIR: atomic_thread_fence sites must pair — a release
    fence synchronises only with an acquire fence (or acquire
    operation) elsewhere, so a program with one half and not the other
    has either a missing fence or a wasted one. A lone half may instead
    carry '// msw-fence(<protocol>): <reason>' naming the section-13
    protocol that documents its partner (e.g. an acquire *operation*
    rather than a fence). Relaxed fences are no-ops and always
    flagged."""
    findings = []
    used = set()
    for rel, facts in sorted(model.facts.items()):
        for f in facts["fences"]:
            order = f["order"]
            if order == "relaxed":
                findings.append(Finding(
                    "MSW-FENCE-PAIR", rel, f["line"],
                    "atomic_thread_fence(memory_order_relaxed) is a "
                    "no-op; delete it or state the intended order"))
                continue
            if order in ("acq_rel", "seq_cst"):
                continue  # self-pairing orders
            partner = "acquire" if order == "release" else "release"
            paired = partner in model.fence_orders or \
                "acq_rel" in model.fence_orders or \
                "seq_cst" in model.fence_orders
            if paired:
                continue
            ann = f["ann"]
            if ann is None:
                findings.append(Finding(
                    "MSW-FENCE-PAIR", rel, f["line"],
                    f"{order} fence has no matching {partner} fence "
                    "anywhere in the program; add the partner or name "
                    "it with '// msw-fence(<protocol>): <reason>'"))
            else:
                used.add(ann[1])
                _check_annotation(
                    model, rel, f["line"], ann, used, findings,
                    f"fence justification")
    return findings


ATOMIC_RULES = {
    "MSW-ATOMIC-ORDER": rule_atomic_order,
    "MSW-CAS-LOOP": rule_cas_loop,
    "MSW-FENCE-PAIR": rule_fence_pair,
}
