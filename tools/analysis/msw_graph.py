"""Whole-program model for msw-analyze's interprocedural rules.

Builds a cross-TU call graph over every file in the analysis tree: a
generic function-definition scanner plus receiver-typed call resolution
over the stripped sources.

On top of the graph sit the dataflow passes the rules consume:

  * per-function summaries (exit-held / exit-released rank sets) and an
    entry-context fixpoint that propagates held-rank sets through call
    edges (MSW-LOCK-HELD);
  * reachability with witness paths from signal handlers, atfork child
    hooks (MSW-SIGNAL-SAFE) and fast-path roots (MSW-TLS-FASTPATH).

Source annotations (scanned from raw comment lines, attached to the
next function definition):

  // msw-analyze: fast-path                 extra MSW-TLS-FASTPATH root
  // msw-analyze: slow-path(<why>)          sanctioned fast-path exit
  // msw-analyze: fork-deferred(<why>)      runs after the child hook
                                            has reinitialised the locks
"""

import re

from msw_common import _KEYWORDS, _SHIM_ENTRIES, _ATFORK_RE, \
    _SIG_INSTALL_RES, _match_delim, parse_enum

TAG_RE = re.compile(
    r"msw-analyze:\s*(fast-path|slow-path|fork-deferred)"
    r"\s*(?:\(([^)]*)\))?")

_DEF_NAME_RE = re.compile(
    r"(~?[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)*)\s*\(")
_CALL_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")
_CLASS_RE = re.compile(
    r"\b(?:class|struct)\s+"
    r"((?:MSW_\w+\s*(?:\([^()]*\))?\s+)*)"
    r"([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*"
    r"(final\s*)?(:\s*[^;{}]*)?\{")
_RANKED_DECL_RE = re.compile(
    r"\b(?:\w+::)*(?:SpinLock|Mutex)\s+(?:[A-Za-z_]\w*::)*"
    r"([A-Za-z_]\w*)\s*[{(]\s*(?:\w+::)*LockRank::(k\w+)")
_GUARD_RE = re.compile(
    r"\b(LockGuard|MutexGuard|UniqueLock)\s*(?:<[^;<>]*>)?\s+(\w+)\s*"
    r"[({]\s*((?:[A-Za-z_]\w*(?:\s*(?:\.|->)\s*))*[A-Za-z_]\w*)")
_LOCK_OP_RE = re.compile(
    r"([A-Za-z_]\w*)\s*(?:\.|->)\s*(lock|unlock|try_lock)\s*\(")
_TYPE_HINT_RE = re.compile(
    r"\b([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*(<[^;{}<>]*>)?\s*"
    r"[*&]{0,2}\s+([a-z_]\w*)\s*[;=({,)\[]")
_BASE_RE = re.compile(r"[:,]\s*(?:public|protected|private|virtual|\s)*"
                      r"([A-Za-z_][\w:]*)")

_GUARD_TYPES = {"LockGuard", "MutexGuard", "UniqueLock"}
_LOCK_OPS = {"lock", "unlock", "try_lock"}
# Words that may legitimately precede a receiverless call expression;
# any *other* identifier in that position makes `name(` a declaration
# (`Type name(args);`), not a call.
_CALL_PREV_OK = {"return", "throw", "new", "delete", "case", "goto",
                 "else", "do", "co_return", "co_yield", "co_await",
                 "and", "or", "not", "in"}


def _is_macro_name(name):
    return re.fullmatch(r"[A-Z][A-Z0-9_]*", name) is not None


def _scan_def_after_params(code, j):
    """Offset of the body '{' if the text starting just past a
    parameter list's ')' continues as a function definition, else -1.
    Skips const/noexcept/override/final/try, MSW_* attribute macros
    (with optional argument lists), trailing return types, and
    constructor initialiser lists (whose lambda bodies and member
    brace-inits must not be mistaken for the function body)."""
    n = len(code)
    while j < n:
        c = code[j]
        if c.isspace():
            j += 1
            continue
        if c == "{":
            return j
        if c == ":":
            j += 1
            depth = 0
            prev = ":"
            while j < n:
                c = code[j]
                if c in "([":
                    depth += 1
                elif c in ")]":
                    depth -= 1
                elif c == "{":
                    if depth == 0 and not (prev.isalnum() or
                                           prev in "_>"):
                        return j
                    close = _match_delim(code, j, "{", "}")
                    if close < 0:
                        return -1
                    j = close + 1
                    prev = "}"
                    continue
                elif c == ";" and depth == 0:
                    return -1
                if not c.isspace():
                    prev = c
                j += 1
            return -1
        if c == "-" and j + 1 < n and code[j + 1] == ">":
            j += 2
            depth = 0
            while j < n:
                c = code[j]
                if c in "([":
                    depth += 1
                elif c in ")]":
                    depth -= 1
                elif c == "{" and depth == 0:
                    return j
                elif c == ";" and depth == 0:
                    return -1
                j += 1
            return -1
        if c.isalpha() or c == "_":
            m = re.match(r"[A-Za-z_]\w*", code[j:])
            word = m.group(0)
            if word in ("const", "noexcept", "override", "final",
                        "mutable", "volatile", "try") or \
                    _is_macro_name(word):
                j += len(word)
                k = j
                while k < n and code[k].isspace():
                    k += 1
                if k < n and code[k] == "(":
                    close = _match_delim(code, k, "(", ")")
                    if close < 0:
                        return -1
                    j = close + 1
                continue
            return -1
        return -1
    return -1


def _class_spans(code):
    """[(name, bases, body_open, body_close)] for class/struct bodies."""
    spans = []
    for m in _CLASS_RE.finditer(code):
        if re.search(r"enum\s+$", code[:m.start()]):
            continue  # enum class
        name = m.group(2).split("::")[-1]
        open_b = code.index("{", m.end() - 1)
        close_b = _match_delim(code, open_b, "{", "}")
        if close_b < 0:
            continue
        bases = []
        if m.group(4):
            for bm in _BASE_RE.finditer(m.group(4)):
                base = bm.group(1).split("::")[-1]
                if base not in ("public", "protected", "private",
                                "virtual"):
                    bases.append(base)
        spans.append((name, bases, open_b, close_b))
    return spans


def _enclosing_class(spans, off):
    best = None
    for name, _bases, s, e in spans:
        if s <= off <= e and (best is None or s > best[1]):
            best = (name, s)
    return best[0] if best else ""


def _return_hint(code, sig_off):
    """Best-effort return-type class for the definition whose name
    starts at sig_off (repo style puts the return type right before the
    name, often on its own line)."""
    seg = code[max(0, sig_off - 160):sig_off]
    cut = max(seg.rfind(c) for c in ";}{#")
    seg = seg[cut + 1:]
    hint = ""
    for tok in re.findall(r"[A-Za-z_][\w:]*", seg):
        last = tok.split("::")[-1]
        if last in ("static", "inline", "constexpr", "virtual",
                    "explicit", "const", "friend", "extern", "void") or \
                _is_macro_name(last):
            continue
        if last[0].isupper():
            hint = last
    return hint


def _prev_nonspace(code, i):
    j = i - 1
    while j >= 0 and code[j].isspace():
        j -= 1
    return j


def _receiver_before(code, name_off):
    """Classify what precedes a `name(` call expression.

    Returns (rkind, recv): rkind one of
      'bare'    nothing / punctuation / keyword before the name
      'var'     `ident.` or `ident->`
      'scope'   `Ident::` (class or namespace — resolved at link time)
      'result'  `fn(...).` or `fn(...)->` (typed via fn's return hint)
      'unknown' `).`/`].` receiver that cannot be traced to a call
      None      not a call at all (declaration `Type name(...)`)
    """
    j = _prev_nonspace(code, name_off)
    if j < 0:
        return "bare", ""
    c = code[j]
    if c == ":" and j > 0 and code[j - 1] == ":":
        k = _prev_nonspace(code, j - 2)
        m = re.search(r"([A-Za-z_]\w*)$", code[:k + 1])
        return ("scope", m.group(1)) if m else ("unknown", "")
    dot = None
    if c == ".":
        dot = j
    elif c == ">" and j > 0 and code[j - 1] == "-":
        dot = j - 1
    if dot is not None:
        k = _prev_nonspace(code, dot)
        if k >= 0 and (code[k].isalnum() or code[k] == "_"):
            m = re.search(r"([A-Za-z_]\w*)$", code[:k + 1])
            return ("var", m.group(1)) if m else ("unknown", "")
        if k >= 0 and code[k] == ")":
            depth = 0
            i = k
            while i >= 0:
                if code[i] == ")":
                    depth += 1
                elif code[i] == "(":
                    depth -= 1
                    if depth == 0:
                        break
                i -= 1
            if i > 0:
                p = _prev_nonspace(code, i)
                m = re.search(r"([A-Za-z_]\w*)$", code[:p + 1])
                if m and m.group(1) not in _KEYWORDS:
                    return "result", m.group(1)
        return "unknown", ""
    if c.isalnum() or c == "_":
        m = re.search(r"([A-Za-z_]\w*)$", code[:j + 1])
        word = m.group(1) if m else ""
        if word in _CALL_PREV_OK:
            return "bare", ""
        return None, ""  # `Type name(` — a declaration
    return "bare", ""


def _lambda_spans(code, start, end):
    """Body spans [(open_brace, close_brace)] of lambda expressions in
    code[start:end]. A lambda's body must not be attributed to the
    enclosing function: the code runs when the lambda is *invoked* (via
    a callback slot the textual graph cannot see), not where it is
    written, and merging it into the writer creates wildly wrong edges
    (a constructor that stores a sweep callback would otherwise appear
    to run a full sweep on the malloc fast path)."""
    spans = []
    i = start
    n = min(end, len(code))
    while i < n:
        if code[i] != "[":
            i += 1
            continue
        if i + 1 < n and code[i + 1] == "[":  # [[attribute]]
            close = code.find("]]", i)
            i = close + 2 if close >= 0 else i + 2
            continue
        p = _prev_nonspace(code, i)
        if p >= 0 and (code[p].isalnum() or code[p] in "_)]"):
            i += 1  # array subscript / delete[]
            continue
        close = _match_delim(code, i, "[", "]")
        if close < 0:
            i += 1
            continue
        j = close + 1
        while j < n and code[j].isspace():
            j += 1
        if j < n and code[j] == "(":
            pc = _match_delim(code, j, "(", ")")
            if pc < 0:
                i = close + 1
                continue
            j = pc + 1
        # Specifiers / trailing return type up to the body brace.
        k = j
        while k < n and code[k] not in "{;)" and k - j < 120:
            k += 1
        if k < n and code[k] == "{":
            bclose = _match_delim(code, k, "{", "}")
            if bclose > 0:
                spans.append((k, bclose))
                i = k + 1  # keep scanning inside for nested lambdas
                continue
        i = close + 1
    return spans


def _brace_pairs(code, start, end):
    pairs = []
    stack = []
    for i in range(start, end + 1):
        if code[i] == "{":
            stack.append(i)
        elif code[i] == "}" and stack:
            pairs.append((stack.pop(), i))
    return pairs


def _innermost_close(pairs, off, default):
    best = default
    best_open = -1
    for s, e in pairs:
        if s <= off <= e and s > best_open:
            best_open, best = s, e
    return best


def extract_file_facts(sf):
    """Per-file model: function definitions with their ordered
    lock/call event streams, ranked-lock declarations, local type hints,
    class hierarchy fragments, annotations, and signal/atfork installs."""
    code = sf.code
    spans = _class_spans(code)

    # --- annotations, from the *raw* text (comments are blanked in code)
    tags_by_line = []
    for lineno, raw in enumerate(sf.raw_lines, 1):
        tm = TAG_RE.search(raw)
        if tm:
            tags_by_line.append((lineno, tm.group(1),
                                 (tm.group(2) or "").strip()))

    # --- function definitions
    funcs = []
    claimed = []  # accepted body intervals, in offset order
    for m in _DEF_NAME_RE.finditer(code):
        full = re.sub(r"\s+", "", m.group(1))
        name = full.split("::")[-1]
        if name.lstrip("~") in _KEYWORDS or _is_macro_name(name):
            continue
        sig_off = m.start()
        if any(s <= sig_off <= e for s, e in claimed):
            continue  # local lambda/struct: attribute to the enclosure
        open_paren = code.index("(", m.start())
        close_paren = _match_delim(code, open_paren, "(", ")")
        if close_paren < 0:
            continue
        body_open = _scan_def_after_params(code, close_paren + 1)
        if body_open < 0:
            continue
        body_close = _match_delim(code, body_open, "{", "}")
        if body_close < 0:
            continue
        claimed.append((body_open, body_close))
        qual = full.split("::")[-2] if "::" in full \
            else _enclosing_class(spans, sig_off)
        line = sf.line_of(sig_off)
        tags = [[t, why] for (ln, t, why) in tags_by_line
                if line - 3 <= ln <= line]
        funcs.append({
            "name": name, "qual": qual, "line": line,
            "sig": sig_off, "scan": close_paren + 1, "body": body_open,
            "end": body_close, "ret": _return_hint(code, sig_off),
            "tags": tags, "events": [],
        })

    # --- per-function event streams (offset-ordered)
    def events_in(s, e, body, exclude):
        def excluded(off):
            return any(xs <= off <= xe for xs, xe in exclude)
        pairs = _brace_pairs(code, body, e)
        events = []
        guard_of = {}  # guard var -> lock var
        for gm in _GUARD_RE.finditer(code, s, e):
            if excluded(gm.start()):
                continue
            lock_var = re.findall(r"[A-Za-z_]\w*", gm.group(3))[-1]
            guard_of[gm.group(2)] = lock_var
            off = gm.start()
            events.append([off, sf.line_of(off), "acq", lock_var])
            close = _innermost_close(pairs, off, e)
            events.append([close, sf.line_of(close), "rel", lock_var])
        for lm in _LOCK_OP_RE.finditer(code, s, e):
            if excluded(lm.start()):
                continue
            var = guard_of.get(lm.group(1), lm.group(1))
            kind = {"lock": "acq", "unlock": "rel",
                    "try_lock": "try"}[lm.group(2)]
            off = lm.start()
            events.append([off, sf.line_of(off), kind, var])
        for cm in _CALL_NAME_RE.finditer(code, s, e):
            cname = cm.group(1)
            if cname in _KEYWORDS or cname in _LOCK_OPS or \
                    cname in _GUARD_TYPES or _is_macro_name(cname):
                continue
            if excluded(cm.start()):
                continue
            rkind, recv = _receiver_before(code, cm.start())
            if rkind is None:
                continue
            off = cm.start()
            events.append([off, sf.line_of(off), "call", cname,
                           rkind, recv])
        events.sort(key=lambda ev: (ev[0], ev[2] != "rel"))
        return events

    lambda_funcs = []
    for fn in funcs:
        lspans = _lambda_spans(code, fn["scan"], fn["end"])
        fn["events"] = events_in(fn["scan"], fn["end"], fn["body"],
                                 lspans)
        fn["lam"] = [list(sp) for sp in lspans]
        # Each lambda body becomes a standalone node: its events are
        # still checked (with an empty entry context — the graph cannot
        # see who invokes the callback), but never inherit the writer's
        # reachability.
        for ls, le in lspans:
            inner = [sp for sp in lspans
                     if sp[0] > ls and sp[1] < le]
            lline = sf.line_of(ls)
            lambda_funcs.append({
                "name": f"<lambda:{lline}>", "qual": fn["qual"],
                "line": lline, "sig": ls, "scan": ls, "body": ls,
                "end": le, "ret": "", "tags": [],
                "lam": [list(sp) for sp in inner],
                "events": events_in(ls + 1, le, ls, inner),
            })
    funcs.extend(lambda_funcs)

    # --- ranked lock declarations and type hints
    ranked = {}
    for rm in _RANKED_DECL_RE.finditer(code):
        ranked[rm.group(1)] = rm.group(2)
    types = {}
    ambiguous = set()
    for tm in _TYPE_HINT_RE.finditer(code):
        tname = tm.group(1).split("::")[-1]
        if not tname[0].isupper():
            continue
        if tname in ("UniquePtr",) or \
                (tname in ("unique_ptr", "shared_ptr") and tm.group(2)):
            continue
        if tm.group(1).endswith(("unique_ptr", "shared_ptr")) and \
                tm.group(2):
            inner = re.findall(r"[A-Za-z_]\w*", tm.group(2))
            tname = inner[-1] if inner and inner[-1][0].isupper() else ""
            if not tname:
                continue
        var = tm.group(3)
        if var in types and types[var] != tname:
            ambiguous.add(var)
        types[var] = tname
    for var in ambiguous:
        types.pop(var, None)

    classes = {name: bases for name, bases, _s, _e in spans}

    handlers = []
    for install_re in _SIG_INSTALL_RES:
        for m in install_re.finditer(code):
            if not m.group(1).startswith("SIG_"):
                handlers.append(m.group(1))
    atfork = [[m.group(1), m.group(2), m.group(3)]
              for m in _ATFORK_RE.finditer(code)]

    return {
        "funcs": funcs,
        "ranked": ranked,
        "types": types,
        "classes": classes,
        "handlers": sorted(set(handlers)),
        "atfork": atfork,
        "extern_c": 'extern "C"' in sf.raw,
    }


def _paired_rel(rel):
    for a, b in ((".cc", ".h"), (".h", ".cc"), (".cpp", ".hpp"),
                 (".hpp", ".cpp")):
        if rel.endswith(a):
            return rel[:-len(a)] + b
    return None


class Program:
    """Linked whole-program view: functions indexed across files, call
    resolution, rank resolution, held-set dataflow, reachability."""

    def __init__(self, tree):
        self.tree = tree
        self.facts = {sf.rel: extract_file_facts(sf) for sf in tree.src}
        self._link()
        self._resolve_all()
        self._summaries()
        self._entry_contexts()

    # -- linking -----------------------------------------------------

    def _link(self):
        self.funcs = []      # (rel, fndict)
        self.by_name = {}
        self.by_class = {}
        self.classes = {}
        self.file_ranked = {}
        self.handler_names = set()
        self.atfork_hooks = {"prepare": set(), "parent": set(),
                             "child": set()}
        self.shim_fids = []
        self.class_rels = {}  # class name -> files declaring it
        for rel, facts in sorted(self.facts.items()):
            self.file_ranked[rel] = dict(facts["ranked"])
            for cname, bases in facts["classes"].items():
                self.class_rels.setdefault(cname, []).append(rel)
                self.classes.setdefault(cname, [])
                for b in bases:
                    if b not in self.classes[cname]:
                        self.classes[cname].append(b)
            self.handler_names.update(facts["handlers"])
            for prep, par, child in facts["atfork"]:
                for slot, nm in (("prepare", prep), ("parent", par),
                                 ("child", child)):
                    if nm not in ("nullptr", "0"):
                        self.atfork_hooks[slot].add(nm)
            for fn in facts["funcs"]:
                fid = len(self.funcs)
                self.funcs.append((rel, fn))
                self.by_name.setdefault(fn["name"], []).append(fid)
                if fn["qual"]:
                    self.by_class.setdefault(
                        (fn["qual"], fn["name"]), []).append(fid)
                if facts["extern_c"] and not fn["qual"] and \
                        fn["name"] in _SHIM_ENTRIES:
                    self.shim_fids.append(fid)
        self.derived = {}
        for cname, bases in self.classes.items():
            for b in bases:
                self.derived.setdefault(b, []).append(cname)
        self.rank_values = {}
        rank_h = self.tree.find_src("src/util/lock_rank.h")
        if rank_h is not None:
            for name, val, _line in parse_enum(rank_h, "LockRank"):
                if name != "kUnranked":
                    self.rank_values[name] = val
        self.rank_names = {v: k for k, v in self.rank_values.items()}
        # global var -> rank, only when unambiguous across files
        seen = {}
        for rel, ranked in self.file_ranked.items():
            for var, rank in ranked.items():
                seen.setdefault(var, set()).add(rank)
        self.global_ranked = {v: next(iter(r))
                              for v, r in seen.items() if len(r) == 1}

    def fname(self, fid):
        rel, fn = self.funcs[fid]
        return (fn["qual"] + "::" + fn["name"]) if fn["qual"] \
            else fn["name"]

    def floc(self, fid):
        rel, fn = self.funcs[fid]
        return rel, fn["line"]

    def tags(self, fid):
        return {t: why for t, why in self.funcs[fid][1]["tags"]}

    def resolve_rank(self, rel, var):
        """Rank value for a lock variable, or None. Resolution order:
        declaring file, its paired header/impl, then globally-unique."""
        rank = self.file_ranked.get(rel, {}).get(var)
        if rank is None:
            pair = _paired_rel(rel)
            if pair:
                rank = self.file_ranked.get(pair, {}).get(var)
        if rank is None:
            rank = self.global_ranked.get(var)
        return self.rank_values.get(rank) if rank else None

    def _chain_lookup(self, cname, method):
        """Method fids over cname and its transitive bases."""
        seen, queue = set(), [cname]
        while queue:
            c = queue.pop()
            if c in seen:
                continue
            seen.add(c)
            hit = self.by_class.get((c, method))
            if hit:
                return hit
            queue.extend(self.classes.get(c, []))
        return []

    def _virtual_lookup(self, cname, method):
        """Dispatch through a variable of static type cname: the method
        may live on cname / a base (chain) or, for a virtual call
        through a base pointer, on any transitive derived class."""
        hit = self._chain_lookup(cname, method)
        if hit:
            return hit
        out = []
        seen, queue = set(), [cname]
        while queue:
            c = queue.pop()
            if c in seen:
                continue
            seen.add(c)
            for d in self.derived.get(c, []):
                out.extend(self.by_class.get((d, method), []))
                queue.append(d)
        return out

    def _inherited_member_type(self, cname, member):
        """Type of @member as declared by a transitive base of cname,
        in whichever file declares that base: a member a derived class
        inherits is typed where the base declares it, not in the
        derived class's own files."""
        seen, queue = set(), list(self.classes.get(cname, []))
        while queue:
            c = queue.pop(0)
            if c in seen:
                continue
            seen.add(c)
            for rel in self.class_rels.get(c, []):
                t = self.facts[rel]["types"].get(member)
                if t:
                    return t
            queue.extend(self.classes.get(c, []))
        return None

    def _resolve_call(self, fid, ev):
        rel, fn = self.funcs[fid]
        _off, _line, _k, name, rkind, recv = ev
        facts = self.facts[rel]
        if rkind == "var":
            # No fall-back by name: `flag_.load()` must not resolve to
            # an unrelated `Trace::load`. An untyped receiver is an
            # unresolved edge (under-approximation, never a wrong edge).
            # Member types usually live in the paired header, not the
            # .cc doing the call, or in a base class's header.
            t = facts["types"].get(recv)
            if t is None:
                pair = _paired_rel(rel)
                if pair in self.facts:
                    t = self.facts[pair]["types"].get(recv)
            if t is None and fn["qual"]:
                t = self._inherited_member_type(fn["qual"], recv)
            return self._virtual_lookup(t, name) if t else []
        if rkind == "scope":
            if recv in self.classes or (recv, name) in self.by_class:
                return self._chain_lookup(recv, name)
            # Namespace qualification (util::fatal) — name is global.
            return self.by_name.get(name, [])
        if rkind == "result":
            ret = ""
            for cfid in self.by_name.get(recv, []):
                r = self.funcs[cfid][1]["ret"]
                if r:
                    ret = r
                    break
            return self._virtual_lookup(ret, name) if ret else []
        if rkind == "unknown":
            return []
        # bare: own class chain first (a virtual member declared there
        # dispatches to the overrides), then any definition by name
        if fn["qual"]:
            hit = self._virtual_lookup(fn["qual"], name)
            if hit:
                return hit
        return self.by_name.get(name, [])

    def _resolve_all(self):
        """events[fid]: ('lock', kind, rank, line, var) — rank-resolved
        only — and ('call', callee_fids, line, name, rkind) in source
        order. call_edges keeps the receiver kind so rules can tell a
        genuine free call `free(p)` from a member spelt the same way
        (`arena_.free(p)`)."""
        self.events = []
        self.call_edges = []  # fid -> [(line, [callee fids], name, rkind)]
        for fid, (rel, fn) in enumerate(self.funcs):
            out = []
            edges = []
            for ev in fn["events"]:
                if ev[2] == "call":
                    callees = self._resolve_call(fid, ev)
                    out.append(("call", callees, ev[1], ev[3], ev[4]))
                    edges.append((ev[1], callees, ev[3], ev[4]))
                else:
                    rank = self.resolve_rank(rel, ev[3])
                    if rank is not None:
                        out.append(("lock", ev[2], rank, ev[1], ev[3]))
            self.events.append(out)
            self.call_edges.append(edges)

    # -- dataflow ----------------------------------------------------

    def _simulate(self, fid, record=False):
        """Linear walk of a function's event stream from an empty entry
        context. Returns (exit_held, released_below_entry); with
        `record`, also stores the locally-held set right before every
        lock-acq and call event."""
        held, released = set(), set()
        before = []
        for ev in self.events[fid]:
            if ev[0] == "lock":
                _t, kind, rank, _line, _var = ev
                if kind in ("acq", "try"):
                    if record:
                        before.append(frozenset(held))
                    held.add(rank)
                elif kind == "rel":
                    if rank in held:
                        held.discard(rank)
                    else:
                        released.add(rank)
            else:
                callees = ev[1]
                if record:
                    before.append(frozenset(held))
                subs = [self.exit_held.get(c, set()) for c in callees]
                rels = [self.exit_rel.get(c, set()) for c in callees]
                for s in subs:
                    held |= s
                if rels:
                    common = set.intersection(*[set(r) for r in rels])
                    for r in common:
                        if r in held:
                            held.discard(r)
                        else:
                            released.add(r)
        if record:
            self.local_before[fid] = before
        return held, released

    def _summaries(self):
        n = len(self.funcs)
        self.exit_held = {f: set() for f in range(n)}
        self.exit_rel = {f: set() for f in range(n)}
        self.local_before = {}
        for _ in range(30):
            changed = False
            for fid in range(n):
                h, r = self._simulate(fid)
                if h != self.exit_held[fid] or r != self.exit_rel[fid]:
                    self.exit_held[fid] = h
                    self.exit_rel[fid] = r
                    changed = True
            if not changed:
                break
        for fid in range(n):
            self._simulate(fid, record=True)

    def _entry_contexts(self):
        """H[fid]: ranks that can be held on entry, propagated through
        call edges; origin[(fid, rank)] records one witness edge."""
        n = len(self.funcs)
        self.H = {f: set() for f in range(n)}
        self.origin = {}
        work = list(range(n))
        in_work = set(work)
        while work:
            fid = work.pop()
            in_work.discard(fid)
            idx = 0
            for ev in self.events[fid]:
                if ev[0] not in ("lock", "call"):
                    continue
                if ev[0] == "lock" and ev[1] == "rel":
                    continue
                local = self.local_before.get(fid, [])
                here = local[idx] if idx < len(local) else frozenset()
                idx += 1
                if ev[0] != "call":
                    continue
                ctx = self.H[fid] | here
                for callee in ev[1]:
                    new = ctx - self.H[callee]
                    if new:
                        self.H[callee] |= new
                        for r in new:
                            self.origin[(callee, r)] = (fid, ev[2])
                        if callee not in in_work:
                            in_work.add(callee)
                            work.append(callee)

    def held_at_events(self, fid):
        """Yield (ev, locally_held_before) for acq/try/call events."""
        local = self.local_before.get(fid, [])
        idx = 0
        for ev in self.events[fid]:
            if ev[0] == "lock" and ev[1] == "rel":
                continue
            here = local[idx] if idx < len(local) else frozenset()
            idx += 1
            yield ev, here

    def hold_witness(self, fid, rank):
        """Human-readable chain explaining how `rank` can be held on
        entry to fid."""
        steps = []
        cur = fid
        visited = {fid}
        while (cur, rank) in self.origin and len(steps) < 12:
            caller, line = self.origin[(cur, rank)]
            rel, _fn = self.funcs[caller]
            steps.append(f"{self.fname(caller)} ({rel}:{line})")
            if caller in visited:
                break  # recursive witness chain
            visited.add(caller)
            cur = caller
        return " <- ".join(steps) if steps else "this function"

    # -- reachability ------------------------------------------------

    def reachable(self, roots, stop=None):
        """BFS over call edges from `roots`. `stop(fid)` prevents
        *entering* a function (annotation boundaries). Returns
        (visited_set, parent: fid -> (caller_fid, line))."""
        parent = {}
        seen = set(roots)
        queue = list(roots)
        while queue:
            fid = queue.pop()
            for line, callees, _name, _rkind in self.call_edges[fid]:
                for c in callees:
                    if c in seen or (stop and stop(c)):
                        continue
                    seen.add(c)
                    parent[c] = (fid, line)
                    queue.append(c)
        return seen, parent

    def path_from_root(self, fid, parent):
        names = [self.fname(fid)]
        guard = 0
        while fid in parent and guard < 16:
            fid, line = parent[fid]
            names.append(f"{self.fname(fid)}:{line}")
            guard += 1
        return " <- ".join(names)

    def fork_window(self):
        """Functions reachable from atfork hooks or from any function
        that opens the lock-rank fork window: equal-rank bulk
        acquisitions are sanctioned there."""
        roots = set()
        for slot in ("prepare", "parent", "child"):
            for nm in self.atfork_hooks[slot]:
                roots.update(self.by_name.get(nm, []))
        for fid in range(len(self.funcs)):
            for _line, _callees, name, _rkind in self.call_edges[fid]:
                if name == "lock_rank_fork_begin":
                    roots.add(fid)
        seen, _parent = self.reachable(roots)
        return seen
