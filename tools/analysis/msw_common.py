"""Shared source model for msw-analyze.

Everything here is rule-agnostic: comment/string stripping that
preserves line and column positions, the SourceFile/Tree containers the
rules walk, and the small parsing helpers (balanced-delimiter matching,
enum parsing) that both the legacy per-line rules and the whole-program
call-graph model (msw_graph) build on. Keeping the model in its own
module lets msw_graph import it without a circular dependency on the
driver in msw_analyze.
"""

import os
import re

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "alignas", "alignof", "static_assert", "decltype", "throw",
    "else", "do", "case", "defined", "noexcept", "requires", "assert",
}


def strip_code(text):
    """Blank out comments and string/char literal contents, preserving
    newlines and column positions so line/offset math on the result maps
    back to the original file."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line-comment | block-comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal R"delim( ... )delim"
                m = re.match(r'R"([^()\s\\]{0,16})\(', text[i - 1:i + 20]) \
                    if i > 0 and text[i - 1] == "R" else None
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append('"')
                    i += 1
                    continue
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                # Digit separator (100'000), not a char literal, when
                # sandwiched between identifier/number characters.
                prev = text[i - 1] if i > 0 else ""
                if prev.isalnum() or prev == "_":
                    out.append("'")
                    i += 1
                    continue
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                out.append('"')
            else:
                out.append(" ")
            i += 1
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                out.append("'")
            else:
                out.append(" ")
            i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                out.append(" " * (len(raw_delim) - 1) + '"')
                i += len(raw_delim)
                state = "code"
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, root, rel):
        self.rel = rel.replace(os.sep, "/")
        self.path = os.path.join(root, rel)
        with open(self.path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read()
        self.raw_lines = self.raw.splitlines()
        self.code = strip_code(self.raw)
        self.code_lines = self.code.splitlines()

    def line_of(self, offset):
        return self.code.count("\n", 0, offset) + 1

    def raw_line(self, line):
        if 1 <= line <= len(self.raw_lines):
            return self.raw_lines[line - 1]
        return ""


class Finding:
    def __init__(self, rule, rel, line, msg):
        self.rule = rule
        self.rel = rel
        self.line = line
        self.msg = msg

    def key(self):
        return (self.rel, self.line, self.rule, self.msg)


class Tree:
    """All sources the rules look at, rooted at an analysis root that has
    (at least) a src/ directory and optionally DESIGN.md and tests/."""

    def __init__(self, root):
        self.root = root
        self.src = []
        src_dir = os.path.join(root, "src")
        for dirpath, _dirs, files in sorted(os.walk(src_dir)):
            for name in sorted(files):
                if name.endswith((".h", ".cc", ".cpp", ".hpp")):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    self.src.append(SourceFile(root, rel))
        self.tests = []
        tests_dir = os.path.join(root, "tests")
        for dirpath, _dirs, files in sorted(os.walk(tests_dir)):
            if os.path.join("tests", "analysis") in os.path.relpath(
                    dirpath, root):
                continue  # fixture mini-repos are not this tree's tests
            for name in sorted(files):
                if name.endswith((".h", ".cc", ".cpp")):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    self.tests.append(SourceFile(root, rel))
        design = os.path.join(root, "DESIGN.md")
        self.design = None
        if os.path.isfile(design):
            self.design = SourceFile(root, "DESIGN.md")

    def find_src(self, rel_suffix):
        for f in self.src:
            if f.rel.endswith(rel_suffix):
                return f
        return None


def _match_delim(code, start, open_c, close_c):
    depth = 0
    for i in range(start, len(code)):
        if code[i] == open_c:
            depth += 1
        elif code[i] == close_c:
            depth -= 1
            if depth == 0:
                return i
    return -1


_ENUMERATOR_RE = re.compile(r"^\s*(k\w+)\s*(?:=\s*(\d+))?\s*,?")


def parse_enum(sf, enum_name, stop=None):
    """Ordered [(name, value, raw_line_no)] for `enum class <enum_name>`."""
    m = re.search(r"enum\s+class\s+" + enum_name + r"\b[^{]*\{", sf.code)
    if not m:
        return []
    end = _match_delim(sf.code, sf.code.index("{", m.start()), "{", "}")
    body_start = sf.code.index("{", m.start()) + 1
    out = []
    next_val = 0
    for raw in sf.code[body_start:end].split(","):
        em = _ENUMERATOR_RE.match(raw.strip())
        if not em:
            continue
        name = em.group(1)
        val = int(em.group(2)) if em.group(2) is not None else next_val
        next_val = val + 1
        if stop and name == stop:
            break
        off = sf.code.index(name, body_start)
        out.append((name, val, sf.line_of(off)))
    return out


_SHIM_ENTRIES = {
    "malloc", "free", "calloc", "realloc", "posix_memalign",
    "aligned_alloc", "memalign", "valloc", "malloc_usable_size",
    "reallocarray", "pvalloc", "cfree",
}


_ALLOCATING_TOKENS = [
    (re.compile(r"\bstd::(vector|string|deque|map|unordered_map|set|"
                r"unordered_set|list|function|ostringstream|stringstream|"
                r"to_string|make_unique|make_shared)\b"),
     "allocating std::{0} use"),
    (re.compile(r"\bstd::(cout|cerr|clog|locale)\b"),
     "iostream/locale use (allocates and takes internal locks)"),
    (re.compile(r"\bthrow\b"), "throw expression (shim must be "
                               "noexcept-clean)"),
    # `new T` allocates; placement `new (addr) T` does not, but
    # `new (std::nothrow) T` still allocates.
    (re.compile(r"\bnew\s*\(\s*std::nothrow"), "operator new use"),
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new use"),
]


# A function name assigned as a signal disposition. Handlers run on
# whatever thread the kernel picks, possibly mid-malloc: they are entry
# points with the same no-allocation contract as the shim.
_SIG_INSTALL_RES = [
    re.compile(r"\.sa_sigaction\s*=\s*&?(?:[A-Za-z_]\w*::)*"
               r"([A-Za-z_]\w*)"),
    re.compile(r"\.sa_handler\s*=\s*&?(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*)"),
    re.compile(r"\bsignal\s*\(\s*SIG\w+\s*,\s*&?(?:[A-Za-z_]\w*::)*"
               r"([A-Za-z_]\w*)"),
]

# pthread_atfork(prepare, parent, child): the child hook runs in a
# process whose other threads vanished mid-operation — the async-signal
# contract applies to everything it can reach.
_ATFORK_RE = re.compile(
    r"\bpthread_atfork\s*\(\s*&?(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*|nullptr|0)"
    r"\s*,\s*&?(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*|nullptr|0)"
    r"\s*,\s*&?(?:[A-Za-z_]\w*::)*([A-Za-z_]\w*|nullptr|0)\s*\)")


def fingerprint(raw_line):
    return " ".join(raw_line.split())
