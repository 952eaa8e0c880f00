#!/usr/bin/env python3
"""cpt-lint: project-specific static analysis for the clustered-page-table simulator.

The simulator's headline numbers are pure counting metrics, so the repo's
correctness story is contract discipline: walk events must stay paired,
switches over contract enums must stay exhaustive, enum<->name tables must
stay in sync, and nothing nondeterministic may leak into simulated counts.
The runtime half of those contracts lives in src/check (StructuralAuditor,
ShadowedPageTable); this tool is the static half, run at build/CI time
before a trace is ever produced.

Stdlib-only, tokenizer-based (no libclang).  The tokenizer understands
comments, string/char literals (including raw strings), preprocessor
directives, and multi-character operators; rules pattern-match over the
token stream, which is exact enough for this codebase's styled C++ and
fails loudly (via the fixture tests) when it is not.

Rules (see DESIGN.md "Static analysis" for the catalog and policy):

  exhaustive-enum-switch  switches over contract enums (EventKind,
                          MappingKind, SegmentKind, ...) must list every
                          enumerator or carry a suppression.
  name-table-sync         k<Enum>Names arrays need an adjacent
                          static_assert and one entry per enumerator.
  walk-protocol-pairing   BeginWalk must pair with EndWalk/AbortWalk (or
                          WalkScope) in the same function; a function
                          emitting both kWalkHit and kWalkEnd must emit
                          the hit first.
  check-macro-hygiene     no raw assert()/abort()/<cassert> in simulator
                          code; use CPT_CHECK / CPT_DCHECK.
  determinism-guards      no rand()/time()/std::random_device outside
                          common/rng.h; no float literal ==/!= compares.
  timing-discipline       no raw std::chrono clocks (steady_clock,
                          high_resolution_clock, system_clock) or
                          clock_gettime/clock_getres outside obs/timer.*
                          and obs/perf.* — every host-time measurement
                          flows through ScopedTimer/PhaseProfiler or
                          HostPerfCounters so reports stay comparable.
  include-guard           headers use canonical CPT_..._H_ guards with a
                          matching  #endif  //  comment.
  nodiscard-query         Lookup/LookupKey query methods in headers must
                          be [[nodiscard]].
  raw-address-param       address-domain values (va/vpn/vpbn/ppn/pfn/block
                          names) cross public-header APIs as the strong
                          types from common/types.h, never raw
                          std::uint64_t parameters or returns.
  guarded-by-coverage     mutable data members of CPT_SHARED-marked classes
                          must be CPT_GUARDED_BY, atomic, or const.
  atomic-discipline       every explicit memory_order_* argument carries an
                          adjacent justification comment, and a member
                          accessed through the atomic API is never also
                          mutated with raw assignment in the same file.
  raw-sync-primitive      no threads or locks (std::mutex/std::lock_guard/
                          std::thread/pthread_*...) in src/ or bench/: the
                          simulator is single-threaded and its page tables
                          single-writer.
  hot-no-alloc            whole-program: nothing reachable from a CPT_HOT
                          root (common/hotpath.h) may allocate — no new/
                          make_unique, no unreserved push_back/resize, no
                          string formatting or iostream.
  hot-no-throw            whole-program: no throw / throwing std calls
                          (at, value, stoi...) reachable from a hot root.
  hot-lock-discipline     whole-program: locks on hot paths are cpt::
                          wrappers with an adjacent '// hot-lock:'
                          justification, budgeted in the debt ledger; bare
                          blocking calls (sleep/join/wait) never pass.
  false-sharing           per-stripe/per-shard array elements must be
                          CPT_CACHE_ALIGNED, and inside a CPT_SHARED class
                          no atomic may share a 64-byte host line with a
                          lock or a differently-guarded field.
  layout-ledger           every struct reachable from a CPT_HOT function
                          must match tools/layout_ledger.json {size, align,
                          offsets}; growth fails with a ratchet notice
                          (--write-layout regenerates), and literal
                          sizeof/alignof static_asserts are cross-checked.
  model-truth-sync        the byte spans CacheTouchModel charges per walk
                          step must equal the ledger-derived lines-per-node
                          of each PT organization's node struct.

The hot rules ride on a heuristic call graph over src/ (see HotAnalysis);
the same analysis emits the devirtualization-debt ledger
(tools/hotpath_debt.json, --write-hot-debt / --check-hot-debt), which
growth-gates every virtual call site reachable from the hot roots.

The layout rules ride on a struct-layout model over the same token streams
(see LayoutAnalysis): builtin + libstdc++ ABI tables, recursively resolved
project types, Itanium-style padding (alignas / bit-fields /
[[no_unique_address]] / EBO / vptr aware).  Anything it cannot prove is
skipped with a notice (--layout-report), and the whole model is pinned to
the compiled ABI by tools/dump_layout.cc + tests/lint/layout_sync_check.py,
the same way dump_enums pins the enum tables.

Exit codes: 0 clean, 1 findings or debt growth, 2 internal error (an
unreadable input or malformed baseline/ledger — not a lint verdict).

Suppressions:
  // cpt-lint: allow(rule[, rule])   suppress on this line (trailing) or,
                                     when the comment stands alone, on the
                                     comment line and the next line.
  // cpt-lint: off(rule)  ...  // cpt-lint: on(rule)
                                     block suppression (to end of file when
                                     never turned back on).

Baseline: findings fingerprinted as rule + path + message (line-number
free) may be grandfathered in tools/cpt_lint_baseline.json; anything not
in the baseline fails the run.  CI keeps the baseline empty.

Usage:
  tools/cpt_lint.py --all              lint the whole tree (gating)
  tools/cpt_lint.py src/pt/hashed.cc   lint specific files
  tools/cpt_lint.py --all --json       machine-readable findings
  tools/cpt_lint.py --all --fix        apply fixes for mechanical rules
  tools/cpt_lint.py --export-enums     JSON dump of enums + name tables
                                       (consumed by check_bench_json.py)
  tools/cpt_lint.py --write-layout     regenerate tools/layout_ledger.json
  tools/cpt_lint.py --layout-report    layout model + skip notices as JSON
  tools/cpt_lint.py --all --sarif=f    also write findings as SARIF 2.1.0
"""

import argparse
import fnmatch
import json
import multiprocessing
import os
import re
import sys
import time
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = Path(__file__).resolve().parent / "cpt_lint_baseline.json"

# Directory roots scanned by --all, relative to the repo root.
LINT_ROOTS = ("src", "bench", "examples", "tests", "tools")
SOURCE_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")
# Known-bad lint-test inputs must never gate the real tree.
EXCLUDED_GLOBS = ("tests/lint/fixtures/*",)

# Enums whose switches must stay exhaustive as enumerators are added.
# Deliberately broad: every closed-vocabulary enum in the simulator's
# contracts.  A switch that intentionally handles a subset carries a
# suppression explaining why.
CONTRACT_ENUMS = {
    "EventKind", "WalkHitClass", "SegmentClass", "SegmentKind",
    "MappingKind", "LookupOutcome", "PtKind", "TlbKind", "AccessPattern",
    "PteStrategy", "GroupState", "GroupStateView", "NodeKind", "SizeModel",
    "SearchOrder", "HashKind", "NodePlacement", "AuditVerdict",
}

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
NUM_RE = re.compile(r"\.?[0-9](?:[0-9a-zA-Z_'.]|[eEpP][+-])*")
RAW_PREFIX_RE = re.compile(r"^(?:u8|u|U|L)?R$")
MULTI_OPS = sorted(
    ["::", "->", "++", "--", "<<=", ">>=", "<<", ">>", "<=>", "<=", ">=",
     "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
     "^=", "->*", ".*", "..."],
    key=len, reverse=True)


class Token:
    __slots__ = ("kind", "text", "line", "pos")

    def __init__(self, kind, text, line, pos):
        self.kind = kind  # id | num | str | chr | punct
        self.text = text
        self.line = line
        self.pos = pos

    def __repr__(self):
        return f"Token({self.kind},{self.text!r},L{self.line})"


class Comment:
    __slots__ = ("line", "end_line", "text", "standalone")

    def __init__(self, line, end_line, text, standalone):
        self.line = line
        self.end_line = end_line
        self.text = text
        self.standalone = standalone


class Directive:
    __slots__ = ("line", "text", "pos", "end")

    def __init__(self, line, text, pos, end):
        self.line = line
        self.text = text
        self.pos = pos  # byte offset of '#'
        self.end = end  # byte offset one past the directive's last char


def tokenize(text):
    """Returns (tokens, comments, directives) for one C++ source string."""
    tokens, comments, directives = [], [], []
    i, line, n = 0, 1, len(text)
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "#" and at_line_start:
            start, start_line = i, line
            while i < n and text[i] != "\n":
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    i += 2
                    line += 1
                    continue
                if text[i:i + 2] == "/*":  # comment inside a directive
                    j = text.find("*/", i + 2)
                    j = n if j < 0 else j + 2
                    line += text.count("\n", i, j)
                    i = j
                    continue
                i += 1
            directives.append(Directive(start_line, text[start:i], start, i))
            continue
        if c == "/" and text[i:i + 2] == "//":
            j = text.find("\n", i)
            j = n if j < 0 else j
            comments.append(Comment(line, line, text[i:j], at_line_start))
            i = j
            continue
        if c == "/" and text[i:i + 2] == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            body = text[i:j]
            comments.append(Comment(line, line + body.count("\n"), body, at_line_start))
            line += body.count("\n")
            i = j
            continue
        at_line_start = False
        if c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            tokens.append(Token("str", text[i:j], line, i))
            line += text.count("\n", i, j)
            i = j
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            tokens.append(Token("chr", text[i:j], line, i))
            i = j
            continue
        m = ID_RE.match(text, i)
        if m:
            word = m.group(0)
            # Raw string literal: R"delim( ... )delim" (any encoding prefix).
            if RAW_PREFIX_RE.match(word) and m.end() < n and text[m.end()] == '"':
                dend = text.find("(", m.end())
                delim = text[m.end() + 1:dend]
                close = text.find(")" + delim + '"', dend)
                close = n if close < 0 else close + len(delim) + 2
                tokens.append(Token("str", text[i:close], line, i))
                line += text.count("\n", i, close)
                i = close
                continue
            tokens.append(Token("id", word, line, i))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = NUM_RE.match(text, i)
            tokens.append(Token("num", m.group(0), line, i))
            i = m.end()
            continue
        for op in MULTI_OPS:
            if text.startswith(op, i):
                tokens.append(Token("punct", op, line, i))
                i += len(op)
                break
        else:
            tokens.append(Token("punct", c, line, i))
            i += 1
    return tokens, comments, directives


def is_float_literal(tok):
    if tok.kind != "num":
        return False
    t = tok.text.replace("'", "")
    while t and t[-1] in "fFlL":
        t = t[:-1]
    if t.startswith(("0x", "0X")):
        return False
    return "." in t or "e" in t or "E" in t


# ---------------------------------------------------------------------------
# Source files and suppressions
# ---------------------------------------------------------------------------

SUPP_RE = re.compile(r"cpt-lint:\s*(allow|off|on)\s*\(\s*([A-Za-z0-9_,\s\-]*?)\s*\)")


class SourceFile:
    def __init__(self, path, root=REPO_ROOT):
        self.path = Path(path)
        try:
            self.rel = self.path.resolve().relative_to(root).as_posix()
        except ValueError:
            self.rel = self.path.as_posix()
        t0 = time.perf_counter()
        self.text = self.path.read_text(encoding="utf-8")
        self.tokens, self.comments, self.directives = tokenize(self.text)
        self.parse_seconds = time.perf_counter() - t0
        self._fn_spans = None  # cached function_bodies() result
        self._allow = {}   # line -> set(rule)
        self._blocks = []  # (rule, start_line, end_line_inclusive)
        self._parse_suppressions()

    def function_spans(self):
        """Cached (start_index, end_index) function-body spans.

        Tokenizing happens once per file (in __init__); this caches the next
        most expensive per-file pass so the call-graph builder and the
        token-span rules (walk-protocol-pairing, the hot-path rules) share
        one scan instead of re-deriving it per rule.  The cache is built
        eagerly by Project.ensure_hot_analysis() before run_rules() forks,
        so --jobs workers inherit it instead of recomputing per child.
        """
        if self._fn_spans is None:
            t0 = time.perf_counter()
            self._fn_spans = list(function_bodies(self.tokens))
            self.parse_seconds += time.perf_counter() - t0
        return self._fn_spans

    def _parse_suppressions(self):
        open_blocks = {}  # rule -> start line
        max_line = self.text.count("\n") + 1
        for comment in self.comments:
            for m in SUPP_RE.finditer(comment.text):
                verb = m.group(1)
                rules = [r.strip() for r in m.group(2).split(",") if r.strip()]
                for rule in rules:
                    if rule not in RULES:
                        print(f"{self.rel}:{comment.line}: warning: suppression names "
                              f"unknown rule '{rule}'", file=sys.stderr)
                        continue
                    if verb == "allow":
                        self._allow.setdefault(comment.line, set()).add(rule)
                        if comment.standalone:
                            self._allow.setdefault(comment.end_line + 1, set()).add(rule)
                    elif verb == "off":
                        open_blocks.setdefault(rule, comment.line)
                    elif verb == "on":
                        start = open_blocks.pop(rule, None)
                        if start is not None:
                            self._blocks.append((rule, start, comment.line))
        for rule, start in open_blocks.items():
            self._blocks.append((rule, start, max_line))

    def suppressed(self, rule, line):
        if rule in self._allow.get(line, ()):
            return True
        return any(r == rule and s <= line <= e for r, s, e in self._blocks)


class Finding:
    def __init__(self, rule, sf, line, message, fixes=None):
        self.rule = rule
        self.path = sf.rel
        self.line = line
        self.message = message
        self.fixes = fixes or []  # [(start_offset, end_offset, replacement)]

    @property
    def fingerprint(self):
        return f"{self.rule}::{self.path}::{self.message}"

    def to_json(self):
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message, "fixable": bool(self.fixes),
                "fingerprint": self.fingerprint}


# ---------------------------------------------------------------------------
# Project-wide context: enums, count constants, name tables
# ---------------------------------------------------------------------------

class EnumDef:
    def __init__(self, name, sf, line, enumerators):
        self.name = name
        self.file = sf.rel
        self.line = line
        self.enumerators = enumerators


class NameTable:
    def __init__(self, name, sf, line, end_line, strings, tok_range):
        self.name = name
        self.file = sf.rel
        self.line = line
        self.end_line = end_line
        self.strings = strings
        self.tok_range = tok_range  # (first_index, semicolon_index)


def _match_paren(tokens, i, open_ch, close_ch):
    """tokens[i] must be open_ch; returns index of the matching close_ch."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if t == open_ch:
            depth += 1
        elif t == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(tokens) - 1


def parse_enums(sf):
    out = []
    toks = sf.tokens
    i = 0
    while i < len(toks):
        if toks[i].text != "enum" or toks[i].kind != "id":
            i += 1
            continue
        j = i + 1
        if j < len(toks) and toks[j].text in ("class", "struct"):
            j += 1
        if j >= len(toks) or toks[j].kind != "id":
            i = j
            continue
        name_tok = toks[j]
        j += 1
        while j < len(toks) and toks[j].text not in ("{", ";"):
            j += 1  # underlying-type clause
        if j >= len(toks) or toks[j].text != "{":
            i = j  # forward declaration
            continue
        close = _match_paren(toks, j, "{", "}")
        enumerators = []
        expect_name = True
        depth = 0
        for k in range(j + 1, close):
            t = toks[k]
            if t.text in ("(", "{", "["):
                depth += 1
            elif t.text in (")", "}", "]"):
                depth -= 1
            elif depth == 0 and t.text == ",":
                expect_name = True
            elif depth == 0 and expect_name and t.kind == "id":
                enumerators.append(t.text)
                expect_name = False
        out.append(EnumDef(name_tok.text, sf, name_tok.line, enumerators))
        i = close + 1
    return out


COUNT_CONST_RE = re.compile(r"^k\w*Count$")
NAME_TABLE_RE = re.compile(r"^k[A-Z]\w*Names$")


def parse_count_consts(sf):
    out = {}
    toks = sf.tokens
    for i, t in enumerate(toks):
        if (t.kind == "id" and COUNT_CONST_RE.match(t.text)
                and i + 2 < len(toks) and toks[i + 1].text == "="
                and toks[i + 2].kind == "num"):
            try:
                out[t.text] = int(toks[i + 2].text.replace("'", ""), 0)
            except ValueError:
                pass
    return out


def parse_name_tables(sf):
    out = []
    toks = sf.tokens
    i = 0
    while i < len(toks):
        t = toks[i]
        if not (t.kind == "id" and NAME_TABLE_RE.match(t.text)):
            i += 1
            continue
        j = i + 1
        if j >= len(toks) or toks[j].text != "[":
            i += 1
            continue
        j = _match_paren(toks, j, "[", "]") + 1
        if j + 1 >= len(toks) or toks[j].text != "=" or toks[j + 1].text != "{":
            i += 1  # an indexing use, not a definition
            continue
        close = _match_paren(toks, j + 1, "{", "}")
        depth = 0
        strings = []
        for k in range(j + 2, close):
            tk = toks[k]
            if tk.text in ("{", "(", "["):
                depth += 1
            elif tk.text in ("}", ")", "]"):
                depth -= 1
            elif depth == 0 and tk.kind == "str":
                strings.append(json_unquote(tk.text))
        semi = close + 1 if close + 1 < len(toks) and toks[close + 1].text == ";" else close
        out.append(NameTable(t.text, sf, t.line, toks[semi].line, strings, (i, semi)))
        i = semi + 1
    return out


def json_unquote(cpp_string_token):
    """Decodes a simple C++ string literal token to its value."""
    s = cpp_string_token
    if s.startswith(("u8", "u", "U", "L")):
        s = s.lstrip("u8UL")
    if s.startswith('R"'):
        body = s[2:-1]
        delim, _, rest = body.partition("(")
        return rest[: len(rest) - len(delim) - 1] if delim else rest[:-1]
    try:
        return json.loads(s)
    except (json.JSONDecodeError, ValueError):
        return s.strip('"')


class Project:
    """Cross-file context shared by all rules."""

    def __init__(self, files):
        self.files = files
        self.enums = {}         # name -> [EnumDef]
        self.count_consts = {}  # name -> int
        self.name_tables = []   # [NameTable]
        self._hot = None        # lazy HotAnalysis (see ensure_hot_analysis)
        self.hot_prepare_seconds = 0.0
        self._layout = None     # lazy LayoutAnalysis (ensure_layout_analysis)
        self.layout_prepare_seconds = 0.0
        self.layout_ledger_path = None  # set by the driver; None = default
        self._layout_ledger = False     # False = not loaded yet
        for sf in files:
            for e in parse_enums(sf):
                self.enums.setdefault(e.name, []).append(e)
            self.count_consts.update(parse_count_consts(sf))
            self.name_tables.extend(parse_name_tables(sf))

    def ensure_hot_analysis(self):
        """Builds (once) the whole-program hot-path call graph.

        run_rules() calls this eagerly before forking a --jobs pool so the
        workers inherit the graph and the cached function spans instead of
        each re-deriving them.
        """
        if self._hot is None:
            t0 = time.perf_counter()
            self._hot = HotAnalysis(self.files)
            self.hot_prepare_seconds = time.perf_counter() - t0
        return self._hot

    def ensure_layout_analysis(self):
        """Builds (once) the struct-layout model over the layout scope.

        Like ensure_hot_analysis(), run_rules() triggers this eagerly before
        forking so --jobs workers inherit the resolved layouts.
        """
        if self._layout is None:
            t0 = time.perf_counter()
            self._layout = LayoutAnalysis(self.files)
            self.layout_prepare_seconds = time.perf_counter() - t0
        return self._layout

    def load_layout_ledger(self):
        """The committed layout ledger, or None when the file is absent.

        A malformed ledger raises json.JSONDecodeError, which main() maps
        to exit code 2 (internal error) like every other corrupt input.
        """
        if self._layout_ledger is False:
            path = self.layout_ledger_path or DEFAULT_LAYOUT_LEDGER
            path = Path(path)
            if path.exists():
                self._layout_ledger = json.loads(path.read_text())
            else:
                self._layout_ledger = None
        return self._layout_ledger

    def enum_for_switch(self, name, seen_enumerators, rel=None):
        """The unique EnumDef consistent with the observed case labels.

        A definition in the file being linted shadows same-named enums
        elsewhere (test fixtures and doubles clone contract enums locally).
        """
        defs = self.enums.get(name, [])
        consistent = [d for d in defs if seen_enumerators <= set(d.enumerators)]
        if rel is not None:
            local = [d for d in consistent if d.file == rel]
            if local:
                consistent = local
        if len(consistent) == 1:
            return consistent[0]
        if consistent and all(set(d.enumerators) == set(consistent[0].enumerators)
                              for d in consistent):
            return consistent[0]
        return None


# ---------------------------------------------------------------------------
# Whole-program hot-path analysis (heuristic call graph)
# ---------------------------------------------------------------------------
#
# The hot-path rules (hot-no-alloc / hot-no-throw / hot-lock-discipline) gate
# the transitive closure of everything reachable from a CPT_HOT-annotated
# function (common/hotpath.h), so a per-file token scan is not enough: the
# analysis below builds a heuristic call graph over src/ from the same token
# streams the other rules use.
#
# Heuristics, stated so their failure modes are known:
#   - Function definitions come from function_bodies() spans; the name and
#     enclosing class are recovered by scanning back over the header (the
#     back-scan steps over ctor-initializer lists and specifier macros).
#   - A member call `x->F(...)` / `x.F(...)` resolves to EVERY definition of
#     F in the graph, which over-approximates virtual dispatch (exactly what
#     a gate wants: every override of a hot interface method is hot).
#   - A qualified call `Cls::F(...)` resolves to Cls's F only — that form is
#     devirtualized at the language level, so it neither widens the graph
#     nor lands in the debt ledger.
#   - Traversal prunes at CPT_COLD functions (the page-fault path is OS
#     work, off the steady-state loop by design) and at the observability /
#     audit boundary (HOT_BOUNDARY_GLOBS): those layers are null-checked or
#     disabled off the counted path by repo invariant, and keeping them out
#     of the closure keeps the rules about the replay loop itself.  Virtual
#     call *sites* into those layers (tracer_->Record(...)) still count as
#     devirtualization debt.
#
# The devirtualization-debt ledger (tools/hotpath_debt.json) enumerates every
# virtual call site reachable from the hot roots; --check-hot-debt gates it
# against growth exactly like the findings baseline, so ROADMAP item 2's
# CRTP/variant-dispatch work burns it down monotonically.

# Files that participate in the call graph and may carry hot-path findings.
HOT_GRAPH_GLOBS = ("src/*", "tests/lint/fixtures/*")
# Traversal stops at these layers (see the block comment above).
HOT_BOUNDARY_GLOBS = ("src/obs/*", "src/check/*")
DEFAULT_HOT_DEBT = Path(__file__).resolve().parent / "hotpath_debt.json"

CPP_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "return", "sizeof",
    "alignof", "alignas", "decltype", "new", "delete", "throw", "catch",
    "static_assert", "const_cast", "static_cast", "dynamic_cast",
    "reinterpret_cast", "operator", "template", "typename", "using",
    "namespace", "public", "private", "protected", "default", "break",
    "continue", "goto", "co_await", "co_return", "co_yield", "requires",
    "noexcept", "explicit", "inline", "constexpr", "consteval", "constinit",
}


class FunctionDef:
    """One function definition (a body span) discovered in a source file."""
    __slots__ = ("name", "cls", "file", "line", "start", "end",
                 "hot_depth", "is_root")

    def __init__(self, name, cls, file, line, start, end):
        self.name = name
        self.cls = cls          # enclosing/qualifying class name, or None
        self.file = file
        self.line = line
        self.start = start      # token index of the opening '{'
        self.end = end          # token index of the closing '}'
        self.hot_depth = None   # min call depth from a CPT_HOT root, or None
        self.is_root = False

    @property
    def qual(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name


def _match_paren_back(toks, close_index, open_ch="(", close_ch=")"):
    """tokens[close_index] must be close_ch; returns the matching open_ch."""
    depth = 0
    i = close_index
    while i >= 0:
        t = toks[i].text
        if t == close_ch:
            depth += 1
        elif t == open_ch:
            depth -= 1
            if depth == 0:
                return i
        i -= 1
    return 0


def _macro_like(name):
    return bool(re.fullmatch(r"[A-Z][A-Z0-9_]+", name))


def class_spans(toks):
    """(name, open_index, close_index) for every class/struct body."""
    spans = []
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind != "id" or t.text not in ("class", "struct"):
            i += 1
            continue
        prev = toks[i - 1].text if i > 0 else ""
        if prev in ("enum", "<", ","):  # enum class / template parameter
            i += 1
            continue
        name = None
        j = i + 1
        while j < len(toks) and toks[j].text not in ("{", ";", ":", "<"):
            tj = toks[j]
            if tj.kind == "id" and tj.text != "final" and not _macro_like(tj.text):
                name = tj.text
            j += 1
        while j < len(toks) and toks[j].text not in ("{", ";"):
            j += 1  # base clause
        if j < len(toks) and toks[j].text == "{" and name is not None:
            spans.append((name, j, _match_paren(toks, j, "{", "}")))
        i = j + 1 if j > i else i + 1
    return spans


def _innermost_class(spans, tok_index):
    best = None
    for name, open_idx, close_idx in spans:
        if open_idx < tok_index < close_idx:
            if best is None or open_idx > best[1]:
                best = (name, open_idx)
    return best[0] if best else None


def _header_name(toks, brace_index):
    """(name_index, qualifier) for the function body opening at brace_index.

    Scans back from the '{' to the parameter list's ')' — stepping over
    ctor-initializer groups, noexcept(...)/macro(...) groups, and specifier
    tokens — then reads `[Qualifier ::] Name` before the '('.
    """
    skip = {"const", "noexcept", "override", "final", "mutable", "&", "&&",
            "try", "->", "...", ">", "<", "::", ",", "*", "]", "["}
    j = brace_index - 1
    budget = 256
    while j >= 0 and budget > 0:
        budget -= 1
        t = toks[j]
        if t.text == ")":
            open_i = _match_paren_back(toks, j)
            k = open_i - 1
            if k < 0:
                return None
            name_tok = toks[k]
            if name_tok.kind != "id":
                # `](...)` lambda or operator(): no name to recover.
                return None
            before = toks[k - 1].text if k > 0 else ""
            if before in (":", ","):
                # A ctor-initializer group `, member_(...)`: the real header
                # is further back; resume the scan before the introducer.
                j = k - 2
                continue
            if name_tok.text == "noexcept" or _macro_like(name_tok.text):
                j = open_i - 1  # noexcept(...) / CPT_EXCLUDES(...) group
                continue
            if name_tok.text in CPP_KEYWORDS:
                return None  # if/while/switch header, not a function
            qual = None
            if k >= 2 and toks[k - 1].text == "::" and toks[k - 2].kind == "id":
                qual = toks[k - 2].text
            return k, qual
        if t.kind == "id" or t.text in skip:
            j -= 1
            continue
        return None
    return None


def extract_functions(sf):
    """FunctionDefs for every named function body in one file."""
    toks = sf.tokens
    spans = class_spans(toks)
    out = []
    for start, end in sf.function_spans():
        header = _header_name(toks, start)
        if header is None:
            continue
        name_idx, qual = header
        name_tok = toks[name_idx]
        cls = qual if qual is not None else _innermost_class(spans, name_idx)
        out.append(FunctionDef(name_tok.text, cls, sf.rel, name_tok.line,
                               start, end))
    return out


def _annotated_names(sf, marker):
    """(class, name) pairs whose declaration carries `marker` (CPT_HOT/...).

    The marker precedes the declarator; the declared name is the first
    identifier followed by '(' before the declaration ends.  Template
    argument lists and parameter-list internals never match because their
    identifiers are not directly followed by '('.
    """
    toks = sf.tokens
    spans = class_spans(toks)
    out = []
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != marker:
            continue
        j = i + 1
        while j + 1 < len(toks) and toks[j].text not in (";", "{", "}"):
            if (toks[j].kind == "id" and toks[j + 1].text == "("
                    and toks[j].text not in CPP_KEYWORDS
                    and not _macro_like(toks[j].text)):
                out.append((_innermost_class(spans, j), toks[j].text))
                break
            j += 1
    return out


def collect_virtual_methods(sf):
    """name -> interface class, for every `virtual`-declared method."""
    toks = sf.tokens
    spans = class_spans(toks)
    out = {}
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "virtual":
            continue
        j = i + 1
        while j + 1 < len(toks) and toks[j].text not in (";", "{", "}"):
            if (toks[j].kind == "id" and toks[j + 1].text == "("
                    and toks[j].text not in CPP_KEYWORDS):
                cls = _innermost_class(spans, j)
                # The base (first-seen) declarer names the interface; an
                # override re-declared `virtual` elsewhere keeps the root.
                out.setdefault(toks[j].text, cls)
                break
            j += 1
    return out


class CallSite:
    __slots__ = ("callee", "line", "form", "receiver")

    def __init__(self, callee, line, form, receiver=None):
        self.callee = callee
        self.line = line
        self.form = form        # "member" | "qualified" | "direct"
        self.receiver = receiver  # qualifier class for "qualified"


def extract_call_sites(toks, start, end):
    """CallSites inside one function body span (indices start..end)."""
    out = []
    i = start + 1
    while i < end:
        t = toks[i]
        if (t.kind == "id" and i + 1 <= end and toks[i + 1].text == "("
                and t.text not in CPP_KEYWORDS and not _macro_like(t.text)):
            prev = toks[i - 1].text if i > 0 else ""
            prev2 = toks[i - 2] if i > 1 else None
            if prev in (".", "->"):
                out.append(CallSite(t.text, t.line, "member"))
            elif prev == "::":
                recv = prev2.text if prev2 is not None and prev2.kind == "id" else None
                out.append(CallSite(t.text, t.line, "qualified", recv))
            else:
                out.append(CallSite(t.text, t.line, "direct"))
        i += 1
    return out


def _matches_mark(fd, marks):
    """Does FunctionDef fd match an annotated (class, name) pair?"""
    for cls, name in marks:
        if fd.name != name:
            continue
        if cls is None or fd.cls is None or fd.cls == cls:
            return True
    return False


class HotAnalysis:
    """The call graph, hot-reachable set, and devirtualization debt."""

    def __init__(self, files):
        graph_files = [sf for sf in files
                       if any(fnmatch.fnmatch(sf.rel, g) for g in HOT_GRAPH_GLOBS)]
        self.defs = []
        self.defs_by_name = {}
        self.virtual_methods = {}   # method name -> interface class
        hot_marks, cold_marks = [], []
        for sf in graph_files:
            for fd in extract_functions(sf):
                self.defs.append(fd)
                self.defs_by_name.setdefault(fd.name, []).append(fd)
            for name, cls in collect_virtual_methods(sf).items():
                self.virtual_methods.setdefault(name, cls)
            hot_marks.extend(_annotated_names(sf, "CPT_HOT"))
            cold_marks.extend(_annotated_names(sf, "CPT_COLD"))
        self._tokens_by_file = {sf.rel: sf.tokens for sf in graph_files}
        # Receivers something reserves: `x.reserve(n)` / `x.Reserve(n)`
        # anywhere in the graph sanctions push_back/resize growth on x in
        # hot code (capacity was provisioned; steady state cannot allocate).
        self.reserved_receivers = set()
        for sf in graph_files:
            toks = sf.tokens
            for i, t in enumerate(toks):
                if (t.kind == "id" and t.text in ("reserve", "Reserve")
                        and i > 1 and toks[i - 1].text in (".", "->")
                        and i + 1 < len(toks) and toks[i + 1].text == "("
                        and toks[i - 2].kind == "id"):
                    self.reserved_receivers.add(toks[i - 2].text)
        self.cold = {fd for fd in self.defs if _matches_mark(fd, cold_marks)}
        self._traverse(hot_marks)
        self._collect_debt()
        self._collect_locks()

    def _boundary(self, fd):
        return any(fnmatch.fnmatch(fd.file, g) for g in HOT_BOUNDARY_GLOBS)

    def _callees(self, fd):
        toks = self._tokens_by_file[fd.file]
        for site in extract_call_sites(toks, fd.start, fd.end):
            if site.form == "qualified" and site.receiver is not None:
                for cand in self.defs_by_name.get(site.callee, ()):
                    if cand.cls == site.receiver:
                        yield cand
            else:
                # Member and unqualified calls resolve to every same-named
                # definition: the virtual-dispatch over-approximation.
                yield from self.defs_by_name.get(site.callee, ())

    def _traverse(self, hot_marks):
        frontier = []
        for fd in self.defs:
            if _matches_mark(fd, hot_marks) and fd not in self.cold:
                fd.hot_depth = 0
                fd.is_root = True
                frontier.append(fd)
        while frontier:
            next_frontier = []
            for fd in frontier:
                if self._boundary(fd):
                    continue  # reachable, but its callees are not traversed
                for callee in self._callees(fd):
                    if callee.hot_depth is not None or callee in self.cold:
                        continue
                    callee.hot_depth = fd.hot_depth + 1
                    next_frontier.append(callee)
            frontier = next_frontier

    def hot_defs_in(self, rel):
        """Hot-reachable, checkable definitions in one file."""
        return [fd for fd in self.defs
                if fd.file == rel and fd.hot_depth is not None
                and not self._boundary(fd)]

    def _collect_debt(self):
        """Every virtual call site reachable from the hot roots."""
        self.virtual_sites = []   # dicts: file/function/callee/interface/...
        for fd in sorted((f for f in self.defs if f.hot_depth is not None
                          and f not in self.cold and not self._boundary(f)),
                         key=lambda f: (f.file, f.line)):
            toks = self._tokens_by_file[fd.file]
            for site in extract_call_sites(toks, fd.start, fd.end):
                if site.form == "qualified":
                    continue  # Cls::F() is devirtualized at the call site
                if site.callee not in self.virtual_methods:
                    continue
                self.virtual_sites.append({
                    "file": fd.file,
                    "function": fd.qual,
                    "callee": site.callee,
                    "interface": self.virtual_methods[site.callee] or "?",
                    "line": site.line,
                    "depth": fd.hot_depth,
                })

    # Lock acquisitions through the cpt:: wrappers; bare blocking calls are
    # hot-lock-discipline findings, never ledger entries.
    LOCK_WRAPPERS = {"MutexLock", "SharedMutexLock"}
    LOCK_METHODS = {"Acquire", "lock", "lock_shared", "try_lock", "WaitClockNs"}

    # The wrapper implementation itself (mu_.lock() inside cpt::Mutex) is
    # sanctioned; the budget tracks wrapper *use sites* in hot code.
    LOCK_IMPL_FILES = ("src/common/sync.h",)

    def _collect_locks(self):
        """Every cpt-wrapper lock site in hot-reachable code (the budget)."""
        self.hot_lock_sites = []
        for fd in sorted((f for f in self.defs if f.hot_depth is not None
                          and f not in self.cold and not self._boundary(f)
                          and f.file not in self.LOCK_IMPL_FILES),
                         key=lambda f: (f.file, f.line)):
            toks = self._tokens_by_file[fd.file]
            for i in range(fd.start + 1, fd.end):
                t = toks[i]
                if t.kind != "id":
                    continue
                prev = toks[i - 1].text if i > 0 else ""
                nxt = toks[i + 1].text if i + 1 < len(toks) else ""
                if t.text in self.LOCK_WRAPPERS or (
                        t.text in self.LOCK_METHODS and prev in (".", "->")
                        and nxt == "("):
                    self.hot_lock_sites.append({
                        "file": fd.file, "function": fd.qual,
                        "lock": t.text, "line": t.line,
                        "depth": fd.hot_depth,
                    })

    def debt_fingerprints(self):
        return Counter(f"{s['file']}::{s['function']}::{s['callee']}"
                       for s in self.virtual_sites)

    def lock_fingerprints(self):
        return Counter(f"{s['file']}::{s['function']}::{s['lock']}"
                       for s in self.hot_lock_sites)


# ---------------------------------------------------------------------------
# Devirtualization-debt ledger (growth-gated like the findings baseline)
# ---------------------------------------------------------------------------

def debt_payload(analysis):
    return {
        "schema": "cpt-hotpath-debt", "version": 1,
        "virtual_sites": dict(sorted(analysis.debt_fingerprints().items())),
        "hot_lock_sites": dict(sorted(analysis.lock_fingerprints().items())),
    }


def debt_report(analysis):
    """Detailed, human/CI-artifact view (line numbers and depths included)."""
    by_interface = Counter(s["interface"] for s in analysis.virtual_sites)
    return {
        "schema": "cpt-hotpath-debt-report", "version": 1,
        "total_virtual_sites": len(analysis.virtual_sites),
        "by_interface": dict(sorted(by_interface.items())),
        "sites": analysis.virtual_sites,
        "hot_lock_sites": analysis.hot_lock_sites,
    }


def load_debt(path):
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return (Counter(data.get("virtual_sites", {})),
            Counter(data.get("hot_lock_sites", {})))


def check_debt(analysis, path):
    """Exit-style status: 0 when no entry grew, 1 on growth.

    Mirrors the findings-baseline contract: a site fingerprint that is new
    or whose count increased fails; shrinkage is reported as stale (run
    --write-hot-debt to ratchet the ledger down).
    """
    if not Path(path).exists():
        print(f"hot-debt ledger missing: {path} (run --write-hot-debt)",
              file=sys.stderr)
        return 1
    want_virtual, want_locks = load_debt(path)
    ok = True
    for label, current, committed in (
            ("virtual call site", analysis.debt_fingerprints(), want_virtual),
            ("hot lock site", analysis.lock_fingerprints(), want_locks)):
        for fp, n in sorted(current.items()):
            limit = committed.get(fp, 0)
            if n > limit:
                print(f"hot-path debt grew: {label} {fp} "
                      f"({limit} -> {n}); devirtualize it or regenerate the "
                      f"ledger deliberately with --write-hot-debt",
                      file=sys.stderr)
                ok = False
        for fp, limit in sorted(committed.items()):
            if current.get(fp, 0) < limit:
                print(f"stale ledger entry (debt shrank — ratchet with "
                      f"--write-hot-debt): {label} {fp}")
    if ok:
        total = sum(analysis.debt_fingerprints().values())
        print(f"hot-debt ledger holds: {total} virtual call sites, "
              f"{sum(analysis.lock_fingerprints().values())} lock sites")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Struct/class layout model (heuristic Itanium rules, compiled-truth checked)
# ---------------------------------------------------------------------------
#
# The paper's headline metric is cache lines touched per TLB miss, so the
# byte-level layout of PTE nodes, chain nodes, and TLB entries IS the
# experiment.  The model below recovers {size, align, field offsets} for
# project structs from the same token streams the other rules use: a
# builtin table pins the fundamental and libstdc++ ABI sizes (LP64 x86-64,
# the platform every gate runs on), project types resolve recursively, and
# Itanium-style padding rules place the fields (alignas / bit-fields /
# [[no_unique_address]] aware; empty-base optimization; one vptr word for
# polymorphic classes).
#
# Heuristic honesty: anything the model cannot prove — dependent templates,
# unions, unresolvable constants or types — is skipped WITH A NOTICE
# (--layout-report), never silently guessed.  The whole model is pinned to
# the compiled ABI by tools/dump_layout.cc + tests/lint/layout_sync_check.py,
# mirroring the dump_enums/enum_sync_check.py pattern, so the analyzer can
# never drift from what the compiler actually lays out.
#
# Three rules ride on the model:
#   false-sharing      per-stripe/per-shard array elements smaller than a
#                      destructive-interference line, and atomics sharing a
#                      host line with a lock inside a CPT_SHARED class.
#   layout-ledger      every struct reachable from a CPT_HOT function must
#                      match the committed tools/layout_ledger.json; growth
#                      fails with a ratchet notice (--write-layout
#                      regenerates), and literal sizeof/alignof
#                      static_asserts are cross-checked against the model.
#   model-truth-sync   the line-size and node-span constants CacheTouchModel
#                      charges per walk step must equal the ledger-derived
#                      values for each PT organization's node struct.

# Host destructive-interference granule (std::hardware_destructive_
# interference_size on every gate platform).  Distinct from the SIMULATED
# line size kDefaultCacheLineSize (common/types.h) — never conflate them.
HOST_LINE_BYTES = 64
DEFAULT_LAYOUT_LEDGER = Path(__file__).resolve().parent / "layout_ledger.json"
# Files whose structs participate in the layout rules.  layout_* fixtures
# opt in so the goldens exercise the rules; every other fixture stays out
# so the historical goldens are unaffected.
LAYOUT_SCOPE_GLOBS = ("src/*",)
LAYOUT_FIXTURE_PREFIX = "tests/lint/fixtures/layout_"
# Where the simulated line-size constant and the model-truth rule anchor.
SIM_LINE_CONST = "kDefaultCacheLineSize"
MODEL_TRUTH_ANCHOR_FILE = "src/common/types.h"
# (key, file, accounting function, node struct) — the byte-span constants
# each PT organization charges per walk step, tied to its node struct.
MODEL_TRUTH_ANCHORS = (
    ("hashed-node", "src/pt/hashed.h", "NodeBytes",
     "HashedPageTable::Node"),
    ("hashed-tagnext", "src/pt/hashed.h", "TagNextBytes",
     "HashedPageTable::Node"),
    ("clustered-node", "src/core/clustered.h", "NodeBytes",
     "ClusteredPageTable::Node"),
    ("adaptive-node", "src/core/adaptive.h", "NodeBytes",
     "AdaptiveClusteredPageTable::Node"),
    ("software-tlb-entry", "src/pt/software_tlb.h", "EntryBytes",
     "SoftwareTlb::Entry"),
)


def _layout_scope(rel):
    return (any(fnmatch.fnmatch(rel, g) for g in LAYOUT_SCOPE_GLOBS)
            or rel.startswith(LAYOUT_FIXTURE_PREFIX))


def _boundary_rel(rel):
    return any(fnmatch.fnmatch(rel, g) for g in HOT_BOUNDARY_GLOBS)


def _align_up(n, a):
    return (n + a - 1) // a * a


class LayoutUnresolved(Exception):
    """Why one struct's layout cannot be proven (a skip-with-notice)."""


# LP64 x86-64 fundamental types (size, align).
FUNDAMENTAL_LAYOUTS = {
    "bool": (1, 1), "char": (1, 1), "signed char": (1, 1),
    "unsigned char": (1, 1), "char8_t": (1, 1), "char16_t": (2, 2),
    "char32_t": (4, 4), "wchar_t": (4, 4), "short": (2, 2),
    "unsigned short": (2, 2), "short int": (2, 2), "int": (4, 4),
    "unsigned": (4, 4), "unsigned int": (4, 4), "long": (8, 8),
    "unsigned long": (8, 8), "long int": (8, 8), "long long": (8, 8),
    "unsigned long long": (8, 8), "long long int": (8, 8),
    "float": (4, 4), "double": (8, 8), "long double": (16, 16),
    "int8_t": (1, 1), "uint8_t": (1, 1), "int16_t": (2, 2),
    "uint16_t": (2, 2), "int32_t": (4, 4), "uint32_t": (4, 4),
    "int64_t": (8, 8), "uint64_t": (8, 8), "size_t": (8, 8),
    "ptrdiff_t": (8, 8), "intptr_t": (8, 8), "uintptr_t": (8, 8),
    "byte": (1, 1),
}

# libstdc++ x86-64 container/handle layouts, probed on the gate platform
# and pinned by tools/dump_layout.cc.  Template arguments do not change
# these (node-based or pointer-triple representations).
LIB_LAYOUTS = {
    "string": (32, 8), "string_view": (16, 8), "vector": (24, 8),
    "deque": (80, 8), "list": (24, 8), "map": (48, 8), "set": (48, 8),
    "multimap": (48, 8), "multiset": (48, 8), "unordered_map": (56, 8),
    "unordered_set": (56, 8), "unique_ptr": (8, 8), "shared_ptr": (16, 8),
    "weak_ptr": (16, 8), "function": (32, 8), "mutex": (40, 8),
    "shared_mutex": (56, 8), "condition_variable": (48, 8),
    "thread": (8, 8), "span": (16, 8), "atomic_flag": (1, 1),
}

# Wrapper templates whose payload follows std::atomic packing: (s, s) for
# power-of-two scalar payloads up to 8 bytes.
ATOMIC_WRAPPER_BASES = {"atomic", "AtomicCell"}
# Outermost bases that classify a field for the false-sharing rule.
ATOMIC_FIELD_BASES = {"atomic", "AtomicCell", "AtomicMappingWord",
                      "atomic_flag"}
CAPABILITY_FIELD_BASES = {"Mutex", "SharedMutex"}
# Tokens stripped before type resolution.
STRIP_TYPE_TOKENS = {"const", "volatile", "mutable", "typename", "struct",
                     "class", "inline"}
# A statement containing any of these is not a data member.
MEMBER_SKIP_SPECIFIERS = {"static", "using", "typedef", "friend", "template",
                          "operator", "constexpr", "consteval", "explicit",
                          "virtual", "struct", "class", "enum", "union",
                          "static_assert", "requires", "public", "private",
                          "protected", "default", "delete", "return"}


class RawMember:
    __slots__ = ("name", "type_toks", "extents", "bit_width", "alignas_req",
                 "no_unique_address", "guard", "line")

    def __init__(self, name, type_toks, extents, bit_width, alignas_req,
                 no_unique_address, guard, line):
        self.name = name
        self.type_toks = type_toks   # tokens of the declared type
        self.extents = extents       # token lists, one per [N] extent
        self.bit_width = bit_width   # token list of the bit-field width
        self.alignas_req = alignas_req
        self.no_unique_address = no_unique_address
        self.guard = guard           # CPT_GUARDED_BY argument text, or None
        self.line = line


class RawStruct:
    __slots__ = ("qual", "name", "outer", "file", "line", "alignas_req",
                 "shared", "tparams", "bases", "has_virtual", "is_union",
                 "members")

    def __init__(self, qual, name, outer, file, line):
        self.qual = qual
        self.name = name
        self.outer = outer       # enclosing class name, or None
        self.file = file
        self.line = line
        self.alignas_req = 0     # struct-level alignas / CPT_CACHE_ALIGNED
        self.shared = False      # carries CPT_SHARED
        self.tparams = None      # template parameter names, or None
        self.bases = []
        self.has_virtual = False
        self.is_union = False
        self.members = []


class FieldLayout:
    __slots__ = ("name", "offset", "size", "align", "line", "atomic",
                 "capability", "guard", "bit_width")

    def __init__(self, name, offset, size, align, line, atomic, capability,
                 guard, bit_width):
        self.name = name
        self.offset = offset
        self.size = size
        self.align = align
        self.line = line
        self.atomic = atomic
        self.capability = capability
        self.guard = guard
        self.bit_width = bit_width

    def host_lines(self):
        """Indices of the HOST_LINE_BYTES lines this field touches."""
        last = self.offset + max(self.size, 1) - 1
        return range(self.offset // HOST_LINE_BYTES,
                     last // HOST_LINE_BYTES + 1)


class StructLayout:
    __slots__ = ("qual", "name", "file", "line", "size", "align", "fields",
                 "cache_aligned", "shared", "polymorphic", "empty")

    def __init__(self, qual, name, file, line, size, align, fields,
                 cache_aligned, shared, polymorphic):
        self.qual = qual
        self.name = name
        self.file = file
        self.line = line
        self.size = size
        self.align = align
        self.fields = fields
        self.cache_aligned = cache_aligned
        self.shared = shared
        self.polymorphic = polymorphic
        self.empty = (not fields and not polymorphic and size <= 1)


def _struct_decl_spans(toks):
    """(kw_index, name, open_index, close_index) for every class/struct/
    union definition body (class_spans plus the keyword index, so header
    annotations between the keyword and the brace can be recovered)."""
    spans = []
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind != "id" or t.text not in ("class", "struct", "union"):
            i += 1
            continue
        prev = toks[i - 1].text if i > 0 else ""
        if prev in ("enum", "<", ","):  # enum class / template parameter
            i += 1
            continue
        name = None
        j = i + 1
        while j < len(toks) and toks[j].text not in ("{", ";", ":", "<"):
            tj = toks[j]
            if tj.kind == "id" and tj.text != "final" and not _macro_like(tj.text):
                name = tj.text
            j += 1
        while j < len(toks) and toks[j].text not in ("{", ";"):
            j += 1  # base clause
        if j < len(toks) and toks[j].text == "{" and name is not None:
            spans.append((i, name, j, _match_paren(toks, j, "{", "}")))
        i = j + 1 if j > i else i + 1
    return spans


def _template_params(toks, kw_idx):
    """Parameter names of a template header ending just before kw_idx,
    or None when the declaration is not a template."""
    if kw_idx == 0 or toks[kw_idx - 1].text != ">":
        return None
    open_i = _match_paren_back(toks, kw_idx - 1, "<", ">")
    if open_i <= 0 or toks[open_i - 1].text != "template":
        return None
    names, last_id = [], None
    for k in range(open_i + 1, kw_idx - 1):
        t = toks[k]
        if t.text == ",":
            if last_id:
                names.append(last_id)
            last_id = None
        elif t.kind == "id" and t.text not in ("class", "typename"):
            last_id = t.text
    if last_id:
        names.append(last_id)
    return names


def _split_template(toks):
    """(base, hint, args) for a type token list: the last identifier of the
    qualifier chain before '<', the one before it (nested-type hint), and
    the template argument token lists (None when not a template use)."""
    chain = []
    i, n = 0, len(toks)
    while i < n and toks[i].text != "<":
        if toks[i].kind == "id" and toks[i].text not in STRIP_TYPE_TOKENS:
            chain.append(toks[i].text)
        i += 1
    base = chain[-1] if chain else None
    hint = chain[-2] if len(chain) > 1 else None
    if i >= n or toks[i].text != "<":
        return base, hint, None
    args, cur, depth = [], [], 1
    i += 1
    while i < n and depth > 0:
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
        elif t == ">>":
            depth -= 2
        if depth <= 0:
            break
        if t == "," and depth == 1:
            args.append(cur)
            cur = []
        else:
            cur.append(toks[i])
        i += 1
    if cur:
        args.append(cur)
    return base, hint, args


def _int_literal(text):
    """Value of a C++ integer literal token, or None for floats."""
    t = text.replace("'", "")
    while t and t[-1] in "uUlLzZ":
        t = t[:-1]
    try:
        return int(t, 0)
    except ValueError:
        return None


CONST_NAME_RE = re.compile(r"^k[A-Z]\w*$")


class LayoutAnalysis:
    """Struct layouts, constants, aliases and enums over the layout scope."""

    def __init__(self, files):
        self.structs = {}       # qual -> RawStruct (first definition wins)
        self.by_name = {}       # bare name -> [qual]
        self.aliases = {}       # name -> [(file, token list)]
        self.enum_layouts = {}  # name -> [(file, (size, align), line)]
        self.defines = {}       # object-like macro -> int
        self._const_defs = {}   # name -> [dict(file, cls, toks, value, state)]
        self._files = {}        # rel -> SourceFile (layout scope only)
        self._file_quals = {}   # rel -> [qual]
        self._sim_line = None   # cached (value, line) or an error string
        self._hot_quals = None
        for sf in files:
            if _layout_scope(sf.rel):
                self._files[sf.rel] = sf
                self._scan_file(sf)
        self.layouts = {}       # qual -> StructLayout
        self.skipped = {}       # qual -> reason (the skip-with-notice set)
        for qual in sorted(self.structs):
            try:
                self._layout_of(qual)
            except LayoutUnresolved:
                pass

    # ---- scanning ----------------------------------------------------------

    DEFINE_INT_RE = re.compile(r"#\s*define\s+(\w+)\s+(\d+)\s*$")

    def _scan_file(self, sf):
        toks = sf.tokens
        for d in sf.directives:
            m = self.DEFINE_INT_RE.match(d.text)
            if m:
                self.defines.setdefault(m.group(1), int(m.group(2)))
        cls_spans = class_spans(toks)
        self._scan_enums(sf, toks)
        self._scan_aliases(sf, toks)
        self._scan_consts(sf, toks, cls_spans)
        decls = _struct_decl_spans(toks)
        nested_starts = {kw: close for (kw, _, _, close) in decls}
        for kw, name, open_i, close_i in decls:
            outer = _innermost_class(cls_spans, kw)
            qual = f"{outer}::{name}" if outer else name
            if qual in self.structs:
                continue  # first definition wins (deterministic file order)
            raw = RawStruct(qual, name, outer, sf.rel, toks[kw].line)
            raw.is_union = toks[kw].text == "union"
            raw.tparams = _template_params(toks, kw)
            self._parse_header(toks, kw, open_i, raw, sf)
            raw.has_virtual = self._scan_virtual(toks, open_i, close_i, decls)
            raw.members = self._parse_members(
                toks, open_i, close_i, nested_starts, raw, sf)
            self.structs[qual] = raw
            self.by_name.setdefault(name, []).append(qual)
            self._file_quals.setdefault(sf.rel, []).append(qual)

    def _scan_enums(self, sf, toks):
        i = 0
        while i < len(toks):
            if toks[i].kind != "id" or toks[i].text != "enum":
                i += 1
                continue
            j = i + 1
            if j < len(toks) and toks[j].text in ("class", "struct"):
                j += 1
            if j >= len(toks) or toks[j].kind != "id":
                i = j
                continue
            name_tok = toks[j]
            j += 1
            under = []
            if j < len(toks) and toks[j].text == ":":
                j += 1
                while j < len(toks) and toks[j].text not in ("{", ";"):
                    under.append(toks[j])
                    j += 1
            layout = (4, 4)  # default underlying type is int
            if under:
                texts = " ".join(t.text for t in under
                                 if t.kind == "id" and t.text != "std")
                layout = FUNDAMENTAL_LAYOUTS.get(texts, (4, 4))
            self.enum_layouts.setdefault(name_tok.text, []).append(
                (sf.rel, layout, name_tok.line))
            i = j + 1

    def _scan_aliases(self, sf, toks):
        for i, t in enumerate(toks):
            if (t.kind == "id" and t.text == "using" and i + 2 < len(toks)
                    and toks[i + 1].kind == "id" and toks[i + 2].text == "="):
                j = i + 3
                body = []
                while j < len(toks) and toks[j].text != ";":
                    body.append(toks[j])
                    j += 1
                if body:
                    self.aliases.setdefault(toks[i + 1].text, []).append(
                        (sf.rel, body))

    def _scan_consts(self, sf, toks, cls_spans):
        for i, t in enumerate(toks):
            if (t.kind != "id" or not CONST_NAME_RE.match(t.text)
                    or i + 1 >= len(toks) or toks[i + 1].text != "="):
                continue
            prev = toks[i - 1].text if i > 0 else ""
            if prev in (".", "->", "::"):
                continue  # a use, not a declaration
            j = i + 2
            depth = 0
            expr = []
            while j < len(toks):
                tj = toks[j]
                if tj.text in ("(", "[", "{"):
                    depth += 1
                elif tj.text in (")", "]", "}"):
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and tj.text in (";", ","):
                    break
                expr.append(tj)
                j += 1
            if expr:
                cls = _innermost_class(cls_spans, i)
                self._const_defs.setdefault(t.text, []).append(
                    {"file": sf.rel, "cls": cls, "toks": expr,
                     "value": None, "state": 0})

    def _parse_header(self, toks, kw, open_i, raw, sf):
        j = kw + 1
        colon = None
        while j < open_i:
            t = toks[j]
            if t.text == "alignas" and j + 1 < open_i and toks[j + 1].text == "(":
                close = _match_paren(toks, j + 1, "(", ")")
                try:
                    raw.alignas_req = max(raw.alignas_req, self.eval_expr(
                        toks[j + 2:close], sf.rel, (raw.name, raw.outer)))
                except LayoutUnresolved:
                    pass
                j = close + 1
                continue
            if t.text == "CPT_CACHE_ALIGNED":
                raw.alignas_req = max(raw.alignas_req, self.cache_line_bytes())
                j += 1
                continue
            if t.text == "CPT_SHARED":
                raw.shared = True
                j += 1
                continue
            if t.text == ":":
                colon = j
                break
            j += 1
        if colon is None:
            return
        depth = 0
        last_id = None
        for k in range(colon + 1, open_i):
            t = toks[k]
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            elif depth == 0 and t.text == ",":
                if last_id:
                    raw.bases.append(last_id)
                last_id = None
            elif (depth == 0 and t.kind == "id"
                  and t.text not in ("public", "private", "protected",
                                     "virtual", "final")
                  and not _macro_like(t.text)):
                last_id = t.text
        if last_id:
            raw.bases.append(last_id)

    @staticmethod
    def _scan_virtual(toks, open_i, close_i, decls):
        nested = [(o, c) for (kw, _, o, c) in decls if open_i < o and c < close_i]
        k = open_i + 1
        while k < close_i:
            hit = next((c for (o, c) in nested if o <= k <= c), None)
            if hit is not None:
                k = hit + 1
                continue
            if toks[k].kind == "id" and toks[k].text == "virtual":
                return True
            k += 1
        return False

    def _parse_members(self, toks, open_i, close_i, nested_starts, raw, sf):
        members = []
        stmt = []
        saw_assign = False
        k = open_i + 1
        while k < close_i:
            if k in nested_starts and k != open_i:
                k = nested_starts[k] + 1  # skip the nested type's whole body
                if k < close_i and toks[k].text == ";":
                    k += 1
                stmt, saw_assign = [], False
                continue
            t = toks[k]
            if t.text in ("public", "private", "protected") \
                    and k + 1 < close_i and toks[k + 1].text == ":":
                k += 2
                stmt, saw_assign = [], False
                continue
            if t.text in ("(", "["):
                close = _match_paren(toks, k, t.text, ")" if t.text == "(" else "]")
                stmt.extend(toks[k:close + 1])
                k = close + 1
                continue
            if t.text == "{":
                close = _match_paren(toks, k, "{", "}")
                if saw_assign:
                    k = close + 1  # brace expression inside an initializer
                    continue
                if close + 1 < len(toks) and toks[close + 1].text == ";":
                    stmt.append(t)  # brace-init marker:  Vpn base_vpn{};
                    k = close + 1
                    continue
                stmt, saw_assign = [], False  # method/ctor body
                k = close + 1
                continue
            if t.text == ";":
                m = self._parse_member_stmt(stmt, raw, sf)
                if m is not None:
                    members.append(m)
                stmt, saw_assign = [], False
                k += 1
                continue
            if t.text == "=":
                saw_assign = True
            stmt.append(t)
            k += 1
        return members

    def _parse_member_stmt(self, stmt, raw, sf):
        if not stmt:
            return None
        texts = [t.text for t in stmt]
        if set(texts) & MEMBER_SKIP_SPECIFIERS or texts[0] == "~":
            return None
        guard = None
        alignas_req = 0
        nua = False
        clean = []
        i = 0
        while i < len(stmt):
            t = stmt[i]
            nxt = stmt[i + 1].text if i + 1 < len(stmt) else ""
            if t.text == "[" and nxt == "[":
                close = _match_paren(stmt, i, "[", "]")
                attr = {x.text for x in stmt[i:close + 1]}
                if "no_unique_address" in attr:
                    nua = True
                i = close + 1
                continue
            if t.text == "alignas" and nxt == "(":
                close = _match_paren(stmt, i + 1, "(", ")")
                try:
                    alignas_req = max(alignas_req, self.eval_expr(
                        stmt[i + 2:close], sf.rel, (raw.name, raw.outer)))
                except LayoutUnresolved:
                    pass
                i = close + 1
                continue
            if t.kind == "id" and _macro_like(t.text):
                if t.text == "CPT_CACHE_ALIGNED":
                    alignas_req = max(alignas_req, self.cache_line_bytes())
                    i += 1
                    continue
                if nxt == "(":
                    close = _match_paren(stmt, i + 1, "(", ")")
                    if t.text in GuardedByCoverage.GUARD_MACROS:
                        guard = " ".join(x.text for x in stmt[i + 2:close])
                    i = close + 1
                    continue
                i += 1  # bare annotation macro (CPT_HOT, CPT_COLD, ...)
                continue
            clean.append(t)
            i += 1
        if not clean:
            return None
        # Split off the initializer at the first top-level '=' BEFORE the
        # function-declaration test below: a call in the initializer
        # (`Attr a = Attr::ReadWrite();`) must not disguise the member as a
        # function.  A real function with default arguments still trips the
        # test, because its '(' precedes the first '='.
        depth = 0
        for j, t in enumerate(clean):
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            elif depth <= 0 and t.text == "=":
                clean = clean[:j]
                break
        # An identifier (or closing bracket) directly followed by '(' is a
        # function declaration, not a data member.
        for j, t in enumerate(clean):
            if t.text == "(" and j > 0 and (
                    clean[j - 1].kind == "id" or clean[j - 1].text in (">", "]")):
                return None
        # Bit-field:  type name : width   ('::' is a distinct token).
        bit_width = None
        for j, t in enumerate(clean):
            if t.text == ":" and 0 < j and clean[j - 1].kind == "id":
                bit_width = clean[j + 1:]
                clean = clean[:j]
                break
        extents = []
        while clean and clean[-1].text == "]":
            open_i = _match_paren_back(clean, len(clean) - 1, "[", "]")
            extents.insert(0, clean[open_i + 1:len(clean) - 1])
            clean = clean[:open_i]
        if clean and clean[-1].text == "{":
            clean = clean[:-1]  # brace-init marker
        if len(clean) < 2 or clean[-1].kind != "id":
            return None
        name_tok = clean[-1]
        return RawMember(name_tok.text, clean[:-1], extents, bit_width,
                         alignas_req, nua, guard, name_tok.line)

    # ---- constants ---------------------------------------------------------

    def cache_line_bytes(self):
        return self.defines.get("CPT_CACHE_LINE", HOST_LINE_BYTES)

    def const_value(self, name, file, classes):
        entries = self._const_defs.get(name)
        if entries is None:
            if name in self.defines:
                return self.defines[name]
            raise LayoutUnresolved(f"unresolved constant '{name}'")
        ranked = sorted(entries, key=lambda e: (
            0 if e["cls"] in classes and e["cls"] is not None else 1,
            0 if e["file"] == file else 1))
        best = ranked[0]
        if best["cls"] not in classes and best["file"] != file:
            values = set()
            for e in entries:
                try:
                    values.add(self._const_entry_value(e))
                except LayoutUnresolved:
                    pass
            if len(values) == 1:
                return values.pop()
            raise LayoutUnresolved(
                f"ambiguous constant '{name}' ({len(entries)} definitions)")
        return self._const_entry_value(best)

    def _const_entry_value(self, entry):
        if entry["state"] == 2:
            return entry["value"]
        if entry["state"] == 1:
            raise LayoutUnresolved("cyclic constant definition")
        entry["state"] = 1
        try:
            toks = entry["toks"]
            if toks and toks[0].text == "{":
                close = _match_paren(toks, 0, "{", "}")
                vals, cur = [], []
                depth = 0
                for t in toks[1:close]:
                    if t.text in ("(", "{", "["):
                        depth += 1
                    elif t.text in (")", "}", "]"):
                        depth -= 1
                    if depth == 0 and t.text == ",":
                        if cur:
                            vals.append(self.eval_expr(
                                cur, entry["file"], (entry["cls"],)))
                        cur = []
                    else:
                        cur.append(t)
                if cur:
                    vals.append(self.eval_expr(cur, entry["file"],
                                               (entry["cls"],)))
                entry["value"] = tuple(vals)
            else:
                entry["value"] = self.eval_expr(
                    toks, entry["file"], (entry["cls"],))
            entry["state"] = 2
            return entry["value"]
        except LayoutUnresolved:
            entry["state"] = 0
            raise

    # Minimal constant-expression evaluator: integer literals, k-constants
    # (optionally class-qualified or array-indexed), #define'd integers,
    # T{n} braced casts, parentheses, unary -/+/~ and the binary operators
    # below in C precedence.
    _BIN_LEVELS = (("|",), ("^",), ("&",), ("<<", ">>"), ("+", "-"),
                   ("*", "/", "%"))

    def eval_expr(self, toks, file, classes):
        toks = [t for t in toks if not (t.kind == "id" and t.text in (
            "static_cast", "std", "constexpr", "const"))
            and t.text != "::"]
        val, pos = self._eval_binary(toks, 0, 0, file, classes)
        if pos != len(toks):
            raise LayoutUnresolved(
                "unsupported constant expression: "
                + " ".join(t.text for t in toks))
        return val

    def _eval_binary(self, toks, pos, level, file, classes):
        if level >= len(self._BIN_LEVELS):
            return self._eval_unary(toks, pos, file, classes)
        ops = self._BIN_LEVELS[level]
        val, pos = self._eval_binary(toks, pos, level + 1, file, classes)
        while pos < len(toks) and toks[pos].text in ops:
            op = toks[pos].text
            rhs, pos = self._eval_binary(toks, pos + 1, level + 1, file, classes)
            if op == "|":
                val |= rhs
            elif op == "^":
                val ^= rhs
            elif op == "&":
                val &= rhs
            elif op == "<<":
                val <<= rhs
            elif op == ">>":
                val >>= rhs
            elif op == "+":
                val += rhs
            elif op == "-":
                val -= rhs
            elif op == "*":
                val *= rhs
            elif op == "/":
                if rhs == 0:
                    raise LayoutUnresolved("division by zero")
                val //= rhs
            elif op == "%":
                if rhs == 0:
                    raise LayoutUnresolved("modulo by zero")
                val %= rhs
        return val, pos

    def _eval_unary(self, toks, pos, file, classes):
        if pos < len(toks) and toks[pos].text in ("-", "+", "~"):
            op = toks[pos].text
            val, pos = self._eval_unary(toks, pos + 1, file, classes)
            if op == "-":
                val = -val
            elif op == "~":
                val = ~val
            return val, pos
        return self._eval_primary(toks, pos, file, classes)

    def _eval_primary(self, toks, pos, file, classes):
        if pos >= len(toks):
            raise LayoutUnresolved("truncated constant expression")
        t = toks[pos]
        if t.kind == "num":
            v = _int_literal(t.text)
            if v is None:
                raise LayoutUnresolved(f"non-integer literal {t.text}")
            return v, pos + 1
        if t.text == "(":
            close = _match_paren(toks, pos, "(", ")")
            val, inner = self._eval_binary(toks, pos + 1, 0, file, classes)
            if inner != close:
                raise LayoutUnresolved("unsupported parenthesized expression")
            return val, close + 1
        if t.kind == "id":
            chain = [t.text]
            pos += 1
            while pos + 1 < len(toks) and toks[pos].kind == "id":
                chain.append(toks[pos].text)
                pos += 1
            if pos < len(toks) and toks[pos].kind == "id":
                chain.append(toks[pos].text)
                pos += 1
            # T{n}: a braced integral cast — the value is the operand's.
            if pos < len(toks) and toks[pos].text == "{":
                close = _match_paren(toks, pos, "{", "}")
                val, inner = self._eval_binary(toks, pos + 1, 0, file, classes)
                if inner != close:
                    raise LayoutUnresolved("unsupported braced expression")
                return val, close + 1
            name = chain[-1]
            hint = chain[-2] if len(chain) > 1 else None
            ctx = (hint,) + tuple(classes) if hint else tuple(classes)
            val = self.const_value(name, file, ctx)
            if pos < len(toks) and toks[pos].text == "[":
                close = _match_paren(toks, pos, "[", "]")
                idx, inner = self._eval_binary(toks, pos + 1, 0, file, classes)
                if inner != close:
                    raise LayoutUnresolved("unsupported subscript expression")
                if not isinstance(val, tuple) or not 0 <= idx < len(val):
                    raise LayoutUnresolved(f"'{name}' is not an indexable "
                                           f"constant array")
                return val[idx], close + 1
            if isinstance(val, tuple):
                raise LayoutUnresolved(f"constant array '{name}' used as a "
                                       f"scalar")
            return val, pos
        raise LayoutUnresolved(f"unsupported constant token '{t.text}'")

    # ---- type resolution ---------------------------------------------------

    def sim_line_bytes(self):
        """(value, line) of kDefaultCacheLineSize, or raise."""
        if self._sim_line is None:
            entries = self._const_defs.get(SIM_LINE_CONST, [])
            anchored = [e for e in entries if e["file"] == MODEL_TRUTH_ANCHOR_FILE]
            if not anchored:
                anchored = entries
            if not anchored:
                self._sim_line = f"constant {SIM_LINE_CONST} not found"
            else:
                try:
                    self._sim_line = (self._const_entry_value(anchored[0]),
                                      anchored[0]["file"])
                except LayoutUnresolved as exc:
                    self._sim_line = str(exc)
        if isinstance(self._sim_line, str):
            raise LayoutUnresolved(self._sim_line)
        return self._sim_line[0]

    def lookup_struct(self, name, file, classes):
        """Qualified name of the project struct `name` resolves to in the
        given context, or None when no project struct matches."""
        for cls in classes:
            if cls and f"{cls}::{name}" in self.structs:
                return f"{cls}::{name}"
        quals = self.by_name.get(name)
        if not quals:
            return None
        same_file = [q for q in quals if self.structs[q].file == file]
        if len(same_file) == 1:
            return same_file[0]
        if len(quals) == 1:
            return quals[0]
        # Ambiguous bare name across files: only safe if every candidate
        # resolves to the identical layout.
        layouts = set()
        for q in quals:
            lay = self.layouts.get(q)
            if lay is None:
                raise LayoutUnresolved(
                    f"ambiguous type '{name}' ({len(quals)} definitions)")
            layouts.add((lay.size, lay.align))
        if len(layouts) == 1:
            return quals[0]
        raise LayoutUnresolved(
            f"ambiguous type '{name}' with differing layouts")

    def type_layout(self, toks, file, classes, stack=()):
        """(size, align) of the type spelled by `toks` in the context of
        `classes` (innermost first) within `file`."""
        toks = [t for t in toks if not (
            t.kind == "id" and t.text in STRIP_TYPE_TOKENS) and t.text != "::"]
        if not toks:
            raise LayoutUnresolved("empty type")
        if any(t.text in ("*", "&", "&&") for t in toks):
            return (8, 8)  # pointers, references, pointers-to-member-ish
        base, hint, args = _split_template(toks)
        if base is None:
            raise LayoutUnresolved(
                "unparsable type: " + " ".join(t.text for t in toks))
        if args is None:
            words = " ".join(t.text for t in toks
                             if t.kind == "id" and t.text != "std")
            if words in FUNDAMENTAL_LAYOUTS:
                return FUNDAMENTAL_LAYOUTS[words]
        if base in ATOMIC_WRAPPER_BASES and args:
            s, _ = self.type_layout(args[0], file, classes, stack)
            if s in (1, 2, 4, 8):
                return (s, s)
            raise LayoutUnresolved(f"atomic payload of {s} bytes")
        if base == "optional" and args:
            s, a = self.type_layout(args[0], file, classes, stack)
            return (_align_up(s + 1, a), a)
        if base == "array" and args and len(args) >= 2:
            s, a = self.type_layout(args[0], file, classes, stack)
            n = self.eval_expr(args[1], file, classes)
            return (s * n, a)
        if base == "pair" and args and len(args) >= 2:
            off, align = 0, 1
            for arg in args:
                s, a = self.type_layout(arg, file, classes, stack)
                off = _align_up(off, a) + s
                align = max(align, a)
            return (_align_up(off, align), align)
        if base in self.enum_layouts:
            cands = self.enum_layouts[base]
            same = [c for c in cands if c[0] == file]
            pick = same[0] if same else cands[0]
            if not same and len({c[1] for c in cands}) > 1:
                raise LayoutUnresolved(f"ambiguous enum '{base}'")
            return pick[1]
        if base in self.aliases and args is None:
            cands = self.aliases[base]
            same = [c for c in cands if c[0] == file]
            pick = same[0] if same else cands[0]
            return self.type_layout(pick[1], file, classes, stack)
        ctx = (hint,) + tuple(classes) if hint else tuple(classes)
        qual = self.lookup_struct(base, file, ctx)
        if qual is not None:
            lay = self._layout_of(qual, stack)
            return (lay.size, lay.align)
        if base in LIB_LAYOUTS:
            return LIB_LAYOUTS[base]
        raise LayoutUnresolved(
            "unknown type: " + " ".join(t.text for t in toks))

    def _layout_of(self, qual, stack=()):
        if qual in self.layouts:
            return self.layouts[qual]
        if qual in self.skipped:
            raise LayoutUnresolved(self.skipped[qual])
        if qual in stack:
            raise LayoutUnresolved(f"recursive type '{qual}'")
        raw = self.structs[qual]
        try:
            lay = self._compute(raw, stack + (qual,))
        except LayoutUnresolved as exc:
            self.skipped[qual] = str(exc)
            raise
        self.layouts[qual] = lay
        return lay

    def _compute(self, raw, stack):
        if raw.is_union:
            raise LayoutUnresolved("union layout not modeled")
        if raw.tparams:
            for m in raw.members:
                if any(t.kind == "id" and t.text in raw.tparams
                       for t in m.type_toks):
                    raise LayoutUnresolved(
                        f"template-dependent member '{m.name}'")
        classes = (raw.name, raw.outer)
        offset, align = 0, 1
        polymorphic = raw.has_virtual
        base_layouts = []
        for b in raw.bases:
            bqual = self.lookup_struct(b, raw.file, classes)
            if bqual is not None:
                blay = self._layout_of(bqual, stack)
                base_layouts.append(blay)
                polymorphic = polymorphic or blay.polymorphic
            elif b in LIB_LAYOUTS:
                s, a = LIB_LAYOUTS[b]
                base_layouts.append(StructLayout(
                    b, b, "<lib>", 0, s, a, [], False, False, False))
            else:
                raise LayoutUnresolved(f"unresolved base class '{b}'")
        if polymorphic and not (base_layouts and base_layouts[0].polymorphic):
            offset, align = 8, 8  # the vptr word
        for blay in base_layouts:
            if blay.empty and not blay.polymorphic:
                align = max(align, blay.align)  # empty-base optimization
                continue
            offset = _align_up(offset, blay.align) + blay.size
            align = max(align, blay.align)
        fields = []
        bit_container = None  # (size, start_offset, bits_used)
        for m in raw.members:
            s, a = self.type_layout(m.type_toks, raw.file, classes, stack)
            atomic = capability = False
            mbase, _, _ = _split_template(
                [t for t in m.type_toks
                 if not (t.kind == "id" and t.text in STRIP_TYPE_TOKENS)
                 and t.text != "::"])
            if not any(t.text in ("*", "&") for t in m.type_toks):
                atomic = mbase in ATOMIC_FIELD_BASES
                capability = mbase in CAPABILITY_FIELD_BASES
            if m.bit_width is not None:
                width = self.eval_expr(m.bit_width, raw.file, classes)
                if width > s * 8:
                    raise LayoutUnresolved(
                        f"bit-field '{m.name}' wider than its type")
                if (bit_container is not None and bit_container[0] == s
                        and bit_container[2] + width <= s * 8 and width > 0):
                    csize, cstart, used = bit_container
                    bit_container = (csize, cstart, used + width)
                    fields.append(FieldLayout(m.name, cstart, s, a, m.line,
                                              atomic, capability, m.guard,
                                              width))
                    continue
                start = _align_up(offset, a)
                bit_container = (s, start, width)
                fields.append(FieldLayout(m.name, start, s, a, m.line,
                                          atomic, capability, m.guard, width))
                offset = start + s
                align = max(align, a)
                continue
            bit_container = None
            for ext in m.extents:
                n = self.eval_expr(ext, raw.file, classes)
                s *= n
            a = max(a, m.alignas_req)
            if m.no_unique_address and s <= 1 and not m.extents:
                # Modeled as the empty-member optimization: zero bytes.
                fields.append(FieldLayout(m.name, _align_up(offset, a), 0, a,
                                          m.line, atomic, capability,
                                          m.guard, None))
                align = max(align, a)
                continue
            start = _align_up(offset, a)
            fields.append(FieldLayout(m.name, start, s, a, m.line, atomic,
                                      capability, m.guard, None))
            offset = start + s
            align = max(align, a)
        align = max(align, raw.alignas_req)
        size = _align_up(offset, align)
        if size == 0:
            size = 1
        return StructLayout(raw.qual, raw.name, raw.file, raw.line, size,
                            align, fields, raw.alignas_req
                            >= self.cache_line_bytes(), raw.shared,
                            polymorphic)

    # ---- hot-struct reachability -------------------------------------------

    def hot_struct_quals(self, project):
        """Quals of structs reachable from CPT_HOT functions: classes that
        define hot methods, types named in hot bodies, and the transitive
        member-type closure of both."""
        if self._hot_quals is not None:
            return self._hot_quals
        hot = project.ensure_hot_analysis()
        seeds = set()
        for fd in hot.defs:
            if (fd.hot_depth is None or fd in hot.cold
                    or hot._boundary(fd) or not _layout_scope(fd.file)):
                continue
            if fd.cls:
                for qual in self.by_name.get(fd.cls, ()):
                    seeds.add(qual)
            toks = hot._tokens_by_file[fd.file]
            for tok in toks[fd.start:fd.end + 1]:
                if tok.kind == "id" and tok.text in self.by_name:
                    ctx_qual = None
                    try:
                        ctx_qual = self.lookup_struct(
                            tok.text, fd.file, (fd.cls,))
                    except LayoutUnresolved:
                        pass
                    if ctx_qual:
                        seeds.add(ctx_qual)
        work = sorted(seeds)
        reach = set(work)
        while work:
            qual = work.pop()
            raw = self.structs.get(qual)
            if raw is None:
                continue
            names = set(raw.bases)
            for m in raw.members:
                for t in m.type_toks:
                    if t.kind == "id" and t.text in self.by_name:
                        names.add(t.text)
            for name in names:
                try:
                    nq = self.lookup_struct(name, raw.file,
                                            (raw.name, raw.outer))
                except LayoutUnresolved:
                    continue
                if nq and nq not in reach:
                    reach.add(nq)
                    work.append(nq)
        self._hot_quals = reach
        return reach

    def quals_in(self, rel):
        return self._file_quals.get(rel, [])


# ---- ledger / report payloads ---------------------------------------------

def _anchor_accounting_bytes(la, rel, func):
    """Sorted distinct integer literals inside `func`'s body in `rel` —
    the byte spans the accounting function charges per walk step."""
    sf = la._files.get(rel)
    if sf is None:
        return None
    for start, end in sf.function_spans():
        name_idx, _ = _header_name(sf.tokens, start)
        if name_idx is not None and sf.tokens[name_idx].text == func:
            vals = set()
            for t in sf.tokens[start:end + 1]:
                if t.kind == "num":
                    v = _int_literal(t.text)
                    if v is not None and v > 1:
                        vals.add(v)
            return sorted(vals)
    return None


def layout_ledger_payload(project):
    """The committed compiled-truth ledger: {size, align, field offsets} of
    every hot-reachable resolved struct plus the model-truth table tying
    CacheTouchModel's per-step constants to the node structs."""
    la = project.ensure_layout_analysis()
    try:
        sim_line = la.sim_line_bytes()
    except LayoutUnresolved:
        sim_line = None
    structs = {}
    for qual in sorted(la.hot_struct_quals(project)):
        lay = la.layouts.get(qual)
        if lay is None or not lay.file.startswith("src/"):
            continue
        if _boundary_rel(lay.file):
            continue  # boundary scaffolding is not ledgered
        structs[qual] = {
            "file": lay.file,
            "size": lay.size,
            "align": lay.align,
            "fields": {f.name: f.offset for f in lay.fields},
        }
    model_truth = {}
    for key, rel, func, node_qual in MODEL_TRUTH_ANCHORS:
        spans = _anchor_accounting_bytes(la, rel, func)
        lay = la.layouts.get(node_qual)
        if spans is None or lay is None or sim_line is None:
            continue
        model_truth[key] = {
            "file": rel,
            "function": func,
            "node": node_qual,
            "accounting_bytes": spans,
            "lines_per_access": [
                (b + sim_line - 1) // sim_line for b in spans],
            "struct_size": lay.size,
            "struct_lines": (lay.size + sim_line - 1) // sim_line,
        }
    return {
        "schema": "cpt-layout-ledger",
        "version": 1,
        "host_line_bytes": HOST_LINE_BYTES,
        "sim_line_bytes": sim_line,
        "word_bytes": 8,
        "structs": structs,
        "model_truth": model_truth,
    }


def layout_report(project):
    """Resolution report: every modeled struct, every skip-with-notice, the
    hot-reachable set, and the ledger payload the tree would commit."""
    la = project.ensure_layout_analysis()
    hot = la.hot_struct_quals(project)
    return {
        "resolved": {
            qual: {
                "file": lay.file,
                "size": lay.size,
                "align": lay.align,
                "cache_aligned": lay.cache_aligned,
                "hot": qual in hot,
                "fields": [
                    {"name": f.name, "offset": f.offset, "size": f.size,
                     "align": f.align}
                    for f in lay.fields],
            }
            for qual, lay in sorted(la.layouts.items())
        },
        "skipped": dict(sorted(la.skipped.items())),
        "hot_structs": sorted(q for q in hot if q in la.layouts),
        "ledger": layout_ledger_payload(project),
    }


# ---------------------------------------------------------------------------
# Rule framework
# ---------------------------------------------------------------------------

RULES = {}


class Rule:
    name = ""
    help = ""
    # fnmatch globs over repo-relative posix paths; empty = all lintable files.
    include = ()
    exclude = ()

    def applies(self, rel):
        if self.exclude and any(fnmatch.fnmatch(rel, g) for g in self.exclude):
            return False
        if not self.include:
            return True
        return any(fnmatch.fnmatch(rel, g) for g in self.include)

    def check(self, sf, project):
        raise NotImplementedError


def register(cls):
    RULES[cls.name] = cls()
    return cls


# ---- exhaustive-enum-switch -----------------------------------------------

@register
class ExhaustiveEnumSwitch(Rule):
    name = "exhaustive-enum-switch"
    help = ("switch statements over contract enums must list every enumerator "
            "(or carry a suppression explaining the subset)")

    def check(self, sf, project):
        findings = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text == "switch":
                self._check_switch(sf, project, toks, i, findings)
        return findings

    def _check_switch(self, sf, project, toks, i, findings):
        # Find the controlled body: switch ( cond ) { ... }
        j = i + 1
        if j >= len(toks) or toks[j].text != "(":
            return
        j = _match_paren(toks, j, "(", ")") + 1
        if j >= len(toks) or toks[j].text != "{":
            return
        close = _match_paren(toks, j, "{", "}")
        labels = {}  # enum name -> set(enumerator)
        k = j + 1
        while k < close:
            tk = toks[k]
            if tk.kind == "id" and tk.text == "switch":
                # Nested switch: its labels belong to it, not to us (the
                # outer token scan in check() will visit it on its own).
                nj = k + 1
                if nj < len(toks) and toks[nj].text == "(":
                    nj = _match_paren(toks, nj, "(", ")") + 1
                if nj < len(toks) and toks[nj].text == "{":
                    k = _match_paren(toks, nj, "{", "}") + 1
                    continue
            if tk.kind == "id" and tk.text == "case":
                ids = []
                k += 1
                while k < close and toks[k].text != ":":
                    if toks[k].kind == "id":
                        ids.append(toks[k].text)
                    k += 1
                if len(ids) >= 2:
                    labels.setdefault(ids[-2], set()).add(ids[-1])
                continue
            k += 1
        for enum_name, seen in labels.items():
            if enum_name not in CONTRACT_ENUMS:
                continue
            enum_def = project.enum_for_switch(enum_name, seen, sf.rel)
            if enum_def is None:
                continue
            missing = sorted(set(enum_def.enumerators) - seen)
            if not missing:
                continue
            shown = ", ".join(missing[:6]) + (", ..." if len(missing) > 6 else "")
            findings.append(Finding(
                self.name, sf, toks[i].line,
                f"switch over {enum_name} is missing {len(missing)} of "
                f"{len(enum_def.enumerators)} enumerators: {shown}"))


# ---- name-table-sync -------------------------------------------------------

@register
class NameTableSync(Rule):
    name = "name-table-sync"
    help = ("k<Enum>Names arrays must sit adjacent to a static_assert tying "
            "their length to the enum, and carry one entry per enumerator")
    ADJACENT_LINES = 4

    def check(self, sf, project):
        findings = []
        asserts = self._static_assert_spans(sf)
        for table in (t for t in project.name_tables if t.file == sf.rel):
            if not self._has_adjacent_assert(table, asserts):
                findings.append(Finding(
                    self.name, sf, table.line,
                    f"name table {table.name} has no adjacent "
                    f"static_assert(std::size({table.name}) == ...) within "
                    f"{self.ADJACENT_LINES} lines"))
            enum_name = table.name[1:-len("Names")]
            enum_def = project.enum_for_switch(enum_name, set(), sf.rel)
            if enum_def is not None and len(table.strings) != len(enum_def.enumerators):
                findings.append(Finding(
                    self.name, sf, table.line,
                    f"{table.name} has {len(table.strings)} entries but enum "
                    f"{enum_name} has {len(enum_def.enumerators)} enumerators"))
        return findings

    @staticmethod
    def _static_assert_spans(sf):
        spans = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind == "id" and t.text == "static_assert" and i + 1 < len(toks) \
                    and toks[i + 1].text == "(":
                close = _match_paren(toks, i + 1, "(", ")")
                names = {tk.text for tk in toks[i + 2:close] if tk.kind == "id"}
                spans.append((t.line, toks[close].line, names))
        return spans

    def _has_adjacent_assert(self, table, asserts):
        for start, end, names in asserts:
            if table.name not in names:
                continue
            if (abs(start - table.end_line) <= self.ADJACENT_LINES
                    or abs(end - table.line) <= self.ADJACENT_LINES):
                return True
        return False


# ---- walk-protocol-pairing -------------------------------------------------

def function_bodies(toks):
    """Yields (start_index, end_index) spans of function bodies.

    Heuristic: a '{' opens a function body when, scanning back over type
    and specifier tokens, the previous structural token is ')'.  Nested
    braces (blocks, lambdas, initializers) inside a body are part of it.
    """
    skippable = {"const", "noexcept", "override", "final", "mutable", "&", "&&",
                 "->", "::", "<", ">", ",", "*", "]", "[", "try"}
    depth = 0
    fn_start = fn_depth = None
    for i, t in enumerate(toks):
        if t.text == "{":
            if fn_start is None and _is_function_header(toks, i, skippable):
                fn_start, fn_depth = i, depth
            depth += 1
        elif t.text == "}":
            depth -= 1
            if fn_start is not None and depth == fn_depth:
                yield fn_start, i
                fn_start = fn_depth = None


def _is_function_header(toks, brace_index, skippable):
    j = brace_index - 1
    budget = 24
    while j >= 0 and budget > 0:
        t = toks[j]
        if t.text == ")":
            return True
        if t.kind == "id" and (t.text in skippable or ID_RE.match(t.text)):
            # Identifiers cover trailing return types and ctor-init names;
            # anything structural ends the scan below.
            j -= 1
            budget -= 1
            continue
        if t.text in skippable:
            j -= 1
            budget -= 1
            continue
        return False
    return False


@register
class WalkProtocolPairing(Rule):
    name = "walk-protocol-pairing"
    help = ("BeginWalk() needs a matching EndWalk()/AbortWalk() (or WalkScope) "
            "in the same function, and kWalkHit must be emitted before kWalkEnd")
    include = ("src/pt/*", "src/tlb/*", "src/mem/*", "src/sim/*", "src/core/*",
               "src/os/*", "tests/lint/fixtures/*")
    # The cache model defines the walk brackets themselves (WalkScope's ctor
    # and dtor intentionally split the pair across two bodies).
    exclude = ("src/mem/cache_model.h", "src/mem/cache_model.cc")

    WALK_EVENTS = ("kWalkHit", "kWalkEnd", "kWalkAbort", "kWalkStep")

    def check(self, sf, project):
        findings = []
        toks = sf.tokens
        for start, end in sf.function_spans():
            self._check_body(sf, toks, start, end, findings)
        return findings

    def _check_body(self, sf, toks, start, end, findings):
        begin = finish = None
        emissions = []  # (event_name, line) inside Record(...) calls
        i = start
        while i <= end:
            t = toks[i]
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if t.kind == "id" and prev in (".", "->") and nxt == "(":
                if t.text == "BeginWalk" and begin is None:
                    begin = t
                elif t.text in ("EndWalk", "AbortWalk") and finish is None:
                    finish = t
            if t.kind == "id" and t.text == "WalkScope" and finish is None:
                finish = t
            if t.kind == "id" and t.text == "Record" and nxt == "(":
                close = _match_paren(toks, i + 1, "(", ")")
                for k in range(i + 2, close):
                    tk = toks[k]
                    if tk.kind == "id" and tk.text in self.WALK_EVENTS \
                            and toks[k - 1].text == "::":
                        emissions.append((tk.text, tk.line))
                i = close + 1
                continue
            i += 1
        if begin is not None and finish is None:
            findings.append(Finding(
                self.name, sf, begin.line,
                "BeginWalk() without a matching EndWalk()/AbortWalk() or "
                "WalkScope in the same function"))
        hit = next((line for name, line in emissions if name == "kWalkHit"), None)
        walk_end = next((line for name, line in emissions if name == "kWalkEnd"), None)
        if hit is not None and walk_end is not None and walk_end < hit:
            findings.append(Finding(
                self.name, sf, walk_end,
                "kWalkEnd emitted before kWalkHit in the same function "
                "(the hit marker must precede the walk-end bracket)"))


# ---- check-macro-hygiene ---------------------------------------------------

@register
class CheckMacroHygiene(Rule):
    name = "check-macro-hygiene"
    help = ("simulator code uses CPT_CHECK/CPT_DCHECK, never raw assert()/"
            "abort()/<cassert>")
    include = ("src/*", "bench/*", "examples/*", "tools/*", "tests/lint/fixtures/*")

    INCLUDE_RE = re.compile(r"#\s*include\s*[<\"](cassert|assert\.h)[>\"]")

    def check(self, sf, project):
        findings = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            prev = toks[i - 1].text if i > 0 else ""
            if t.kind != "id" or nxt != "(":
                continue
            if t.text == "assert" and prev not in (".", "->"):
                findings.append(Finding(
                    self.name, sf, t.line,
                    "raw assert(); use CPT_DCHECK (hot path) or CPT_CHECK "
                    "(always-on) from common/check.h",
                    fixes=[(t.pos, t.pos + len(t.text), "CPT_DCHECK")]))
            elif t.text == "abort" and prev not in (".", "->"):
                findings.append(Finding(
                    self.name, sf, t.line,
                    "raw abort(); use CPT_CHECK(false, \"reason\") so the "
                    "failure prints expression and location"))
        for d in sf.directives:
            if self.INCLUDE_RE.search(d.text):
                findings.append(Finding(
                    self.name, sf, d.line,
                    "#include <cassert> in simulator code; include "
                    "common/check.h instead",
                    fixes=[(d.pos, min(d.end + 1, len(sf.text)), "")]))
        return findings


# ---- determinism-guards ----------------------------------------------------

@register
class DeterminismGuards(Rule):
    name = "determinism-guards"
    help = ("all randomness flows through common/rng.h and all timing through "
            "obs/timer.h; no float-literal ==/!= comparisons")
    include = ("src/*", "bench/*", "examples/*", "tests/*")
    exclude = ("src/common/rng.h",)

    BANNED_CALLS = {"rand", "srand", "drand48", "random", "time", "clock",
                    "gettimeofday", "timespec_get"}
    BANNED_TYPES = {"random_device"}

    def check(self, sf, project):
        findings = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            prev = toks[i - 1].text if i > 0 else ""
            if t.kind == "id" and t.text in self.BANNED_TYPES:
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"std::{t.text} is nondeterministic; seed a cpt::Rng "
                    "(common/rng.h) instead"))
            elif (t.kind == "id" and t.text in self.BANNED_CALLS
                    and nxt == "(" and prev not in (".", "->")):
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"{t.text}() breaks run-to-run reproducibility; use "
                    "cpt::Rng (common/rng.h) for randomness or obs/timer.h "
                    "for timing"))
            elif t.text in ("==", "!=") and (
                    (i > 0 and is_float_literal(toks[i - 1]))
                    or (i + 1 < len(toks) and is_float_literal(toks[i + 1]))):
                findings.append(Finding(
                    self.name, sf, t.line,
                    "exact float comparison against a literal; compare "
                    "integers or use an explicit tolerance"))
        return findings


# ---- timing-discipline ----------------------------------------------------

@register
class TimingDiscipline(Rule):
    name = "timing-discipline"
    help = ("raw clock reads live only in obs/timer.* and obs/perf.*; "
            "measure host time with ScopedTimer/PhaseProfiler or "
            "HostPerfCounters so every reported number shares one clock")
    include = ("src/*", "bench/*", "examples/*", "tests/*")
    exclude = ("src/obs/timer.h", "src/obs/timer.cc",
               "src/obs/perf.h", "src/obs/perf.cc")

    # std::chrono clock types whose now() is a raw wall/CPU-time read.
    BANNED_CLOCKS = {"steady_clock", "high_resolution_clock", "system_clock"}
    # POSIX clock syscalls (distinct identifiers from determinism-guards'
    # banned clock()/time()).
    BANNED_CALLS = {"clock_gettime", "clock_getres"}

    def check(self, sf, project):
        findings = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            prev = toks[i - 1].text if i > 0 else ""
            if prev in (".", "->"):
                continue  # Member access, not the chrono type / libc call.
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if t.text in self.BANNED_CLOCKS:
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"raw std::chrono::{t.text} use; route host timing "
                    "through obs/timer.h (ScopedTimer/PhaseProfiler) or "
                    "obs/perf.h (HostPerfCounters)"))
            elif t.text in self.BANNED_CALLS and nxt == "(":
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"{t.text}() bypasses the shared timing layer; use "
                    "obs/timer.h or obs/perf.h"))
        return findings


# ---- include-guard ---------------------------------------------------------

IFNDEF_RE = re.compile(r"#\s*ifndef\s+(\w+)")
DEFINE_RE = re.compile(r"#\s*define\s+(\w+)")
ENDIF_RE = re.compile(r"#\s*endif(?:\s*//\s*(\w+))?")
PRAGMA_ONCE_RE = re.compile(r"#\s*pragma\s+once")


@register
class IncludeGuard(Rule):
    name = "include-guard"
    help = ("headers carry canonical CPT_<PATH>_H_ guards with a matching "
            "'#endif  // <GUARD>' trailer")
    include = ("src/*.h", "src/*/*.h", "bench/*.h", "tests/lint/fixtures/*.h")

    @staticmethod
    def expected_guard(rel):
        parts = Path(rel).parts
        if parts and parts[0] == "src":
            parts = parts[1:]
        stem = Path(parts[-1]).stem
        pieces = [p.upper() for p in parts[:-1]] + [stem.upper()]
        return "CPT_" + "_".join(re.sub(r"[^A-Z0-9]", "_", p) for p in pieces) + "_H_"

    def check(self, sf, project):
        if not sf.rel.endswith((".h", ".hpp")):
            return []  # Intrinsically a header rule, even under --ignore-scope.
        want = self.expected_guard(sf.rel)
        findings = []
        ds = sf.directives
        if any(PRAGMA_ONCE_RE.search(d.text) for d in ds):
            findings.append(Finding(
                self.name, sf, 1,
                f"#pragma once; use the canonical guard {want}"))
            return findings
        if len(ds) < 3:
            findings.append(Finding(
                self.name, sf, 1, f"missing include guard {want}"))
            return findings
        first, second, last = ds[0], ds[1], ds[-1]
        m_if, m_def = IFNDEF_RE.match(first.text), DEFINE_RE.match(second.text)
        m_end = ENDIF_RE.match(last.text)
        if not m_if or not m_def or not m_end:
            findings.append(Finding(
                self.name, sf, first.line,
                f"header does not open with #ifndef/#define and close with "
                f"#endif (expected guard {want})"))
            return findings
        got_if, got_def = m_if.group(1), m_def.group(1)
        if got_if != want or got_def != want:
            fixes = []
            if got_if == got_def:
                fixes = [(first.pos, first.end, f"#ifndef {want}"),
                         (second.pos, second.end, f"#define {want}")]
                if m_end.group(1) != want:
                    # Retarget the trailer in the same pass: --fix must be a
                    # fixed point, not converge across two runs.
                    fixes.append((last.pos, last.end, f"#endif  // {want}"))
            findings.append(Finding(
                self.name, sf, first.line,
                f"include guard is {got_if} (expected {want})", fixes=fixes))
        elif m_end.group(1) != want:
            findings.append(Finding(
                self.name, sf, last.line,
                f"#endif lacks the '  // {want}' trailer",
                fixes=[(last.pos, last.end, f"#endif  // {want}")]))
        return findings


# ---- nodiscard-query -------------------------------------------------------

@register
class NodiscardQuery(Rule):
    name = "nodiscard-query"
    help = ("Lookup/LookupKey query declarations in headers must be "
            "[[nodiscard]]: discarding a fill is always a bug")
    include = ("src/*.h", "src/*/*.h", "tests/lint/fixtures/*.h")

    QUERY_METHODS = {"Lookup", "LookupKey"}
    DECL_STOP = {";", "{", "}"}

    def check(self, sf, project):
        findings = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in self.QUERY_METHODS:
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            prev = toks[i - 1] if i > 0 else None
            if prev is None or prev.text in (".", "->", "::", "(", ",", "=", "return", "!"):
                continue  # a call, not a declaration
            decl_start, prefix = self._decl_prefix(toks, i)
            texts = [p.text for p in prefix]
            if not texts or texts[-1] == "void":
                continue  # void return: nothing to discard
            if "nodiscard" in texts:
                continue
            first = toks[decl_start]
            findings.append(Finding(
                self.name, sf, t.line,
                f"{t.text}() returns a value callers must not drop; declare "
                f"it [[nodiscard]]",
                fixes=[(first.pos, first.pos, "[[nodiscard]] ")]))
        return findings

    def _decl_prefix(self, toks, name_index):
        j = name_index - 1
        while j >= 0:
            t = toks[j]
            if t.text in self.DECL_STOP:
                break
            if t.text == ":" and j > 0 and toks[j - 1].text in (
                    "public", "private", "protected"):
                break
            j -= 1
        start = j + 1
        return start, toks[start:name_index]


# ---- raw-address-param -----------------------------------------------------

WORD_SPLIT_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z0-9]+|[A-Z]+")


def identifier_words(name):
    """Lowercased word list of a snake_case or CamelCase identifier."""
    words = []
    for chunk in name.strip("_").split("_"):
        words.extend(w.lower() for w in WORD_SPLIT_RE.findall(chunk))
    return words


@register
class RawAddressParam(Rule):
    name = "raw-address-param"
    help = ("address-domain values cross public-header APIs as strong types "
            "(VirtAddr/Vpn/Vpbn/Ppn from common/types.h), never as raw "
            "std::uint64_t parameters or returns")
    include = ("src/*.h", "src/*/*.h", "tests/lint/fixtures/*.h")

    # A parameter or function whose name contains one of these words (after
    # snake/camel word-splitting) carries an address-domain value; "block" is
    # included for block numbers, but factor/count/shift words mark scalar
    # quantities that legitimately stay integral.
    DOMAIN_WORDS = {"va", "vpn", "vpbn", "ppn", "pfn", "block"}
    SCALAR_WORDS = {"factor", "count", "shift", "log2", "bits", "mask",
                    "size", "bytes", "len", "num", "misses", "hits"}
    CALL_PREV = {".", "->", "::", "(", ",", "=", "return", "!", "<", "&&",
                 "||", "case", "+", "-", "*", "/", "%", "&", "|", "^"}

    def check(self, sf, project):
        if not sf.rel.endswith((".h", ".hpp")):
            return []  # Intrinsically a header rule, even under --ignore-scope.
        findings = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind != "id" or i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            prev = toks[i - 1] if i > 0 else None
            if prev is not None and prev.text in self.CALL_PREV:
                continue  # a call or expression, not a declaration
            close = _match_paren(toks, i + 1, "(", ")")
            self._check_params(sf, toks, i + 2, close, t.text, findings)
            self._check_return(sf, toks, i, t, findings)
        return findings

    def _check_params(self, sf, toks, start, close, fn_name, findings):
        k = start
        while k < close:
            if not self._is_u64(toks, k):
                k += 1
                continue
            # std::uint64_t NAME followed by ',' ')' or '=' is a parameter
            # declaration; anything else (casts, templates) is not.
            name_tok = toks[k + 1] if k + 1 < close else None
            after = toks[k + 2].text if k + 2 <= close else ""
            k += 1
            if name_tok is None or name_tok.kind != "id":
                continue
            if after not in (",", ")", "="):
                continue
            words = identifier_words(name_tok.text)
            if set(words) & self.DOMAIN_WORDS and not (set(words) & self.SCALAR_WORDS):
                findings.append(Finding(
                    self.name, sf, name_tok.line,
                    f"parameter '{name_tok.text}' of {fn_name}() carries an "
                    f"address-domain value as raw std::uint64_t; use the "
                    f"strong type from common/types.h"))

    def _check_return(self, sf, toks, name_index, name_tok, findings):
        j = name_index - 1
        prefix = []
        while j >= 0 and toks[j].text not in (";", "{", "}") and len(prefix) < 12:
            if toks[j].text == ":" and j > 0 and toks[j - 1].text in (
                    "public", "private", "protected"):
                break
            prefix.append(toks[j].text)
            j -= 1
        ids = [p for p in prefix if ID_RE.fullmatch(p)]
        if not ids or ids[0] != "uint64_t":
            return  # return type is not uint64_t
        words = identifier_words(name_tok.text)
        if set(words) & self.DOMAIN_WORDS and not (set(words) & self.SCALAR_WORDS):
            findings.append(Finding(
                self.name, sf, name_tok.line,
                f"{name_tok.text}() returns an address-domain value as raw "
                f"std::uint64_t; return the strong type from common/types.h"))

    @staticmethod
    def _is_u64(toks, k):
        return toks[k].kind == "id" and toks[k].text == "uint64_t"


# ---- guarded-by-coverage ---------------------------------------------------

@register
class GuardedByCoverage(Rule):
    name = "guarded-by-coverage"
    help = ("mutable data members of CPT_SHARED-marked classes must be "
            "CPT_GUARDED_BY, atomic, or const (DESIGN.md 'Concurrency "
            "contracts')")
    include = ("src/*", "tests/lint/fixtures/*")

    # Types that are their own synchronization story.
    ATOMIC_TYPES = {"atomic", "atomic_flag", "AtomicCell", "AtomicMappingWord"}
    # The capabilities themselves, and capability containers.
    CAPABILITY_TYPES = {"Mutex", "SharedMutex", "StripeSet"}
    GUARD_MACROS = {"CPT_GUARDED_BY", "CPT_PT_GUARDED_BY"}
    EXEMPT_SPECIFIERS = {"const", "constexpr", "static", "using", "typedef",
                         "friend", "enum"}

    def check(self, sf, project):
        findings = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text != "CPT_SHARED":
                continue
            prev = toks[i - 1].text if i > 0 else ""
            if prev not in ("class", "struct"):
                continue
            name = toks[i + 1].text if i + 1 < len(toks) else "?"
            j = i + 1
            while j < len(toks) and toks[j].text not in ("{", ";"):
                j += 1
            if j >= len(toks) or toks[j].text != "{":
                continue  # forward declaration
            close = _match_paren(toks, j, "{", "}")
            self._check_members(sf, toks, name, j, close, findings)
        return findings

    def _check_members(self, sf, toks, cls, open_idx, close, findings):
        stmt = []
        k = open_idx + 1
        while k < close:
            t = toks[k]
            if t.text in ("(", "["):
                stmt.append(t)
                k = _match_paren(toks, k, t.text, ")" if t.text == "(" else "]") + 1
                continue
            if t.text == "{":
                # Method body, nested type body, or brace initializer: the
                # contents are not this class's direct members.
                stmt.append(t)
                k = _match_paren(toks, k, "{", "}") + 1
                if k < close and toks[k].text != ";":
                    stmt = []  # brace-terminated definition (method body)
                continue
            if t.text == ";":
                self._check_stmt(sf, cls, stmt, findings)
                stmt = []
                k += 1
                continue
            stmt.append(t)
            k += 1

    def _check_stmt(self, sf, cls, stmt, findings):
        texts = [t.text for t in stmt]
        if not stmt or set(texts) & self.EXEMPT_SPECIFIERS:
            return
        if set(texts) & self.GUARD_MACROS:
            return
        name_tok = self._member_name(stmt)
        if name_tok is None:
            return
        type_texts = set(texts[:texts.index(name_tok.text)])
        if type_texts & (self.ATOMIC_TYPES | self.CAPABILITY_TYPES):
            return
        findings.append(Finding(
            self.name, sf, name_tok.line,
            f"mutable member '{name_tok.text}' of CPT_SHARED class {cls} is "
            f"neither CPT_GUARDED_BY, atomic, nor const"))

    @staticmethod
    def _member_name(stmt):
        """The data-member name: an id ending in '_' that is the last token
        or directly precedes its initializer ('=', '{', '[')."""
        for idx, t in enumerate(stmt):
            if t.kind != "id" or not t.text.endswith("_"):
                continue
            if idx == len(stmt) - 1:
                return t
            if stmt[idx + 1].text in ("=", "{", "["):
                return t
        return None


# ---- atomic-discipline -----------------------------------------------------

@register
class AtomicDiscipline(Rule):
    name = "atomic-discipline"
    help = ("explicit memory_order_* arguments need an adjacent justification "
            "comment, and a member accessed via the atomic API must not also "
            "be mutated with raw assignment in the same file")
    include = ("src/*", "tests/lint/fixtures/*")

    # std::atomic API plus the cpt wrappers (AtomicCell / AtomicMappingWord).
    ATOMIC_METHODS = {"load", "store", "exchange", "fetch_add", "fetch_sub",
                      "fetch_or", "fetch_and", "fetch_xor",
                      "compare_exchange_weak", "compare_exchange_strong",
                      "load_relaxed", "load_acquire", "store_relaxed",
                      "store_release", "fetch_add_relaxed", "fetch_sub_relaxed",
                      "FetchOrAttr", "CompareExchange"}
    MUTATORS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                "<<=", ">>=", "++", "--"}
    # A comment on the same line, or ending at most this many lines above,
    # justifies the order (call arguments often wrap one line).
    ADJACENT_LINES = 2

    def check(self, sf, project):
        findings = []
        toks = sf.tokens
        justified = set()
        for c in sf.comments:
            justified.update(range(c.line, c.end_line + self.ADJACENT_LINES + 1))
        flagged_lines = set()
        for t in toks:
            if t.kind != "id" or not t.text.startswith("memory_order"):
                continue
            if t.line in justified or t.line in flagged_lines:
                continue
            flagged_lines.add(t.line)
            findings.append(Finding(
                self.name, sf, t.line,
                f"explicit {t.text} argument without an adjacent justification "
                f"comment (state the pairing/ordering it relies on)"))
        findings.extend(self._check_mixing(sf, toks))
        return findings

    def _check_mixing(self, sf, toks):
        # Members (ids ending in '_') accessed through the atomic API ...
        atomic_members = set()
        for i, t in enumerate(toks):
            if (t.kind == "id" and t.text in self.ATOMIC_METHODS
                    and i > 1 and toks[i - 1].text == "."
                    and i + 1 < len(toks) and toks[i + 1].text == "("
                    and toks[i - 2].kind == "id" and toks[i - 2].text.endswith("_")):
                atomic_members.add(toks[i - 2].text)
        if not atomic_members:
            return []
        # ... must never also be written through plain assignment sugar.
        out = []
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in atomic_members:
                continue
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            prev = toks[i - 1].text if i > 0 else ""
            if nxt in self.MUTATORS or prev in ("++", "--"):
                out.append(Finding(
                    self.name, sf, t.line,
                    f"raw mutation of '{t.text}', which is accessed through "
                    f"the atomic API elsewhere in this file; use the atomic "
                    f"member functions for every access"))
        return out


# ---- raw-sync-primitive ----------------------------------------------------

@register
class RawSyncPrimitive(Rule):
    name = "raw-sync-primitive"
    help = ("no threads or locks (std::mutex/std::lock_guard/std::thread/"
            "pthread_* ...) in src/ or bench/: the simulator is "
            "single-threaded and its page tables single-writer")
    include = ("src/*", "bench/*", "examples/*", "tests/lint/fixtures/*")

    BANNED_STD = {"mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
                  "recursive_timed_mutex", "lock_guard", "unique_lock",
                  "scoped_lock", "shared_lock", "condition_variable",
                  "condition_variable_any", "once_flag", "call_once",
                  "thread", "jthread", "atomic_flag"}

    def check(self, sf, project):
        findings = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            if t.text.startswith("pthread_"):
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"{t.text}: the simulator is single-threaded and its "
                    f"page tables single-writer; no threads or locks here"))
                continue
            prev = toks[i - 1].text if i > 0 else ""
            prev2 = toks[i - 2].text if i > 1 else ""
            if t.text in self.BANNED_STD and prev == "::" and prev2 == "std":
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"std::{t.text}: the simulator is single-threaded and its "
                    f"page tables single-writer; no threads or locks here"))
        return findings


# ---- hot-path rules (whole-program; see HotAnalysis above) -----------------

class HotPathRule(Rule):
    """Shared scaffolding: iterate hot-reachable definitions in one file."""
    include = HOT_GRAPH_GLOBS
    exclude = HOT_BOUNDARY_GLOBS

    def check(self, sf, project):
        hot = project.ensure_hot_analysis()
        findings = []
        toks = sf.tokens
        for fd in hot.hot_defs_in(sf.rel):
            self.check_hot_body(sf, toks, fd, hot, findings)
        return findings

    def check_hot_body(self, sf, toks, fd, hot, findings):
        raise NotImplementedError

    @staticmethod
    def where(fd):
        return (f"in {fd.qual}(), reachable from a CPT_HOT root at call "
                f"depth {fd.hot_depth}")


@register
class HotNoAlloc(HotPathRule):
    name = "hot-no-alloc"
    help = ("no heap allocation reachable from a CPT_HOT root: no new/"
            "make_unique, no unreserved push_back/resize, no string "
            "formatting or iostream (pair with cpt::HotPathScope, which "
            "proves the same property dynamically)")

    ALLOC_CALLS = {"malloc", "calloc", "realloc", "strdup",
                   "make_unique", "make_shared"}
    GROWTH_METHODS = {"push_back", "emplace_back", "resize"}
    FORMAT_IDS = {"to_string", "format", "stringstream", "ostringstream",
                  "istringstream"}
    IOSTREAM_IDS = {"cout", "cerr", "clog", "endl"}

    def check_hot_body(self, sf, toks, fd, hot, findings):
        for i in range(fd.start + 1, fd.end):
            t = toks[i]
            if t.kind != "id":
                continue
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if t.text == "new":
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"operator new {self.where(fd)}; hot paths must not "
                    f"allocate — hoist the allocation to setup or reserve "
                    f"capacity up front"))
            elif t.text in self.ALLOC_CALLS and nxt == "(":
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"{t.text}() {self.where(fd)}; hot paths must not "
                    f"allocate"))
            elif (t.text in self.GROWTH_METHODS and prev in (".", "->")
                    and nxt == "(" and i >= 2):
                # Receiver = identifier before '.'; step back over a
                # subscript or call group (free_lists_[k].push_back).
                j = i - 2
                if toks[j].text == "]":
                    j = _match_paren_back(toks, j, "[", "]") - 1
                elif toks[j].text == ")":
                    j = _match_paren_back(toks, j) - 1
                recv = toks[j].text if j >= 0 else ""
                if recv in hot.reserved_receivers:
                    continue  # capacity provisioned by a reserve() call
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"{recv}.{t.text}() {self.where(fd)} with no reserve() "
                    f"anywhere for '{recv}'; pre-reserve so steady state "
                    f"never reallocates"))
            elif t.text in self.FORMAT_IDS and prev != "->":
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"string formatting ({t.text}) {self.where(fd)}; format "
                    f"in cold reporting code, not per reference"))
            elif t.text in self.IOSTREAM_IDS:
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"iostream ({t.text}) {self.where(fd)}; hot paths do "
                    f"not do I/O"))


@register
class HotNoThrow(HotPathRule):
    name = "hot-no-throw"
    help = ("no throw and no throwing std calls (at/value/stoi...) reachable "
            "from a CPT_HOT root; hot-path failures are CPT_CHECK aborts, "
            "not exceptions")

    # Member calls that throw on the failure path.
    THROWING_MEMBERS = {"at", "value"}
    # Free std conversions that throw on bad input.
    THROWING_CALLS = {"stoi", "stol", "stoll", "stoul", "stoull",
                      "stof", "stod", "stold"}

    def check_hot_body(self, sf, toks, fd, hot, findings):
        for i in range(fd.start + 1, fd.end):
            t = toks[i]
            if t.kind != "id":
                continue
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if t.text == "throw":
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"throw {self.where(fd)}; use CPT_CHECK/CPT_DCHECK — "
                    f"the replay loop is noexcept territory"))
            elif (t.text in self.THROWING_MEMBERS and prev in (".", "->")
                    and nxt == "("):
                findings.append(Finding(
                    self.name, sf, t.line,
                    f".{t.text}() {self.where(fd)} throws on the failure "
                    f"path; use operator[]/operator* after a CPT_DCHECK"))
            elif t.text in self.THROWING_CALLS and nxt == "(":
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"std::{t.text}() {self.where(fd)} throws on bad input; "
                    f"parse in cold setup code"))


@register
class HotLockDiscipline(HotPathRule):
    name = "hot-lock-discipline"
    help = ("locks reachable from a CPT_HOT root must be cpt:: wrappers, "
            "carry an adjacent '// hot-lock:' justification, and live in the "
            "growth-gated ledger; bare blocking calls never pass")

    # The wrapper layer itself is the sanctioned implementation — the
    # discipline governs *use sites* of MutexLock and friends, not the
    # mu_.lock() calls inside the wrappers they delegate to.  Kept in sync
    # with the ledger via HotAnalysis.LOCK_IMPL_FILES.
    exclude = HOT_BOUNDARY_GLOBS + HotAnalysis.LOCK_IMPL_FILES

    # Never acceptable on a hot path, justified or not.
    BARE_BLOCKING = {"sleep", "usleep", "nanosleep", "sleep_for",
                     "sleep_until", "join", "wait", "wait_for", "wait_until"}
    ADJACENT_LINES = 2

    def check_hot_body(self, sf, toks, fd, hot, findings):
        justified = set()
        for c in sf.comments:
            if "hot-lock:" in c.text:
                justified.update(range(c.line, c.end_line + self.ADJACENT_LINES + 1))
        for i in range(fd.start + 1, fd.end):
            t = toks[i]
            if t.kind != "id":
                continue
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if (t.text in self.BARE_BLOCKING and nxt == "("):
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"blocking call {t.text}() {self.where(fd)}; a hot path "
                    f"never sleeps or joins"))
            elif t.text in HotAnalysis.LOCK_WRAPPERS or (
                    t.text in HotAnalysis.LOCK_METHODS and prev in (".", "->")
                    and nxt == "("):
                if t.line in justified:
                    continue  # budgeted: ledger growth-gates these sites
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"lock acquisition ({t.text}) {self.where(fd)} without "
                    f"an adjacent '// hot-lock:' justification; state why "
                    f"the critical section is bounded (the site is budgeted "
                    f"in tools/hotpath_debt.json either way)"))


# ---------------------------------------------------------------------------
# Memory-layout rules (see the layout-model section above)
# ---------------------------------------------------------------------------

# Member-name words that mark a per-thread-sharded array or container.
SHARD_WORDS = {"stripe", "stripes", "shard", "shards"}
# Wrappers peeled to find a sharded container's element type.
SHARD_WRAPPERS = {"array", "vector", "unique_ptr", "shared_ptr"}


class LayoutRule(Rule):
    """Shared scope gate: layout rules only ever see src/ and the layout_*
    fixture family — even under --ignore-scope — so the historical fixture
    goldens cannot grow layout findings."""

    include = LAYOUT_SCOPE_GLOBS + (LAYOUT_FIXTURE_PREFIX + "*",)

    def check(self, sf, project):
        if not _layout_scope(sf.rel):
            return []
        return self.check_layout(sf, project)

    def check_layout(self, sf, project):
        raise NotImplementedError


@register
class FalseSharing(LayoutRule):
    name = "false-sharing"
    help = ("per-stripe/per-shard array elements must be CPT_CACHE_ALIGNED "
            "(>= one destructive-interference line), and inside a CPT_SHARED "
            "class no atomic may share a host cache line with a lock or a "
            "field guarded by a different capability")

    def _shard_element(self, la, m, file, classes):
        """The element type tokens of a sharded container member, peeling
        array/vector/unique_ptr/shared_ptr wrappers; None if not sharded."""
        if not set(identifier_words(m.name)) & SHARD_WORDS:
            return None
        toks = m.type_toks
        if m.extents:
            return toks  # C array: the declared type is the element
        peeled = False
        while True:
            base, _, args = _split_template(toks)
            if base in SHARD_WRAPPERS and args:
                toks = args[0]
                while toks and toks[-1].text in ("[", "]"):
                    toks = toks[:-1]  # unique_ptr<T[]>
                peeled = True
                continue
            # A scalar named shard_/lock_stripes is an index or a count,
            # not per-shard storage; only real containers false-share.
            return toks if peeled else None

    def check_layout(self, sf, project):
        la = project.ensure_layout_analysis()
        line_bytes = la.cache_line_bytes()
        findings = []
        for qual in la.quals_in(sf.rel):
            raw = la.structs[qual]
            # (A) sharded containers: elements below a line false-share.
            for m in raw.members:
                elem = self._shard_element(la, m, raw.file,
                                           (raw.name, raw.outer))
                if elem is None:
                    continue
                etexts = [t.text for t in elem]
                if any(t in ("*", "&") for t in etexts):
                    continue  # an array of pointers shares nothing itself
                aligned = False
                enames = [t for t in etexts if t not in STRIP_TYPE_TOKENS
                          and t != "std"]
                for name in enames:
                    try:
                        eq = la.lookup_struct(name, raw.file,
                                              (raw.name, raw.outer))
                    except LayoutUnresolved:
                        eq = None
                    if eq is None:
                        continue
                    eraw = la.structs[eq]
                    elay = la.layouts.get(eq)
                    if (eraw.alignas_req >= line_bytes
                            or (elay is not None
                                and elay.align >= line_bytes)):
                        aligned = True
                    break
                if not aligned:
                    elem_str = " ".join(etexts)
                    findings.append(Finding(
                        self.name, sf, m.line,
                        f"per-shard member '{m.name}' of {qual} has "
                        f"elements of type '{elem_str}' not aligned to a "
                        f"destructive-interference line; mark the element "
                        f"type CPT_CACHE_ALIGNED (common/hotpath.h) so "
                        f"adjacent shards cannot false-share"))
            # (B) CPT_SHARED classes: atomics vs locks / foreign guards on
            # one host line.  Needs a fully resolved layout.
            if not raw.shared:
                continue
            lay = la.layouts.get(qual)
            if lay is None:
                continue
            lines = {}
            for f in lay.fields:
                for ln in f.host_lines():
                    lines.setdefault(ln, []).append(f)
            reported = set()
            for ln, fs in sorted(lines.items()):
                for i, f1 in enumerate(fs):
                    for f2 in fs[i + 1:]:
                        pair = (f1.name, f2.name)
                        if pair in reported:
                            continue
                        hit = None
                        if (f1.atomic and f2.capability) or (
                                f2.atomic and f1.capability):
                            hit = "an atomic and a lock"
                        elif (f1.guard and f2.guard
                              and f1.guard != f2.guard):
                            hit = ("fields guarded by different "
                                   "capabilities")
                        elif (f1.atomic and f2.atomic
                              and f1.guard != f2.guard):
                            hit = "independently-updated atomics"
                        if hit is None:
                            continue
                        reported.add(pair)
                        findings.append(Finding(
                            self.name, sf, max(f1.line, f2.line),
                            f"{hit} share a {HOST_LINE_BYTES}-byte line in "
                            f"CPT_SHARED {qual}: '{f1.name}' (offset "
                            f"{f1.offset}) and '{f2.name}' (offset "
                            f"{f2.offset}); separate them with "
                            f"CPT_CACHE_ALIGNED or regroup the fields"))
        return findings


@register
class LayoutLedger(LayoutRule):
    name = "layout-ledger"
    help = ("every struct reachable from a CPT_HOT function must match the "
            "committed tools/layout_ledger.json {size, align, field "
            "offsets}; growth fails with a ratchet notice and --write-layout "
            "regenerates; literal sizeof/alignof static_asserts are "
            "cross-checked against the model")

    exclude = HOT_BOUNDARY_GLOBS

    def check_layout(self, sf, project):
        la = project.ensure_layout_analysis()
        ledger = project.load_layout_ledger()
        findings = []
        quals = la.quals_in(sf.rel)
        hot = la.hot_struct_quals(project)
        entries = (ledger or {}).get("structs", {})
        for qual in quals:
            lay = la.layouts.get(qual)
            if lay is None:
                continue
            findings.extend(self._check_asserts(sf, la, qual, lay))
            if qual not in hot or not sf.rel.startswith("src/"):
                continue
            if _boundary_rel(sf.rel):
                continue
            entry = entries.get(qual)
            if entry is None:
                findings.append(Finding(
                    self.name, sf, lay.line,
                    f"hot-reachable struct {qual} is missing from the "
                    f"layout ledger; run cpt_lint.py --write-layout and "
                    f"commit tools/layout_ledger.json"))
                continue
            if lay.size > entry["size"]:
                findings.append(Finding(
                    self.name, sf, lay.line,
                    f"{qual} grew from {entry['size']} to {lay.size} bytes "
                    f"(ratchet notice: every hot instance now touches "
                    f"{(lay.size + HOST_LINE_BYTES - 1) // HOST_LINE_BYTES} "
                    f"host lines); if intended, re-run --write-layout and "
                    f"commit the new ledger"))
            elif lay.size < entry["size"]:
                findings.append(Finding(
                    self.name, sf, lay.line,
                    f"ledger entry for {qual} is stale ({entry['size']} "
                    f"bytes committed, {lay.size} modeled); re-run "
                    f"--write-layout"))
            if lay.align != entry["align"]:
                findings.append(Finding(
                    self.name, sf, lay.line,
                    f"{qual} alignment changed from {entry['align']} to "
                    f"{lay.align}; re-run --write-layout"))
            for f in lay.fields:
                want = entry["fields"].get(f.name)
                if want is None:
                    findings.append(Finding(
                        self.name, sf, f.line,
                        f"field {qual}::{f.name} is not in the layout "
                        f"ledger; re-run --write-layout"))
                elif want != f.offset:
                    old_line = want // HOST_LINE_BYTES
                    new_line = f.offset // HOST_LINE_BYTES
                    crossed = ("" if old_line == new_line else
                               f" and moved from host line {old_line} to "
                               f"{new_line}")
                    findings.append(Finding(
                        self.name, sf, f.line,
                        f"field {qual}::{f.name} moved from offset {want} "
                        f"to {f.offset}{crossed}; re-run --write-layout if "
                        f"intended"))
        return findings

    def _check_asserts(self, sf, la, qual, lay):
        """Literal static_assert(sizeof(X) == N) claims must match the
        model, both operand orders."""
        findings = []
        toks = sf.tokens
        raw = la.structs[qual]
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text != "static_assert":
                continue
            if i + 1 >= len(toks) or toks[i + 1].text != "(":
                continue
            close = _match_paren(toks, i + 1, "(", ")")
            inner = toks[i + 2:close]
            for op, value in (("sizeof", lay.size), ("alignof", lay.align)):
                got = self._assert_claim(inner, op, raw)
                if got is not None and got != value:
                    findings.append(Finding(
                        self.name, sf, t.line,
                        f"static_assert pins {op}({qual}) to {got} but the "
                        f"layout model computes {value}; fix the assert or "
                        f"the struct"))
        return findings

    @staticmethod
    def _assert_claim(inner, op, raw):
        """The literal N in `op(Name) == N` / `N == op(Name)`, else None."""
        texts = [t.text for t in inner]
        for j, txt in enumerate(texts):
            if txt != op or j + 1 >= len(texts) or texts[j + 1] != "(":
                continue
            close = _match_paren(inner, j + 1, "(", ")")
            # For a qualified argument (`sizeof(Outer::Inner)`) the claim is
            # about the *last* identifier, not the enclosing class.
            names = [x.text for x in inner[j + 2:close] if x.kind == "id"]
            if not names or names[-1] != raw.name:
                continue
            # rhs:  op(Name) == N
            if close + 2 < len(inner) and texts[close + 1] == "==" \
                    and inner[close + 2].kind == "num":
                return _int_literal(inner[close + 2].text)
            # lhs:  N == op(Name)
            if j >= 2 and texts[j - 1] == "==" and inner[j - 2].kind == "num":
                return _int_literal(inner[j - 2].text)
        return None


@register
class ModelTruthSync(LayoutRule):
    name = "model-truth-sync"
    help = ("the line-size and node-span constants CacheTouchModel charges "
            "per walk step must equal the ledger-derived lines-per-node for "
            "each PT organization's node struct, so simulated 'cache lines "
            "per miss' provably describes the compiled structs")

    def check_layout(self, sf, project):
        if sf.rel != MODEL_TRUTH_ANCHOR_FILE:
            return []
        la = project.ensure_layout_analysis()
        ledger = project.load_layout_ledger()
        findings = []
        if ledger is None:
            return [Finding(
                self.name, sf, 1,
                f"no layout ledger at tools/layout_ledger.json; run "
                f"cpt_lint.py --write-layout to pin the model-truth table")]
        try:
            sim_line = la.sim_line_bytes()
        except LayoutUnresolved as exc:
            return [Finding(
                self.name, sf, 1,
                f"cannot resolve {SIM_LINE_CONST}: {exc}")]
        if sim_line & (sim_line - 1) or sim_line <= 0:
            findings.append(Finding(
                self.name, sf, 1,
                f"{SIM_LINE_CONST} = {sim_line} is not a power of two"))
        if ledger.get("sim_line_bytes") != sim_line:
            findings.append(Finding(
                self.name, sf, 1,
                f"{SIM_LINE_CONST} = {sim_line} but the ledger pins "
                f"{ledger.get('sim_line_bytes')}; re-run --write-layout"))
        host = la.defines.get("CPT_CACHE_LINE")
        if host is not None and host != ledger.get("host_line_bytes"):
            findings.append(Finding(
                self.name, sf, 1,
                f"CPT_CACHE_LINE = {host} but the ledger pins "
                f"{ledger.get('host_line_bytes')} host bytes"))
        for name in ("MappingWord", "AtomicMappingWord"):
            for qual in la.by_name.get(name, ()):
                lay = la.layouts.get(qual)
                if lay is not None and lay.size != ledger.get("word_bytes"):
                    findings.append(Finding(
                        self.name, sf, 1,
                        f"{qual} is {lay.size} bytes but the model charges "
                        f"{ledger.get('word_bytes')}-byte mapping words"))
        payload = layout_ledger_payload(project)
        committed = ledger.get("model_truth", {})
        current = payload["model_truth"]
        for key in sorted(set(committed) | set(current)):
            want, got = committed.get(key), current.get(key)
            if want is None:
                findings.append(Finding(
                    self.name, sf, 1,
                    f"model-truth anchor '{key}' ({got['file']}:"
                    f"{got['function']}) is not in the ledger; re-run "
                    f"--write-layout"))
            elif got is None:
                findings.append(Finding(
                    self.name, sf, 1,
                    f"ledger model-truth entry '{key}' no longer resolves "
                    f"(moved accounting function or node struct?); re-run "
                    f"--write-layout"))
            elif (want["accounting_bytes"] != got["accounting_bytes"]
                  or want["lines_per_access"] != got["lines_per_access"]
                  or want["struct_size"] != got["struct_size"]):
                findings.append(Finding(
                    self.name, sf, 1,
                    f"model-truth drift for '{key}': {got['file']}:"
                    f"{got['function']} charges {got['accounting_bytes']} "
                    f"bytes/step ({got['lines_per_access']} lines at "
                    f"{sim_line}B) over a {got['struct_size']}-byte "
                    f"{got['node']}, but the ledger pins "
                    f"{want['accounting_bytes']} bytes "
                    f"({want['lines_per_access']} lines, "
                    f"{want['struct_size']}-byte struct); reconcile the "
                    f"accounting constants with the struct, then re-run "
                    f"--write-layout"))
        stale = sorted(set(ledger.get("structs") or {})
                       - set(payload["structs"]))
        for qual in stale:
            findings.append(Finding(
                self.name, sf, 1,
                f"ledger struct entry '{qual}' no longer resolves or is no "
                f"longer hot-reachable; re-run --write-layout"))
        return findings


# ---------------------------------------------------------------------------
# Enum export (the single source of truth for Python-side validators)
# ---------------------------------------------------------------------------

def export_enums_data(project):
    enums = {}
    for name, defs in sorted(project.enums.items()):
        d = defs[0]
        entry = {
            "file": d.file,
            "line": d.line,
            "enumerators": d.enumerators,
        }
        count_name = f"k{name}Count"
        if count_name in project.count_consts:
            entry["count_constant"] = count_name
            entry["count"] = project.count_consts[count_name]
        table = next((t for t in project.name_tables if t.name == f"k{name}Names"), None)
        if table is not None:
            entry["names"] = table.strings
            entry["names_table"] = {"name": table.name, "file": table.file,
                                    "line": table.line}
        enums[name] = entry
    return {"schema": "cpt-lint-enums", "version": 1, "enums": enums}


def export_enums(root=REPO_ROOT, roots=("src",)):
    """Module API for check_bench_json.py and the agreement tests."""
    files = collect_source_files(root, roots=roots)
    return export_enums_data(Project(files))


def export_layout(root=REPO_ROOT):
    """Module API for layout_sync_check.py: the full layout report."""
    files = collect_source_files(root, roots=("src",))
    return layout_report(Project(files))


# ---------------------------------------------------------------------------
# SARIF export (CI PR annotations)
# ---------------------------------------------------------------------------

SARIF_SCHEMA = ("https://json.schemastore.org/sarif-2.1.0.json")


def sarif_payload(findings):
    """SARIF 2.1.0 for every rule's findings, with the same line-free
    fingerprints the baseline uses so annotations survive rebases."""
    return {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "cpt-lint",
                    "informationUri":
                        "tools/cpt_lint.py (project-local linter)",
                    "rules": [
                        {"id": name,
                         "shortDescription": {"text": rule.help}}
                        for name, rule in sorted(RULES.items())
                    ],
                },
            },
            "results": [
                {
                    "ruleId": f.rule,
                    "level": "error",
                    "message": {"text": f.message},
                    "locations": [{
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.path},
                            "region": {"startLine": max(f.line, 1)},
                        },
                    }],
                    "partialFingerprints": {
                        "cptLintFingerprint/v1": f.fingerprint,
                    },
                }
                for f in findings
            ],
        }],
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_source_files(root=REPO_ROOT, roots=LINT_ROOTS):
    out = []
    root = Path(root)
    for sub in roots:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            if any(fnmatch.fnmatch(rel, g) for g in EXCLUDED_GLOBS):
                continue
            out.append(SourceFile(path, root=root))
    return out


def _lint_one_file(sf, project, rule_names, ignore_scope):
    """Findings plus per-rule wall time (seconds) for one file."""
    findings = []
    timing = Counter()
    for name, rule in RULES.items():
        if rule_names is not None and name not in rule_names:
            continue
        if not ignore_scope and not rule.applies(sf.rel):
            continue
        t0 = time.perf_counter()
        for f in rule.check(sf, project):
            if not sf.suppressed(f.rule, f.line):
                findings.append(f)
        timing[name] += time.perf_counter() - t0
    return findings, timing


# Worker context for --jobs: set before forking so children inherit the
# parsed files and project instead of repickling them per task.
_FORK_CTX = None


def _lint_file_at(index):
    files, project, rule_names, ignore_scope = _FORK_CTX
    return _lint_one_file(files[index], project, rule_names, ignore_scope)


HOT_RULES = ("hot-no-alloc", "hot-no-throw", "hot-lock-discipline")
LAYOUT_RULES = ("false-sharing", "layout-ledger", "model-truth-sync")


def run_rules(files, project, rule_names=None, ignore_scope=False, jobs=1,
              rule_timing=None):
    findings = []
    timing = Counter()
    if rule_names is None or set(rule_names) & set(HOT_RULES + LAYOUT_RULES):
        # Build the call graph (and the per-file function-span caches it
        # fills in) before any fork, so --jobs workers inherit one shared
        # analysis instead of recomputing it per child.
        project.ensure_hot_analysis()
    if rule_names is None or set(rule_names) & set(LAYOUT_RULES):
        # Same for the struct-layout model (which also leans on the hot
        # analysis for the hot-reachable struct set).
        project.ensure_layout_analysis()
    if jobs > 1 and len(files) > 1 and "fork" in multiprocessing.get_all_start_methods():
        global _FORK_CTX
        _FORK_CTX = (files, project, rule_names, ignore_scope)
        try:
            with multiprocessing.get_context("fork").Pool(min(jobs, len(files))) as pool:
                for file_findings, file_timing in pool.map(
                        _lint_file_at, range(len(files))):
                    findings.extend(file_findings)
                    timing.update(file_timing)
        finally:
            _FORK_CTX = None
    else:
        for sf in files:
            file_findings, file_timing = _lint_one_file(
                sf, project, rule_names, ignore_scope)
            findings.extend(file_findings)
            timing.update(file_timing)
    if rule_timing is not None:
        # Shared-infrastructure entries alongside the per-rule ones: the
        # one-shot tokenize/function-span cost per file, and the one-shot
        # whole-program call-graph build.  Rules that reuse the caches show
        # up cheap here because the cost is accounted once, not per rule.
        timing["file-parse"] += sum(sf.parse_seconds for sf in files)
        timing["hot-call-graph"] += project.hot_prepare_seconds
        timing["layout-model"] += project.layout_prepare_seconds
        rule_timing.update(timing)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def load_baseline(path):
    if path is None or not Path(path).exists():
        return Counter()
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return Counter(data.get("findings", {}))


def write_baseline(path, findings):
    counts = Counter(f.fingerprint for f in findings)
    payload = {"schema": "cpt-lint-baseline", "version": 1,
               "findings": dict(sorted(counts.items()))}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def split_by_baseline(findings, baseline):
    """Returns (new_findings, grandfathered, stale_fingerprints)."""
    remaining = Counter(baseline)
    new, old = [], []
    for f in findings:
        if remaining.get(f.fingerprint, 0) > 0:
            remaining[f.fingerprint] -= 1
            old.append(f)
        else:
            new.append(f)
    stale = sorted(fp for fp, n in remaining.items() if n > 0)
    return new, old, stale


def apply_fixes(findings, root=REPO_ROOT):
    by_path = {}
    for f in findings:
        for span in f.fixes:
            by_path.setdefault(f.path, []).append(span)
    fixed_files = 0
    for rel, spans in by_path.items():
        path = Path(root) / rel
        text = path.read_text(encoding="utf-8")
        spans.sort(key=lambda s: s[0], reverse=True)
        last_start = None
        for start, end, repl in spans:
            if last_start is not None and end > last_start:
                continue  # overlapping fix; first one wins
            text = text[:start] + repl + text[end:]
            last_start = start
        path.write_text(text, encoding="utf-8")
        fixed_files += 1
    return fixed_files


def print_human(findings, files_by_rel, stale):
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        sf = files_by_rel.get(f.path)
        if sf is not None:
            lines = sf.text.splitlines()
            if 0 < f.line <= len(lines):
                src = lines[f.line - 1].rstrip()
                if f.fixes:
                    print(f"  - {src}")
                    fixed = apply_spans_to_line(sf, f)
                    if fixed is not None:
                        print(f"  + {fixed}")
                else:
                    print(f"    {src}")
    for fp in stale:
        print(f"stale baseline entry (fixed? run --write-baseline): {fp}")


def apply_spans_to_line(sf, finding):
    """Renders the post-fix version of the finding's first fixed line."""
    spans = [s for s in finding.fixes]
    if not spans:
        return None
    text = sf.text
    spans.sort(key=lambda s: s[0], reverse=True)
    for start, end, repl in spans:
        text = text[:start] + repl + text[end:]
    lines = text.splitlines()
    idx = min(finding.line - 1, len(lines) - 1)
    return lines[idx].rstrip() if 0 <= idx < len(lines) else None


def main(argv=None):
    """Exit codes: 0 clean, 1 findings/debt growth, 2 internal error.

    Anything that stops the lint itself — an unreadable input, undecodable
    bytes, a malformed baseline/ledger — is an internal error (2), distinct
    from "the tree has findings" (1) so CI scripts and pre-commit hooks can
    tell a broken run from a failing one.  (argparse uses 2 for usage
    errors already, consistent with this.)
    """
    try:
        return _main(argv)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        print(f"cpt-lint: internal error: {e}", file=sys.stderr)
        return 2


def _main(argv=None):
    parser = argparse.ArgumentParser(
        description="project-specific static analysis for the cpt simulator",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", help="files to lint (default: --all)")
    parser.add_argument("--all", action="store_true",
                        help=f"lint every source file under {', '.join(LINT_ROOTS)}/")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--fix", action="store_true",
                        help="apply fixes for mechanical rules, then report the rest")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="baseline file of grandfathered findings")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline (report everything)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from current findings")
    parser.add_argument("--export-enums", action="store_true",
                        help="dump enums/name tables under src/ as JSON and exit")
    parser.add_argument("--layout-ledger", default=str(DEFAULT_LAYOUT_LEDGER),
                        help="compiled-truth layout ledger file")
    parser.add_argument("--write-layout", action="store_true",
                        help="regenerate the layout ledger and exit")
    parser.add_argument("--layout-report", action="store_true",
                        help="print the layout-model report as JSON and exit")
    parser.add_argument("--export-layout", action="store_true",
                        help="alias of --layout-report (module-API parity)")
    parser.add_argument("--sarif", metavar="PATH",
                        help="also write new findings (all rules) as SARIF 2.1.0")
    parser.add_argument("--hot-debt", default=str(DEFAULT_HOT_DEBT),
                        help="devirtualization-debt ledger file")
    parser.add_argument("--write-hot-debt", action="store_true",
                        help="regenerate the hot-path debt ledger and exit")
    parser.add_argument("--check-hot-debt", action="store_true",
                        help="gate the debt ledger against growth and exit")
    parser.add_argument("--hot-debt-report", action="store_true",
                        help="print the detailed debt report as JSON and exit")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--rules", help="comma-separated subset of rules to run")
    parser.add_argument("--ignore-scope", action="store_true",
                        help="run every rule on every file (fixture tests)")
    parser.add_argument("--root", default=str(REPO_ROOT),
                        help="repository root (for relative paths and guards)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="lint files with N processes (0 = cpu count)")
    args = parser.parse_args(argv)
    if args.jobs == 0:
        args.jobs = os.cpu_count() or 1

    if args.list_rules:
        for name, rule in sorted(RULES.items()):
            print(f"{name}: {rule.help}")
        return 0

    root = Path(args.root).resolve()
    if args.export_enums:
        print(json.dumps(export_enums(root), indent=2))
        return 0

    if args.paths:
        files = [SourceFile(p, root=root) for p in args.paths]
        # Enum/name-table context always comes from the full src tree, so
        # linting one .cc still knows the enums its switches dispatch over.
        seen = {sf.rel for sf in files}
        context = files + [sf for sf in collect_source_files(root, roots=("src",))
                           if sf.rel not in seen]
        project = Project(context)
    else:
        files = collect_source_files(root)
        project = Project(files)
    project.layout_ledger_path = args.layout_ledger
    rule_names = set(args.rules.split(",")) if args.rules else None
    if rule_names is not None:
        unknown = rule_names - RULES.keys()
        if unknown:
            parser.error(f"unknown rules: {', '.join(sorted(unknown))}")

    if args.layout_report or args.export_layout:
        print(json.dumps(layout_report(project), indent=2))
        return 0
    if args.write_layout:
        payload = layout_ledger_payload(project)
        Path(args.layout_ledger).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        project._layout_ledger = False  # reload on next rule run
        print(f"layout ledger written: {len(payload['structs'])} structs, "
              f"{len(payload['model_truth'])} model-truth anchors -> "
              f"{args.layout_ledger}")
        return 0

    if args.write_hot_debt or args.check_hot_debt or args.hot_debt_report:
        analysis = project.ensure_hot_analysis()
        if args.hot_debt_report:
            print(json.dumps(debt_report(analysis), indent=2))
            return 0
        if args.write_hot_debt:
            payload = debt_payload(analysis)
            Path(args.hot_debt).write_text(
                json.dumps(payload, indent=2) + "\n", encoding="utf-8")
            print(f"hot-debt ledger written: "
                  f"{sum(payload['virtual_sites'].values())} virtual call "
                  f"sites, {sum(payload['hot_lock_sites'].values())} lock "
                  f"sites -> {args.hot_debt}")
            return 0
        return check_debt(analysis, args.hot_debt)

    rule_timing = Counter()
    findings = run_rules(files, project, rule_names, args.ignore_scope,
                         jobs=args.jobs, rule_timing=rule_timing)
    baseline = Counter() if args.no_baseline else load_baseline(args.baseline)
    new, grandfathered, stale = split_by_baseline(findings, baseline)

    if args.write_baseline:
        write_baseline(args.baseline, findings)
        print(f"baseline written: {len(findings)} findings -> {args.baseline}")
        return 0

    if args.fix and new:
        fixable = [f for f in new if f.fixes]
        if fixable:
            n = apply_fixes(fixable, root=root)
            print(f"fixed {sum(len(f.fixes) for f in fixable)} spans in {n} files")
            # Re-lint so the report reflects the post-fix tree.
            files = [SourceFile(root / sf.rel, root=root) for sf in files]
            project = Project(files)
            rule_timing = Counter()
            findings = run_rules(files, project, rule_names, args.ignore_scope,
                                 jobs=args.jobs, rule_timing=rule_timing)
            new, grandfathered, stale = split_by_baseline(findings, baseline)

    if args.sarif:
        Path(args.sarif).write_text(
            json.dumps(sarif_payload(new), indent=2) + "\n",
            encoding="utf-8")

    if args.json:
        print(json.dumps({
            "schema": "cpt-lint-report", "version": 1,
            "checked_files": len(files),
            "findings": [f.to_json() for f in new],
            "grandfathered": len(grandfathered),
            "stale_baseline": stale,
            "rule_timing_ms": {name: round(secs * 1000.0, 3)
                               for name, secs in sorted(rule_timing.items())},
        }, indent=2))
    else:
        print_human(new, {sf.rel: sf for sf in files}, stale)
        status = "FAIL" if new else "OK"
        print(f"{status}: {len(files)} files, {len(new)} new findings, "
              f"{len(grandfathered)} grandfathered, {len(stale)} stale baseline entries")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
