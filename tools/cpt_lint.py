#!/usr/bin/env python3
"""cpt-lint: project-specific static analysis for the clustered-page-table simulator.

The simulator's headline numbers are pure counting metrics, so nothing
nondeterministic may leak into simulated counts, and failures must abort
loudly.  This tool holds the contracts the compiler cannot express.  What
gcc can check is gcc's: -Wswitch-enum makes every enum switch (the
ToString name switches included) name every enumerator, -Wfloat-equal bans
exact float compares, and headers use #pragma once.  The walk bracket
(CacheTouchModel::BeginWalk/EndWalk) checks itself with CPT_DCHECKs, and
the runtime half of the invariants lives in src/check.

Stdlib-only, tokenizer-based (no libclang).  The tokenizer understands
comments, string/char literals (including raw strings), preprocessor
directives, and multi-character operators; rules pattern-match over the
token stream, which is exact enough for this codebase's styled C++ and
fails loudly (via the fixture tests) when it is not.

Rules (see DESIGN.md "Static analysis" for the catalog and policy):

  check-macro-hygiene     no raw assert()/abort()/<cassert> in simulator
                          code; use CPT_CHECK / CPT_DCHECK.
  determinism-guards      no rand()/time()/std::random_device outside
                          common/rng.h.
  timing-discipline       no raw std::chrono clocks (steady_clock,
                          high_resolution_clock, system_clock) or
                          clock_gettime/clock_getres outside obs/perf.* —
                          every host-time measurement flows through
                          HostPerfCounters so reports stay comparable.
  nodiscard-query         Lookup/LookupKey query methods in headers must
                          be [[nodiscard]].
  raw-address-param       address-domain values (va/vpn/vpbn/ppn/pfn/block
                          names) cross public-header APIs as the strong
                          types from common/types.h, never raw
                          std::uint64_t parameters or returns.
  atomic-discipline       every explicit memory_order_* argument carries an
                          adjacent justification comment, and a member
                          accessed through the atomic API is never also
                          mutated with raw assignment in the same file.
  raw-sync-primitive      no threads or locks (std::mutex/std::lock_guard/
                          std::thread/pthread_*...) in src/ or bench/: the
                          simulator is single-threaded and its page tables
                          single-writer.
  no-throw                no throw and no throwing std calls (.at(),
                          .value(), std::sto*()) in src/: simulator failures
                          are CPT_CHECK aborts, not exceptions.

Struct layouts and allocation are not modeled here.  The paper-model byte
counts are static_asserts next to each node struct, and "the replay loop
never allocates" is cpt::HotPathScope (common/hotguard.h), run over every
(PtKind, TlbKind) pair by tests/hotguard_test.cc.

Exit codes: 0 clean, 1 findings, 2 internal error (an unreadable input —
not a lint verdict).  Every finding fails the run.

Suppressions:
  // cpt-lint: allow(rule[, rule])   suppress on this line (trailing) or,
                                     when the comment stands alone, on the
                                     comment line and the next line.
  // cpt-lint: off(rule)  ...  // cpt-lint: on(rule)
                                     block suppression (to end of file when
                                     never turned back on).

Usage:
  tools/cpt_lint.py --all              lint the whole tree (gating)
  tools/cpt_lint.py src/pt/hashed.cc   lint specific files
  tools/cpt_lint.py --all --json       machine-readable findings
"""

import argparse
import fnmatch
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Directory roots scanned by --all, relative to the repo root.
LINT_ROOTS = ("src", "bench", "examples", "tests", "tools")
SOURCE_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")
# Known-bad lint-test inputs must never gate the real tree.
EXCLUDED_GLOBS = ("tests/lint/fixtures/*",)

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
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # id | num | str | chr | punct
        self.text = text
        self.line = line

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
    __slots__ = ("line", "text")

    def __init__(self, line, text):
        self.line = line
        self.text = text


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
            directives.append(Directive(start_line, text[start:i]))
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
            tokens.append(Token("str", text[i:j], line))
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
            tokens.append(Token("chr", text[i:j], line))
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
                tokens.append(Token("str", text[i:close], line))
                line += text.count("\n", i, close)
                i = close
                continue
            tokens.append(Token("id", word, line))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = NUM_RE.match(text, i)
            tokens.append(Token("num", m.group(0), line))
            i = m.end()
            continue
        for op in MULTI_OPS:
            if text.startswith(op, i):
                tokens.append(Token("punct", op, line))
                i += len(op)
                break
        else:
            tokens.append(Token("punct", c, line))
            i += 1
    return tokens, comments, directives


# ---------------------------------------------------------------------------
# Source files and suppressions
# ---------------------------------------------------------------------------

SUPP_RE = re.compile(r"cpt-lint:\s*(allow|off|on)\s*\(\s*([A-Za-z0-9_,\s\-]*?)\s*\)")


class SourceFile:
    def __init__(self, path):
        self.path = Path(path)
        try:
            self.rel = self.path.resolve().relative_to(REPO_ROOT).as_posix()
        except ValueError:
            self.rel = self.path.as_posix()
        self.text = self.path.read_text(encoding="utf-8")
        self.tokens, self.comments, self.directives = tokenize(self.text)
        self._allow = {}   # line -> set(rule)
        self._blocks = []  # (rule, start_line, end_line_inclusive)
        self._parse_suppressions()

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
    def __init__(self, rule, sf, line, message):
        self.rule = rule
        self.path = sf.rel
        self.line = line
        self.message = message

    def to_json(self):
        return {"rule": self.rule, "path": self.path, "line": self.line,
                "message": self.message}


# ---------------------------------------------------------------------------
# Rule framework
# ---------------------------------------------------------------------------

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

    def check(self, sf):
        raise NotImplementedError


def register(cls):
    RULES[cls.name] = cls()
    return cls


# ---- check-macro-hygiene ---------------------------------------------------

@register
class CheckMacroHygiene(Rule):
    name = "check-macro-hygiene"
    help = ("simulator code uses CPT_CHECK/CPT_DCHECK, never raw assert()/"
            "abort()/<cassert>")
    include = ("src/*", "bench/*", "examples/*", "tools/*", "tests/lint/fixtures/*")

    INCLUDE_RE = re.compile(r"#\s*include\s*[<\"](cassert|assert\.h)[>\"]")

    def check(self, sf):
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
                    "(always-on) from common/check.h"))
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
                    "common/check.h instead"))
        return findings


# ---- determinism-guards ----------------------------------------------------

@register
class DeterminismGuards(Rule):
    name = "determinism-guards"
    help = ("all randomness flows through common/rng.h and all timing through "
            "obs/perf.h")
    include = ("src/*", "bench/*", "examples/*", "tests/*")
    exclude = ("src/common/rng.h",)

    BANNED_CALLS = {"rand", "srand", "drand48", "random", "time", "clock",
                    "gettimeofday", "timespec_get"}
    BANNED_TYPES = {"random_device"}

    def check(self, sf):
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
                    "cpt::Rng (common/rng.h) for randomness or obs/perf.h "
                    "for timing"))
        return findings


# ---- timing-discipline ----------------------------------------------------

@register
class TimingDiscipline(Rule):
    name = "timing-discipline"
    help = ("raw clock reads live only in obs/perf.*; measure host time "
            "with HostPerfCounters so every reported number shares one clock")
    include = ("src/*", "bench/*", "examples/*", "tests/*")
    exclude = ("src/obs/perf.h", "src/obs/perf.cc")

    # std::chrono clock types whose now() is a raw wall/CPU-time read.
    BANNED_CLOCKS = {"steady_clock", "high_resolution_clock", "system_clock"}
    # POSIX clock syscalls (distinct identifiers from determinism-guards'
    # banned clock()/time()).
    BANNED_CALLS = {"clock_gettime", "clock_getres"}

    def check(self, sf):
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
                    "through obs/perf.h (HostPerfCounters)"))
            elif t.text in self.BANNED_CALLS and nxt == "(":
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"{t.text}() bypasses the shared timing layer; use "
                    "obs/perf.h"))
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

    def check(self, sf):
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
            texts = self._decl_prefix(toks, i)
            if not texts or texts[-1] == "void":
                continue  # void return: nothing to discard
            if "nodiscard" in texts:
                continue
            findings.append(Finding(
                self.name, sf, t.line,
                f"{t.text}() returns a value callers must not drop; declare "
                f"it [[nodiscard]]"))
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
        return [t.text for t in toks[j + 1:name_index]]


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

    def check(self, sf):
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

    def check(self, sf):
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

    def check(self, sf):
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



# ---- no-throw --------------------------------------------------------------

@register
class NoThrow(Rule):
    name = "no-throw"
    help = ("no throw and no throwing std calls (.at()/.value()/std::sto*()) "
            "in src/; simulator failures are CPT_CHECK aborts, not "
            "exceptions")
    include = ("src/*", "tests/lint/fixtures/*")
    # The replacement operator new must throw std::bad_alloc by contract.
    exclude = ("src/common/hotguard.cc",)

    # Member calls that throw on the failure path.
    THROWING_MEMBERS = {"at", "value"}
    # Free std conversions that throw on bad input.
    THROWING_CALLS = {"stoi", "stol", "stoll", "stoul", "stoull",
                      "stof", "stod", "stold"}

    def check(self, sf):
        findings = []
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < len(toks) else ""
            if t.text == "throw":
                findings.append(Finding(
                    self.name, sf, t.line,
                    "throw in simulator code; use CPT_CHECK/CPT_DCHECK"))
            elif (t.text in self.THROWING_MEMBERS and prev in (".", "->")
                    and nxt == "("):
                findings.append(Finding(
                    self.name, sf, t.line,
                    f".{t.text}() throws on the failure path; use "
                    f"operator[]/operator* after a CPT_DCHECK"))
            elif t.text in self.THROWING_CALLS and nxt == "(":
                findings.append(Finding(
                    self.name, sf, t.line,
                    f"std::{t.text}() throws on bad input; parse with "
                    f"std::from_chars or outside src/"))
        return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_source_files():
    out = []
    for sub in LINT_ROOTS:
        for path in sorted((REPO_ROOT / sub).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(REPO_ROOT).as_posix()
            if any(fnmatch.fnmatch(rel, g) for g in EXCLUDED_GLOBS):
                continue
            out.append(SourceFile(path))
    return out


def run_rules(files, rule_names=None, ignore_scope=False):
    findings = []
    for sf in files:
        for name, rule in RULES.items():
            if rule_names is not None and name not in rule_names:
                continue
            if not ignore_scope and not rule.applies(sf.rel):
                continue
            findings.extend(f for f in rule.check(sf)
                            if not sf.suppressed(f.rule, f.line))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def print_human(findings, files_by_rel):
    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        sf = files_by_rel.get(f.path)
        if sf is not None:
            lines = sf.text.splitlines()
            if 0 < f.line <= len(lines):
                print(f"    {lines[f.line - 1].rstrip()}")


def main(argv=None):
    """Exit codes: 0 clean, 1 findings, 2 internal error.

    Anything that stops the lint itself — an unreadable input or
    undecodable bytes — is an internal error (2), distinct
    from "the tree has findings" (1) so CI scripts and pre-commit hooks can
    tell a broken run from a failing one.  (argparse uses 2 for usage
    errors already, consistent with this.)
    """
    try:
        return _main(argv)
    except (OSError, UnicodeDecodeError) as e:
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
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--rules", help="comma-separated subset of rules to run")
    parser.add_argument("--ignore-scope", action="store_true",
                        help="run every rule on every file (fixture tests)")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, rule in sorted(RULES.items()):
            print(f"{name}: {rule.help}")
        return 0

    files = ([SourceFile(p) for p in args.paths] if args.paths
             else collect_source_files())
    rule_names = set(args.rules.split(",")) if args.rules else None
    if rule_names is not None:
        unknown = rule_names - RULES.keys()
        if unknown:
            parser.error(f"unknown rules: {', '.join(sorted(unknown))}")

    findings = run_rules(files, rule_names, args.ignore_scope)
    if args.json:
        print(json.dumps({
            "schema": "cpt-lint-report", "version": 1,
            "checked_files": len(files),
            "findings": [f.to_json() for f in findings],
        }, indent=2))
    else:
        print_human(findings, {sf.rel: sf for sf in files})
        status = "FAIL" if findings else "OK"
        print(f"{status}: {len(files)} files, {len(findings)} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
