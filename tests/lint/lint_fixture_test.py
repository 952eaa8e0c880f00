#!/usr/bin/env python3
"""Golden-file tests for tools/cpt_lint.py.

Each fixture under tests/lint/fixtures/ carries seeded contract violations;
tests/lint/expected/<fixture>.expected lists the findings the linter must
produce, one `line:rule` per line (empty file = the linter must stay silent,
which is how the suppression fixture is pinned).  All fixtures are linted in
one run and each file's findings are compared with its golden.  On top of
the goldens this runner exercises --fix (autofixed files re-lint clean),
the exit codes and the SARIF output.

The linter runs in this process (cpt_lint.main with captured output), so a
case pays for its own lint work but not for an interpreter start.

Run directly or through ctest (`lint_fixtures`).  Exits non-zero with a
unified diff of expected-vs-actual on any mismatch.
"""
import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

TEST_DIR = Path(__file__).resolve().parent
REPO_ROOT = TEST_DIR.parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))
import cpt_lint  # noqa: E402

FIXTURES = TEST_DIR / "fixtures"
EXPECTED = TEST_DIR / "expected"

FAILURES = []


def fail(name, message):
    FAILURES.append(name)
    print(f"FAIL {name}: {message}")


def run_lint(*argv):
    """cpt_lint.main(argv) -> (returncode, stdout, stderr), like a process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cpt_lint.main(list(argv))
    return SimpleNamespace(returncode=code, stdout=out.getvalue(),
                           stderr=err.getvalue())


def lint_findings(*paths, extra=()):
    proc = run_lint("--ignore-scope", "--json", *extra,
                    *(str(p) for p in paths))
    try:
        data = json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise AssertionError(
            f"non-JSON linter output for {paths}:\n{proc.stdout}\n{proc.stderr}")
    return proc.returncode, data["findings"]


def golden_tests():
    fixtures = sorted(FIXTURES.glob("*.cc")) + sorted(FIXTURES.glob("*.h"))
    assert fixtures, f"no fixtures found under {FIXTURES}"
    code, findings = lint_findings(*fixtures)
    got_by_file = {}
    for f in findings:
        got_by_file.setdefault(Path(f["path"]).name, []).append(
            f"{f['line']}:{f['rule']}")
    any_want = False
    for fixture in fixtures:
        name = f"golden/{fixture.name}"
        golden = EXPECTED / (fixture.name + ".expected")
        if not golden.exists():
            fail(name, f"missing golden file {golden}")
            continue
        want = [ln for ln in golden.read_text().splitlines() if ln.strip()]
        any_want = any_want or bool(want)
        got = got_by_file.get(fixture.name, [])
        if got != want:
            fail(name, "findings mismatch\n  expected: " + repr(want) +
                 "\n  actual:   " + repr(got))
            continue
        print(f"ok   {name} ({len(want)} findings)")
    if code != (1 if any_want else 0):
        fail("golden/exit-code", f"exit code {code} for the fixture run")


def fix_test():
    """--fix rewrites raw assert()/<cassert>; the fixed file re-lints clean."""
    name = "fix/raw_assert"
    with tempfile.TemporaryDirectory() as tmp:
        victim = Path(tmp) / "raw_assert.cc"
        shutil.copy(FIXTURES / "raw_assert.cc", victim)
        proc = run_lint("--ignore-scope", "--fix",
                        "--rules", "check-macro-hygiene",
                        "--root", tmp, str(victim))
        del proc  # Exit code reflects pre-fix findings; re-lint decides.
        text = victim.read_text()
        if "CPT_DCHECK(v >= 0)" not in text:
            return fail(name, f"assert not rewritten:\n{text}")
        if "#include <cassert>" in text:
            return fail(name, f"<cassert> include not removed:\n{text}")
        # Only the (unfixable) raw aborts may remain.
        code, findings = lint_findings(
            victim, extra=("--root", tmp, "--rules", "check-macro-hygiene"))
        leftover = {f["message"].split(";")[0] for f in findings}
        if leftover != {'raw abort()'}:
            return fail(name, f"unexpected post-fix findings: {findings}")
    print(f"ok   {name}")


def nodiscard_fix_test():
    """--fix inserts [[nodiscard]] and the result re-lints clean."""
    name = "fix/nodiscard"
    with tempfile.TemporaryDirectory() as tmp:
        victim = Path(tmp) / "nodiscard.h"
        shutil.copy(FIXTURES / "nodiscard.h", victim)
        run_lint("--ignore-scope", "--fix",
                 "--rules", "nodiscard-query", "--root", tmp, str(victim))
        text = victim.read_text()
        if "[[nodiscard]] Result Lookup(" not in text:
            return fail(name, f"[[nodiscard]] not inserted:\n{text}")
        code, findings = lint_findings(
            victim, extra=("--root", tmp, "--rules", "nodiscard-query"))
        if code != 0 or findings:
            return fail(name, f"post-fix findings remain: {findings}")
    print(f"ok   {name}")


def fix_idempotency_test():
    """--fix is a fixed point: a second pass changes nothing, byte for byte."""
    name = "fix/idempotent"
    with tempfile.TemporaryDirectory() as tmp:
        victims = []
        for fixture in ("raw_assert.cc", "nodiscard.h"):
            victim = Path(tmp) / fixture
            shutil.copy(FIXTURES / fixture, victim)
            victims.append(victim)
        args = ("--ignore-scope", "--fix", "--root", tmp,
                *(str(v) for v in victims))
        run_lint(*args)
        first = {v.name: v.read_bytes() for v in victims}
        run_lint(*args)
        second = {v.name: v.read_bytes() for v in victims}
        if first != second:
            changed = [n for n in first if first[n] != second[n]]
            return fail(name, f"second --fix pass rewrote {changed}")
    print(f"ok   {name}")


def exit_code_test():
    """0 = clean, 1 = findings, 2 = internal error — never conflated."""
    name = "exit/codes"
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean.cc"
        clean.write_text("namespace fx {\nint Identity(int v) { return v; }\n"
                         "}  // namespace fx\n")
        proc = run_lint("--ignore-scope", str(clean))
        if proc.returncode != 0:
            return fail(name, f"clean file exited {proc.returncode}:\n{proc.stdout}")
        proc = run_lint("--ignore-scope", str(FIXTURES / "determinism.cc"))
        if proc.returncode != 1:
            return fail(name, f"findings exited {proc.returncode}, want 1")
        # An unreadable input is an internal error, not a lint verdict.
        garbled = Path(tmp) / "garbled.cc"
        garbled.write_bytes(b"int x = \xff\xfe;\n")
        proc = run_lint("--ignore-scope", str(garbled))
        if proc.returncode != 2:
            return fail(name, f"unreadable input exited {proc.returncode}, want 2")
        if "internal error" not in proc.stderr:
            return fail(name, f"missing internal-error diagnostic:\n{proc.stderr}")
    print(f"ok   {name}")


def timing_keys_test():
    """The one-shot per-file parse cost is reported as its own key."""
    name = "timing/shared-parse"
    proc = run_lint("--ignore-scope", "--json",
                    str(FIXTURES / "determinism.cc"))
    timing = json.loads(proc.stdout).get("rule_timing_ms", {})
    if timing.get("file-parse", 0) <= 0:
        return fail(name, f"file-parse not accounted: {timing}")
    print(f"ok   {name}")


def sarif_output_test():
    """--sarif emits valid SARIF 2.1.0 with stable fingerprints for findings."""
    name = "sarif/output"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "lint.sarif"
        proc = run_lint("--ignore-scope", "--sarif", str(out),
                        str(FIXTURES / "determinism.cc"))
        if proc.returncode != 1:
            return fail(name, f"expected findings (exit 1), got {proc.returncode}")
        sarif = json.loads(out.read_text())
        if sarif.get("version") != "2.1.0":
            return fail(name, f"bad SARIF version: {sarif.get('version')}")
        runs = sarif.get("runs") or [{}]
        results = runs[0].get("results", [])
        if not results:
            return fail(name, "no SARIF results for a fixture with findings")
        r = results[0]
        need = {"ruleId", "message", "locations", "partialFingerprints"}
        if not need <= set(r):
            return fail(name, f"SARIF result missing keys: {sorted(need - set(r))}")
        rules = {d["id"] for d in runs[0]["tool"]["driver"]["rules"]}
        if not {x["ruleId"] for x in results} <= rules:
            return fail(name, "SARIF results reference undeclared rules")
    print(f"ok   {name}")


def main():
    golden_tests()
    fix_test()
    nodiscard_fix_test()
    fix_idempotency_test()
    exit_code_test()
    timing_keys_test()
    sarif_output_test()
    if FAILURES:
        print(f"\n{len(FAILURES)} lint fixture test(s) failed")
        return 1
    print("\nall lint fixture tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
