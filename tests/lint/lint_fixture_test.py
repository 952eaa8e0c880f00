#!/usr/bin/env python3
"""Golden-file tests for tools/cpt_lint.py.

Each fixture under tests/lint/fixtures/ carries seeded contract violations;
tests/lint/expected/<fixture>.expected lists the findings the linter must
produce, one `line:rule` per line (empty file = the linter must stay silent,
which is how the suppression fixture is pinned).  All fixtures are linted in
one run and each file's findings are compared with its golden.  On top of
the goldens this runner checks the exit codes.

The linter runs in this process (cpt_lint.main with captured output), so a
case pays for its own lint work but not for an interpreter start.

Run directly or through ctest (`lint_fixtures`).  Exits non-zero with a
unified diff of expected-vs-actual on any mismatch.
"""
import contextlib
import io
import json
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


def lint_findings(*paths):
    proc = run_lint("--ignore-scope", "--json", *(str(p) for p in paths))
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


def main():
    golden_tests()
    exit_code_test()
    if FAILURES:
        print(f"\n{len(FAILURES)} lint fixture test(s) failed")
        return 1
    print("\nall lint fixture tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
