#!/usr/bin/env python3
"""tools/bench_diff.py must fail on a change to any single report entry.

BENCH_sensitivity.json has many entries that share a type, series and
workload (its cache-line sweep differs only in line_size), so a diff that
matched entries by those keys would let all but the last of them drift
unseen.  Edits entry 0 of the committed report, and drops its last entry,
and requires bench_diff.py to fail on each; the unedited report must diff
clean.

Usage: bench_diff_test.py <repo root>
"""

import copy
import json
import pathlib
import sys


def main():
    root = pathlib.Path(sys.argv[1])
    sys.path.insert(0, str(root / "tools"))
    sys.dont_write_bytecode = True  # Leave no __pycache__ in the source tree.
    import bench_diff  # pylint: disable=import-outside-toplevel

    baseline = json.loads((root / "BENCH_sensitivity.json").read_text(encoding="utf-8"))
    edited = copy.deepcopy(baseline)
    m = edited["entries"][0]["measurement"]
    m["avg_lines_per_miss"] += 0.5
    m["denominator_misses"] += 7
    dropped = copy.deepcopy(baseline)
    dropped["entries"].pop()

    failures = 0
    for what, current, want_fail in (("unedited report", baseline, False),
                                     ("entry 0 edited", edited, True),
                                     ("last entry dropped", dropped, True)):
        if bench_diff.diff_reports(baseline, current).failed != want_fail:
            print(f"{what}: bench_diff {'passed' if want_fail else 'failed'} it",
                  file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
