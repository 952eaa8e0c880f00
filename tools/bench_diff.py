#!/usr/bin/env python3
"""Compares two cpt-bench-report JSON files and fails on unexplained drift.

The simulator is deterministic: for an identical RNG seed and trace length,
every *simulated* metric (miss counts, lines per miss, page-table bytes,
histograms, attribution cells, ...) must match the baseline bit for bit.
Wall-clock-derived keys (wall_seconds, refs_per_sec, misses_per_sec) and
host-side subtrees (timing, host_perf, throughput, phases) are machine
noise; they are reported and never fail the diff.  A report section or key
that is missing or extra anywhere, the top level included, is a structural
failure, and so is a different number of entries: entries match by position.
Whether a change made the simulator slower is decided by an
interleaved A/B run on one host (tools/perfbench_ab.py --gate), not by
comparing against stored times.

Usage:
  tools/bench_diff.py baseline.json current.json

Exit status: 0 = no drift, 1 = drift found, 2 = usage / malformed input.
Stdlib-only (the repo's no-new-dependencies rule).
"""

import argparse
import json
import sys

# Keys whose values are wall-clock measurements, not simulated quantities.
# Matched on the final path component anywhere in a measurement.
TIMING_KEYS = {"wall_seconds", "refs_per_sec", "misses_per_sec"}

# Subtrees that are host-side measurements end to end: anything under a
# component with one of these names is timing noise (perf counters, rusage,
# per-phase rates, per-rep throughput samples).
TIMING_SUBTREES = {"timing", "host_perf", "throughput", "phases"}


def flatten(value, prefix=""):
    """Yields (dotted_path, scalar) pairs for a nested JSON value."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from flatten(value[k], f"{prefix}.{k}" if prefix else k)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, value


def is_timing(path):
    parts = [p.split("[", 1)[0] for p in path.split(".")]
    return parts[-1] in TIMING_KEYS or any(p in TIMING_SUBTREES for p in parts)


def entry_label(index, entry):
    """Names a report entry in the diff table; entries match by position."""
    kind = entry.get("type", "?")
    if kind == "table":
        return f"[{index}] table/{entry.get('title', '?')}"
    workload = entry.get("measurement", {}).get("workload", "")
    return f"[{index}] {kind}/{entry.get('series', '?')}/{workload}"


class Diff:
    """Accumulates per-metric rows and renders the human-readable table."""

    def __init__(self):
        self.rows = []          # (where, metric, baseline, current, verdict)
        self.hard_failures = 0  # Simulated drift or structural mismatch.

    def structural(self, where, message):
        self.rows.append((where, "<structure>", "", "", message))
        self.hard_failures += 1

    def compare_scalars(self, where, path, base, cur):
        if base == cur:
            return
        if is_timing(path):
            numeric = (isinstance(base, (int, float)) and not isinstance(base, bool)
                       and isinstance(cur, (int, float)) and not isinstance(cur, bool))
            if numeric:
                rel = abs(cur - base) / max(abs(base), abs(cur), 1e-12)
                self.rows.append((where, path, base, cur, f"timing noise ({rel:.1%})"))
            else:
                # Availability / source / reason strings inside host_perf
                # legitimately differ across hosts; never a failure.
                self.rows.append((where, path, base, cur, "host noise (non-numeric)"))
            return
        self.rows.append((where, path, base, cur, "SIMULATED DRIFT"))
        self.hard_failures += 1

    def compare_tree(self, where, base, cur):
        base_flat = dict(flatten(base))
        cur_flat = dict(flatten(cur))
        for path in sorted(base_flat.keys() | cur_flat.keys()):
            if path not in cur_flat:
                self.structural(where, f"'{path}' missing from current")
            elif path not in base_flat:
                self.structural(where, f"'{path}' not in baseline")
            else:
                self.compare_scalars(where, path, base_flat[path], cur_flat[path])

    @property
    def failed(self):
        return self.hard_failures > 0

    def render(self, out=sys.stdout):
        if not self.rows:
            print("bench_diff: no differences", file=out)
            return
        headers = ("entry", "metric", "baseline", "current", "verdict")
        table = [headers] + [
            (w, p, _fmt(b), _fmt(c), v) for w, p, b, c, v in self.rows]
        widths = [max(len(row[i]) for row in table) for i in range(5)]
        for r, row in enumerate(table):
            print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip(),
                  file=out)
            if r == 0:
                print("  ".join("-" * w for w in widths), file=out)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def diff_reports(baseline, current):
    d = Diff()

    for field in ("schema", "schema_version", "bench"):
        if baseline.get(field) != current.get(field):
            d.structural("<header>",
                         f"{field}: baseline {baseline.get(field)!r} vs "
                         f"current {current.get(field)!r}")
    if d.hard_failures:
        # A different bench or schema explains every downstream delta; stop
        # here with a focused message instead of pages of noise.
        return d

    for section in sorted(baseline.keys() - current.keys()):
        d.structural("<report>", f"section '{section}' missing from current")
    for section in sorted(current.keys() - baseline.keys()):
        d.structural("<report>", f"section '{section}' not in baseline")
    # The sections besides the entries must keep their keys too; the values
    # under host_perf and throughput are host timing.
    for section in sorted((baseline.keys() & current.keys()) - {"entries"}):
        d.compare_tree("<report>", {section: baseline[section]},
                       {section: current[section]})

    # Entries are compared in order: a bench writes them deterministically,
    # and several may share a series and workload (a sweep over one option).
    base_entries = baseline.get("entries", [])
    cur_entries = current.get("entries", [])
    if len(base_entries) != len(cur_entries):
        d.structural("<report>", f"{len(base_entries)} entries in baseline vs "
                                 f"{len(cur_entries)} in current")
        return d
    for i, (base, cur) in enumerate(zip(base_entries, cur_entries)):
        d.compare_tree(entry_label(i, base), base, cur)
    return d


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed baseline report")
    parser.add_argument("current", help="freshly generated report")
    args = parser.parse_args()

    try:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)
        with open(args.current, encoding="utf-8") as f:
            current = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2

    d = diff_reports(baseline, current)
    d.render()
    if d.failed:
        print(f"\nbench_diff: FAIL ({d.hard_failures} simulated/structural)")
        return 1
    noise = sum(1 for r in d.rows if "timing" in r[4])
    print(f"\nbench_diff: OK ({noise} timing-noise keys ignored)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
