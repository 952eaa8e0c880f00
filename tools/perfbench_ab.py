#!/usr/bin/env python3
"""Interleaved A/B runs of perfbench: a base git ref against the working tree.

Run from the repository root:

    python3 tools/perfbench_ab.py --base HEAD --workload replay-local \\
        --seed 0 --seconds 10 --pairs 10

The base ref is exported with `git archive` into --scratch (default
.bench_build/ab/<commit>) and perfbench is built there and in the working
tree, each by its own perfbench/run.py.  Every workload then runs --pairs
pairs, one run per side, alternating which side goes first.  For each metric
the result prints each side's median and quartiles, the change/parent ratio
of the medians, the pairs the change won (ties count for neither), a
verdict, and next to it a 95% bootstrap confidence interval on the ratio:
the pairs are resampled with replacement from a fixed seed, so the same runs
always print the same interval.  The verdicts are:

  gain        over at least 10 pairs, the change won at least 9/10 of them
              and its median beats the parent's by more than the parent's
              interquartile range ("gain?" when that holds on fewer pairs);
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own interquartile range is wider than the bound,
              and not every change run beats every parent run;
  within      none of the above (for metrics without a bound: no gain).

--gate makes the comparison a pass/fail check: it exits 1 when, for any
end-to-end metric with a bound, on any workload run, the 95% interval lies
wholly beyond the bound in the bad direction (its upper end below 1 - bound
for a higher-better metric, its lower end above 1 + bound for a lower-better
one), and prints each metric and workload that tripped it.  An interval that
straddles the bound is noise, not a regression, and passes.

A run whose output check fails, or that reports failed references, stops the
comparison with exit status 2, as do usage errors.  --json writes every run's
metrics.  The tool only reads perfbench/ and BENCHMARK.json.  --self-test
checks the statistics and the gate on canned inputs without building or
running anything.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 600
BUILD_TIMEOUT_S = 1800
# A gain needs at least 10 pairs, and wins in at least 9 of every 10.
MIN_PAIRS = 10
WIN_NUM, WIN_DEN = 9, 10
# The bootstrap interval on the change/parent ratio of medians.
CI_LEVEL = 0.95
CI_RESAMPLES = 4000
CI_SEED = 1995


def fail(message):
    print(f"perfbench_ab: {message}", file=sys.stderr)
    sys.exit(2)


# ---- statistics -----------------------------------------------------------

def quartiles(values):
    """(q1, median, q3), interpolating linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def median_ratio(parent, change):
    """median(change) / median(parent); 1 when both are 0."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    return c_med / p_med if p_med != 0 else (1.0 if c_med == 0 else math.inf)


def bootstrap_ratio_ci(parent, change, resamples=CI_RESAMPLES, seed=CI_SEED):
    """Percentile bootstrap interval (CI_LEVEL) on median_ratio.

    Each resample draws len(parent) pair indices with replacement, so a
    pair's two runs, which shared the host's state, stay together.  The
    generator is seeded, so the interval is a function of the runs alone.
    """
    rng = random.Random(seed)
    n = len(parent)
    ratios = []
    for _ in range(resamples):
        idx = [rng.randrange(n) for _ in range(n)]
        ratios.append(median_ratio([parent[i] for i in idx], [change[i] for i in idx]))
    ratios.sort()
    tail = (1.0 - CI_LEVEL) / 2
    lo = ratios[int(math.floor(tail * (resamples - 1)))]
    hi = ratios[int(math.ceil((1.0 - tail) * (resamples - 1)))]
    return lo, hi


def compare(parent, change, better, bound):
    """Summarises one metric over paired runs.

    parent[i] and change[i] are the values of pair i.  `better` is "higher"
    or "lower"; `bound` is the relative worsening allowed, or None.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on each side")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = len(parent)
    ratio = median_ratio(parent, change)
    gain = wins * WIN_DEN >= WIN_NUM * pairs and sign * (c_med - p_med) > p_q3 - p_q1
    worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med != 0 else 0.0
    if gain:
        verdict = "gain" if pairs >= MIN_PAIRS else "gain?"
    elif bound is not None and worse_by > bound:
        verdict = "regression"
    elif (bound is not None and p_med != 0 and (p_q3 - p_q1) / abs(p_med) > bound
          and not min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "within"
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "ratio": ratio,
        "ratio_ci": list(bootstrap_ratio_ci(parent, change)),
        "wins": wins,
        "losses": losses,
        "pairs": pairs,
        "verdict": verdict,
    }


def gate_trips(workload, summary, benchmark):
    """'<workload> <metric> ...' for each bounded end-to-end metric whose
    ratio interval lies wholly beyond its bound in the bad direction."""
    trips = []
    for m in benchmark.get("end_to_end", []):
        name, bound = m["name"], m.get("bound")
        if bound is None or name not in summary:
            continue
        lo, hi = summary[name]["ratio_ci"]
        if m["better"] == "higher" and hi < 1.0 - bound:
            trips.append(f"{workload} {name}: change/parent 95% CI [{lo:.3f}, {hi:.3f}] "
                         f"lies below 1 - {bound:g}")
        elif m["better"] == "lower" and lo > 1.0 + bound:
            trips.append(f"{workload} {name}: change/parent 95% CI [{lo:.3f}, {hi:.3f}] "
                         f"lies above 1 + {bound:g}")
    return trips


def first_side(pair_index):
    """Which side runs first in a pair: the parent on even pairs."""
    return "parent" if pair_index % 2 == 0 else "change"


def metric_specs(benchmark):
    """name -> (better, bound) for every metric BENCHMARK.json declares."""
    specs = {}
    for m in benchmark.get("end_to_end", []):
        specs[m["name"]] = (m["better"], m.get("bound"))
    for m in benchmark.get("per_layer", []):
        specs[m["name"]] = (m["better"], None)
    return specs


def summarize(runs, specs):
    """runs: {"parent": [metrics...], "change": [metrics...]}, one dict of
    name -> value per run, pair i at index i.  Returns name -> comparison for
    every metric both sides report."""
    names = [n for n in runs["parent"][0] if all(n in r for r in runs["parent"] + runs["change"])]
    out = {}
    for name in names:
        better, bound = specs.get(name, ("higher", None))
        out[name] = compare([r[name] for r in runs["parent"]],
                            [r[name] for r in runs["change"]], better, bound)
    return out


def format_table(workload, summary, units):
    def side(q):
        return f"{q['median']:.4g} [{q['q1']:.4g}, {q['q3']:.4g}]"

    lines = [f"== {workload}",
             f"{'metric':<26} {'unit':<8} {'parent median [q1, q3]':<32} "
             f"{'change median [q1, q3]':<32} {'chg/par':>8} {'won':>7}  "
             f"{'verdict':<10}  chg/par 95% CI"]
    for name, s in summary.items():
        won = f"{s['wins']}/{s['pairs']}"
        lo, hi = s["ratio_ci"]
        lines.append(f"{name:<26} {units.get(name, ''):<8} {side(s['parent']):<32} "
                     f"{side(s['change']):<32} {s['ratio']:>8.3f} {won:>7}  "
                     f"{s['verdict']:<10}  [{lo:.3f}, {hi:.3f}]")
    return "\n".join(lines)


# ---- building and running -------------------------------------------------

def git(root, *args):
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_ref(root, ref, scratch):
    commit = git(root, "rev-parse", "--verify", f"{ref}^{{commit}}")
    tree = os.path.join(scratch, commit[:12])
    if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.run(["git", "archive", commit], cwd=root, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
    return commit, tree


def build(tree):
    """Builds perfbench in `tree` with that tree's own run.py."""
    code = ("import os, sys; sys.path.insert(0, 'perfbench'); import run; "
            "run.build(os.getcwd(), os.path.join('.bench_build', 'perfbench'))")
    # -B: importing run.py must not leave bytecode under perfbench/.
    proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=tree, stdout=sys.stderr,
                          stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"building perfbench in {tree} failed")


def run_once(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no output from {' '.join(cmd)} in {tree}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result.get("correct") or result.get("failed", 0) != 0:
        fail(f"run failed in {tree} ({workload}, seed {seed}): {lines[-1][:500]}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git ref of the parent side")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: every one)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scratch", default=os.path.join(".bench_build", "ab"))
    parser.add_argument("--json", help="write every run's metrics here")
    parser.add_argument("--gate", action="store_true",
                        help="exit 1 when a bounded end-to-end metric's CI lies "
                             "wholly beyond its bound in the bad direction")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        self_test()
        print("perfbench_ab self-test: ok")
        return 0
    if args.pairs < 1 or args.seconds <= 0:
        fail("--pairs must be >= 1 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        fail("BENCHMARK.json not found; run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    specs = metric_specs(benchmark)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]

    commit, base_tree = export_ref(root, args.base, os.path.abspath(args.scratch))
    trees = {"parent": base_tree, "change": root}
    for tree in trees.values():
        build(tree)
    print(f"parent: {args.base} ({commit[:12]}) in {base_tree}; change: working tree; "
          f"seed {args.seed}, {args.seconds:g} s per run, {args.pairs} pairs, "
          f"trace {args.trace}", flush=True)

    record = {"base": commit, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    trips = []
    for workload in workloads:
        runs = {"parent": [], "change": []}
        units = {}
        for i in range(args.pairs):
            order = ["parent", "change"] if first_side(i) == "parent" else ["change", "parent"]
            for side in order:
                result = run_once(trees[side], workload, args.seed, args.seconds, args.trace)
                runs[side].append({k: v["value"] for k, v in result["metrics"].items()})
                units.update({k: v.get("unit", "") for k, v in result["metrics"].items()})
            print(f"  {workload} pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        summary = summarize(runs, specs)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
        print(format_table(workload, summary, units), flush=True)
        trips += gate_trips(workload, summary, benchmark)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
    if args.gate:
        if trips:
            print("\nperfbench_ab gate: FAIL", *trips, sep="\n  ")
            return 1
        print("\nperfbench_ab gate: ok (no bounded metric's CI lies beyond its bound)")
    return 0


# ---- self-test ------------------------------------------------------------

def self_test():
    def check(cond, what):
        if not cond:
            raise SystemExit(f"perfbench_ab self-test failed: {what}")

    q1, med, q3 = quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
    check((q1, med, q3) == (2.0, 3.0, 4.0), f"quartiles of 1..5: {(q1, med, q3)}")
    check(quartiles([7.0]) == (7.0, 7.0, 7.0), "quartiles of one value")
    q1, med, q3 = quartiles([1.0, 2.0, 3.0, 4.0])
    check((q1, med, q3) == (1.75, 2.5, 3.25), f"quartiles of 1..4: {(q1, med, q3)}")
    check([first_side(i) for i in range(4)] == ["parent", "change", "parent", "change"],
          "sides alternate")

    parent = [10.0, 11.0, 9.0, 10.5, 10.0, 9.5, 10.2, 9.8, 10.1, 10.4]
    # Twice as fast, one pair lost: 9/10 wins is still a gain.
    change = [2 * p for p in parent]
    change[3] = 9.0
    s = compare(parent, change, "higher", 0.25)
    check(s["wins"] == 9 and s["losses"] == 1 and s["verdict"] == "gain", f"gain: {s}")
    check(s["parent"]["median"] == 10.05 and s["change"]["median"] == 20.0
          and abs(s["ratio"] - 20.0 / 10.05) < 1e-12, f"medians and ratio: {s}")
    # 8/10 wins is not a gain, however large the medians' gap.
    change[4] = 9.0
    check(compare(parent, change, "higher", 0.25)["verdict"] == "within", "8/10 is no gain")
    # Ties count for neither side.
    s = compare([10.0, 10.1, 10.2] * 4, [10.0, 10.1, 10.2] * 4, "lower", 0.25)
    check(s["wins"] == 0 and s["losses"] == 0 and s["verdict"] == "within", f"ties: {s}")
    # Lower is better: 30% slower set-up exceeds a 25% bound.
    s = compare([1.0] * 10, [1.3] * 10, "lower", 0.25)
    check(s["verdict"] == "regression" and s["losses"] == 10, f"regression: {s}")
    s = compare([1.0] * 10, [1.2] * 10, "lower", 0.25)
    check(s["verdict"] == "within", f"20% worse is within a 25% bound: {s}")
    # All wins but the gap is inside the parent's own spread: no gain.
    s = compare([1.0, 2.0, 3.0, 4.0, 5.0], [1.5, 2.5, 3.5, 4.5, 5.5], "higher", None)
    check(s["wins"] == 5 and s["verdict"] == "within", f"gap inside IQR: {s}")
    # A parent spread wider than the bound leaves the metric unresolved...
    wide = [1.0, 2.0, 3.0, 4.0, 5.0]
    s = compare(wide, [0.9 * v for v in wide], "higher", 0.25)
    check(s["verdict"] == "unresolved", f"unresolved: {s}")
    # ...unless every change run beats every parent run.
    s = compare(wide, [10.0, 11.0, 12.0, 13.0, 14.0], "higher", 0.25)
    check(s["verdict"] == "gain?", f"separated, 5 pairs: {s}")
    check(compare(wide * 2, [10.0 + v for v in wide * 2], "higher", 0.25)["verdict"] == "gain",
          "separated, 10 pairs")

    specs = metric_specs({"end_to_end": [{"name": "refs_per_s", "better": "higher",
                                          "bound": 0.25}],
                          "per_layer": [{"name": "os.touch_ns", "better": "lower"}]})
    check(specs == {"refs_per_s": ("higher", 0.25), "os.touch_ns": ("lower", None)},
          f"specs: {specs}")
    runs = {"parent": [{"refs_per_s": 1.0, "os.touch_ns": 100.0, "extra": 1.0}] * 10,
            "change": [{"refs_per_s": 2.0, "os.touch_ns": 50.0}] * 10}
    summary = summarize(runs, specs)
    check(sorted(summary) == ["os.touch_ns", "refs_per_s"], f"names: {sorted(summary)}")
    check(summary["os.touch_ns"]["verdict"] == "gain"
          and summary["refs_per_s"]["verdict"] == "gain", f"summary: {summary}")
    table = format_table("w", summary, {"refs_per_s": "refs/s"})
    check("refs_per_s" in table and "10/10" in table and "[2.000, 2.000]" in table,
          f"table:\n{table}")

    # The bootstrap interval: constant runs give a point; the same runs give
    # the same interval; the interval holds the observed ratio.
    check(bootstrap_ratio_ci([4.0] * 10, [6.0] * 10) == (1.5, 1.5), "constant runs")
    ci = bootstrap_ratio_ci(parent, change)
    check(ci == bootstrap_ratio_ci(parent, change), f"deterministic: {ci}")
    check(ci[0] <= compare(parent, change, "higher", 0.25)["ratio"] <= ci[1], f"holds ratio: {ci}")
    # Coverage on canned data: 100 ten-pair samples of runs with ~5% noise
    # around a true ratio of medians of 1.3.  A 95% interval must hold 1.3
    # in most of them (a percentile bootstrap over ten pairs undercovers a
    # little), and must not be so wide that it also holds 1.0.
    rng = random.Random(7)
    covered = holds_one = 0
    for _ in range(100):
        p = [100.0 * math.exp(rng.gauss(0.0, 0.05)) for _ in range(10)]
        c = [130.0 * math.exp(rng.gauss(0.0, 0.05)) for _ in range(10)]
        lo, hi = bootstrap_ratio_ci(p, c, resamples=400)
        covered += lo <= 1.3 <= hi
        holds_one += lo <= 1.0 <= hi
    check(covered >= 85 and holds_one == 0, f"coverage {covered}/100, holds 1.0 {holds_one}/100")

    # The gate trips only on an interval wholly beyond the bound, in the
    # metric's bad direction; per-layer and unbounded metrics never trip it.
    bench = {"end_to_end": [{"name": "refs_per_s", "better": "higher", "bound": 0.25},
                            {"name": "setup_s", "better": "lower", "bound": 0.25},
                            {"name": "failed_frac", "better": "lower"}]}

    def trips(name, ci):
        return gate_trips("w", {name: {"ratio_ci": ci}}, bench)

    check(trips("refs_per_s", [0.60, 0.74]) == [
        "w refs_per_s: change/parent 95% CI [0.600, 0.740] lies below 1 - 0.25"],
        "higher-better CI below 1 - bound trips")
    check(trips("refs_per_s", [0.70, 0.80]) == [], "higher-better CI straddling 0.75 passes")
    check(trips("refs_per_s", [1.30, 1.50]) == [], "a faster change passes")
    check(trips("setup_s", [1.26, 1.40]) == [
        "w setup_s: change/parent 95% CI [1.260, 1.400] lies above 1 + 0.25"],
        "lower-better CI above 1 + bound trips")
    check(trips("setup_s", [1.20, 1.30]) == [], "lower-better CI straddling 1.25 passes")
    check(trips("setup_s", [0.50, 0.70]) == [], "a quicker set-up passes")
    check(trips("failed_frac", [5.0, 9.0]) == [], "an unbounded metric never trips")
    check(trips("os.touch_ns", [5.0, 9.0]) == [], "a per-layer metric never trips")
    # End to end over canned runs: a 40% slower change trips, the same runs
    # on both sides do not.
    slow = summarize({"parent": [{"refs_per_s": v} for v in parent],
                      "change": [{"refs_per_s": 0.6 * v} for v in parent]}, specs)
    check(len(gate_trips("w", slow, bench)) == 1, f"40% slower trips: {slow}")
    same = summarize({"parent": [{"refs_per_s": v} for v in parent],
                      "change": [{"refs_per_s": v} for v in reversed(parent)]}, specs)
    check(gate_trips("w", same, bench) == [], f"same runs pass: {same}")


if __name__ == "__main__":
    sys.exit(main())
