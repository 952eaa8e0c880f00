#!/usr/bin/env python3
"""Schema checker for the --json / --trace output of the bench binaries.

Stdlib-only (the repo's no-new-dependencies rule).  Validates the
schema-versioned envelope that bench/bench_flags.h emits, the per-entry
shapes that src/sim/serialize.cc writes, and (optionally) that every line
of a --trace JSONL file parses and carries a known event kind.

Event kinds are checked against the names the compiled binary reports:
pass --dump-enums <build>/tools/cpt_dump_enums whenever a report, trace or
timeseries file carries event kinds.

Usage:
  tools/check_bench_json.py report.json [report2.json ...]
  tools/check_bench_json.py --dump-enums DUMP --trace trace.jsonl report.json
  tools/check_bench_json.py --perfetto trace.perfetto.json
  tools/check_bench_json.py --timeseries windows.jsonl

Exit status 0 iff every file validates; failures print one line each.
"""

import argparse
import json
import subprocess
import sys

SCHEMA = "cpt-bench-report"
SCHEMA_VERSION = 4


def load_event_kinds(dump_enums):
    """EventKind wire names as printed by the cpt_dump_enums binary, which
    reads them from ToString(EventKind) (src/obs/trace.cc)."""
    out = subprocess.run([dump_enums], capture_output=True, text=True,
                         check=True).stdout
    doc = json.loads(out)
    if doc.get("schema") != "cpt-dump-enums":
        raise Failure(f"enum dump has schema {doc.get('schema')!r}, "
                      "expected 'cpt-dump-enums'")
    entry = doc.get("enums", {}).get("EventKind")
    if not entry or not entry.get("names"):
        raise Failure("enum dump has no EventKind names")
    names = entry["names"]
    if entry.get("count") != len(names):
        raise Failure(f"EventKind count {entry.get('count')} but "
                      f"{len(names)} names dumped")
    return set(names)


# Set in main() from --dump-enums; None means event kinds cannot be checked.
EVENT_KINDS = None


def require_event_kind(kind, where):
    require(EVENT_KINDS is not None,
            f"{where}: checking event kinds needs --dump-enums")
    require(kind in EVENT_KINDS, f"{where}: unknown event kind {kind!r}")


# The three attribution dimensions serialize.cc emits, in order.
ATTRIBUTION_DIMS = ("by_segment", "by_page_class", "by_outcome")

ACCESS_FIELDS = {
    "workload": str,
    "avg_lines_per_miss": (int, float),
    "denominator_misses": int,
    "effective_misses": int,
    "trace_refs": int,
    "miss_ratio": (int, float),
    "pt_bytes": int,
    "page_faults": int,
    "rng_seed": int,
    "timing": dict,
    "options": dict,
}

SIZE_FIELDS = {
    "workload": str,
    "bytes": int,
    "hashed_bytes": int,
    "normalized": (int, float),
    "census": dict,
    "rng_seed": int,
    "wall_seconds": (int, float),
    "host_perf": dict,
    "options": dict,
}

# Shape of obs::ToJson(HostPerfSample): identical whether perf_event_open
# succeeded or not (the degradation contract in src/obs/perf.h) — counters
# simply read zero on perf-less hosts.
HOST_PERF_FIELDS = {
    "available": bool,
    "source": str,
    "reason": str,
    "wall_seconds": (int, float),
    "user_seconds": (int, float),
    "sys_seconds": (int, float),
    "max_rss_kb": int,
    "minor_faults": int,
    "major_faults": int,
    "voluntary_ctx_switches": int,
    "involuntary_ctx_switches": int,
    "counters": dict,
    "derived": dict,
}

HOST_PERF_COUNTERS = {
    "cycles", "instructions", "llc_misses", "dtlb_load_misses",
    "branch_misses", "time_enabled_ns", "time_running_ns",
}

HOST_PERF_DERIVED = {"ipc", "llc_mpki", "dtlb_mpki", "branch_mpki"}

OPTION_FIELDS = {
    "pt_kind", "tlb_kind", "tlb_entries", "subblock_factor", "num_buckets",
    "line_size", "phys_frames",
}


class Failure(Exception):
    pass


def require(cond, msg):
    if not cond:
        raise Failure(msg)


def check_fields(obj, fields, where):
    for name, types in fields.items():
        require(name in obj, f"{where}: missing field '{name}'")
        require(isinstance(obj[name], types),
                f"{where}: field '{name}' has type {type(obj[name]).__name__}")


def check_options(opts, where):
    missing = OPTION_FIELDS - opts.keys()
    require(not missing, f"{where}: options missing {sorted(missing)}")


def check_host_perf(hp, where):
    check_fields(hp, HOST_PERF_FIELDS, where)
    require(hp["source"] in ("perf_event", "rusage"),
            f"{where}: host_perf source {hp['source']!r}")
    if not hp["available"]:
        require(hp["reason"], f"{where}: degraded host_perf must carry a reason")
        require(hp["source"] == "rusage",
                f"{where}: degraded host_perf must report source 'rusage'")
    missing = HOST_PERF_COUNTERS - hp["counters"].keys()
    require(not missing, f"{where}: host_perf counters missing {sorted(missing)}")
    for name in HOST_PERF_COUNTERS:
        require(isinstance(hp["counters"][name], int),
                f"{where}: host_perf counter '{name}' not an int")
    missing = HOST_PERF_DERIVED - hp["derived"].keys()
    require(not missing, f"{where}: host_perf derived missing {sorted(missing)}")
    for name in HOST_PERF_DERIVED:
        require(isinstance(hp["derived"][name], (int, float)),
                f"{where}: host_perf derived '{name}' not numeric")


def check_timing(timing, where):
    for field in ("wall_seconds", "refs_per_sec", "misses_per_sec"):
        require(isinstance(timing.get(field), (int, float)),
                f"{where}: timing missing numeric '{field}'")
    require(isinstance(timing.get("host_perf"), dict),
            f"{where}: timing missing host_perf")
    check_host_perf(timing["host_perf"], f"{where}.timing")
    phases = timing.get("phases")
    require(isinstance(phases, list) and phases,
            f"{where}: timing missing non-empty phases")
    for p, phase in enumerate(phases):
        pw = f"{where}.phases[{p}]"
        require(isinstance(phase.get("name"), str) and phase["name"],
                f"{pw}: missing name")
        require(isinstance(phase.get("work"), int), f"{pw}: missing int work")
        for field in ("wall_seconds", "work_per_sec"):
            require(isinstance(phase.get(field), (int, float)),
                    f"{pw}: missing numeric '{field}'")
        require(isinstance(phase.get("host_perf"), dict),
                f"{pw}: missing host_perf")
        check_host_perf(phase["host_perf"], pw)


def check_attribution(attr, where):
    """Shape + reconciliation: each dimension partitions the counted walks,
    so its per-cell walks/lines sums must equal the section totals."""
    for field in ("walks", "lines", "steps"):
        require(isinstance(attr.get(field), int),
                f"{where}: attribution missing int '{field}'")
    for dim in ATTRIBUTION_DIMS:
        cells = attr.get(dim)
        require(isinstance(cells, list), f"{where}: attribution missing '{dim}'")
        for c, cell in enumerate(cells):
            for field in ("walks", "lines", "steps"):
                require(isinstance(cell.get(field), int),
                        f"{where}: {dim}[{c}] missing int '{field}'")
            require(isinstance(cell.get("label"), str) and cell["label"],
                    f"{where}: {dim}[{c}] missing label")
        for field in ("walks", "lines"):
            total = sum(cell[field] for cell in cells)
            require(total == attr[field],
                    f"{where}: {dim} {field} sum {total} != total {attr[field]}")


def check_measurement_entry(entry, i):
    where = f"entries[{i}] ({entry['type']}/{entry.get('series', '?')})"
    require("series" in entry, f"{where}: missing 'series'")
    require("measurement" in entry, f"{where}: missing 'measurement'")
    m = entry["measurement"]
    fields = ACCESS_FIELDS if entry["type"] == "access" else SIZE_FIELDS
    check_fields(m, fields, where)
    check_options(m["options"], where)
    if entry["type"] == "size":
        check_host_perf(m["host_perf"], where)
    if entry["type"] == "access":
        check_timing(m["timing"], where)
        require(m["denominator_misses"] <= m["effective_misses"] + m.get("block_misses", 0)
                + m.get("subblock_misses", 0) or m["denominator_misses"] >= 0,
                f"{where}: nonsensical miss counts")
        for kind in m.get("events", {}):
            require_event_kind(kind, where)
        for histo in m.get("histograms", {}).values():
            require({"total", "mean", "overflow", "counts"} <= histo.keys(),
                    f"{where}: malformed histogram")
        if "attribution" in m:
            check_attribution(m["attribution"], where)


def check_table_entry(entry, i):
    where = f"entries[{i}] (table)"
    require("title" in entry, f"{where}: missing 'title'")
    table = entry.get("table")
    require(isinstance(table, dict), f"{where}: missing 'table'")
    cols = table.get("columns")
    rows = table.get("rows")
    require(isinstance(cols, list) and cols, f"{where}: missing columns")
    require(isinstance(rows, list), f"{where}: missing rows")
    for r, row in enumerate(rows):
        require(len(row) == len(cols),
                f"{where}: row {r} has {len(row)} cells for {len(cols)} columns")


def check_report_doc(doc):
    require(doc.get("schema") == SCHEMA, f"schema is {doc.get('schema')!r}")
    require(doc.get("schema_version") == SCHEMA_VERSION,
            f"schema_version is {doc.get('schema_version')!r}")
    require(isinstance(doc.get("bench"), str) and doc["bench"],
            "missing bench name")
    entries = doc.get("entries")
    require(isinstance(entries, list) and entries, "empty entries array")
    for i, entry in enumerate(entries):
        require(isinstance(entry.get("type"), str), f"entries[{i}]: missing type")
        if entry["type"] in ("access", "size"):
            check_measurement_entry(entry, i)
        elif entry["type"] == "table":
            check_table_entry(entry, i)
        # Other custom entry types (rangeops, ...) only need type + series.
        else:
            require("series" in entry, f"entries[{i}]: missing 'series'")
    if "metrics" in doc:
        require(isinstance(doc["metrics"], list), "metrics is not a list")
        for j, inst in enumerate(doc["metrics"]):
            require(isinstance(inst.get("name"), str) and inst["name"],
                    f"metrics[{j}]: missing name")
            require(inst.get("type") in ("counter", "gauge", "histogram", "stats"),
                    f"metrics[{j}]: bad type {inst.get('type')!r}")
    # v2: every report carries a bench-wide host_perf and an aggregate
    # throughput section; timeseries summary appears iff --timeseries ran.
    require(isinstance(doc.get("host_perf"), dict), "missing host_perf section")
    check_host_perf(doc["host_perf"], "<report>")
    tp = doc.get("throughput")
    require(isinstance(tp, dict), "missing throughput section")
    require(isinstance(tp.get("refs"), int), "throughput missing int refs")
    for field in ("wall_seconds", "refs_per_sec"):
        require(isinstance(tp.get(field), (int, float)),
                f"throughput missing numeric '{field}'")
    if "timeseries" in doc:
        ts = doc["timeseries"]
        require(isinstance(ts.get("window_refs"), int) and ts["window_refs"] > 0,
                "timeseries missing positive window_refs")
        for field in ("total_refs", "windows"):
            require(isinstance(ts.get(field), int),
                    f"timeseries missing int '{field}'")
    return len(entries)


def check_report(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return check_report_doc(doc)


def check_trace(path):
    n = 0
    with open(path, encoding="utf-8") as f:
        header = json.loads(f.readline())
        require(header.get("schema") == "cpt-bench-trace", "bad trace header")
        for lineno, line in enumerate(f, start=2):
            rec = json.loads(line)
            if rec.get("type") == "context":
                require("series" in rec and "rng_seed" in rec,
                        f"line {lineno}: malformed context record")
                continue
            require_event_kind(rec.get("kind"), f"line {lineno}")
            n += 1
    return n


def check_timeseries_lines(lines):
    """Validates a --timeseries JSONL document given as parsed records.

    Layout: one header, then per measurement a context line declaring its
    window count followed by exactly that many window lines with contiguous
    0-based indexes.  Only a section's final window may be partial.
    """
    require(lines, "empty timeseries file")
    header = lines[0]
    require(header.get("schema") == "cpt-bench-timeseries",
            f"bad timeseries header schema {header.get('schema')!r}")
    require(header.get("schema_version") == SCHEMA_VERSION,
            f"timeseries schema_version is {header.get('schema_version')!r}")
    window_refs = header.get("window_refs")
    require(isinstance(window_refs, int) and window_refs > 0,
            "timeseries header missing positive window_refs")

    n_windows = 0
    expected = None  # Declared window count of the open section.
    seen = 0
    def close_section(lineno):
        if expected is not None:
            require(seen == expected,
                    f"line {lineno}: section declared {expected} windows, "
                    f"got {seen}")
    for lineno, rec in enumerate(lines[1:], start=2):
        kind = rec.get("type")
        if kind == "context":
            close_section(lineno)
            require("series" in rec and isinstance(rec.get("windows"), int),
                    f"line {lineno}: malformed timeseries context")
            expected, seen = rec["windows"], 0
        elif kind == "window":
            require(expected is not None,
                    f"line {lineno}: window before any context line")
            require(rec.get("window") == seen,
                    f"line {lineno}: window index {rec.get('window')} != {seen}")
            for field in ("start_ref", "refs", "lines"):
                require(isinstance(rec.get(field), int),
                        f"line {lineno}: window missing int '{field}'")
            for field in ("miss_rate", "lines_per_miss"):
                require(isinstance(rec.get(field), (int, float)),
                        f"line {lineno}: window missing numeric '{field}'")
            require(0 < rec["refs"] <= window_refs,
                    f"line {lineno}: window refs {rec['refs']} outside "
                    f"(0, {window_refs}]")
            if seen < expected - 1:
                require(rec["refs"] == window_refs,
                        f"line {lineno}: non-final window is partial "
                        f"({rec['refs']} < {window_refs})")
            events = rec.get("events", {})
            require(isinstance(events, dict),
                    f"line {lineno}: window events not an object")
            for name in events:
                require_event_kind(name, f"line {lineno}")
            seen += 1
            n_windows += 1
        else:
            raise Failure(f"line {lineno}: unknown record type {kind!r}")
    close_section(len(lines))
    return n_windows


def check_timeseries(path):
    with open(path, encoding="utf-8") as f:
        lines = [json.loads(line) for line in f if line.strip()]
    return check_timeseries_lines(lines)


def check_perfetto(path):
    """Validates a --perfetto file as well-formed Chrome trace-event JSON."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    require(isinstance(events, list) and events, "missing traceEvents array")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        ph = ev.get("ph")
        require(isinstance(ph, str) and len(ph) == 1, f"{where}: bad ph")
        require(isinstance(ev.get("name"), str) and ev["name"],
                f"{where}: missing name")
        require(isinstance(ev.get("pid"), int), f"{where}: missing pid")
        if ph != "M":  # Metadata events have no timestamp.
            require(isinstance(ev.get("ts"), int), f"{where}: missing ts")
        if ph == "X":
            require(isinstance(ev.get("dur"), int) and ev["dur"] > 0,
                    f"{where}: complete event without positive dur")
        if ph == "C":
            require(isinstance(ev.get("args"), dict) and ev["args"],
                    f"{where}: counter event without args")
        if ph == "i":
            require(ev.get("s") in (None, "t", "p", "g"), f"{where}: bad scope")
    return len(events)


def _sample_host_perf(available=True):
    return {
        "available": available,
        "source": "perf_event" if available else "rusage",
        "reason": "" if available else "perf_event_open: Operation not permitted",
        "wall_seconds": 0.5, "user_seconds": 0.4, "sys_seconds": 0.1,
        "max_rss_kb": 10240, "minor_faults": 12, "major_faults": 0,
        "voluntary_ctx_switches": 1, "involuntary_ctx_switches": 2,
        "counters": {"cycles": 1000 if available else 0,
                     "instructions": 2000 if available else 0,
                     "llc_misses": 3, "dtlb_load_misses": 4,
                     "branch_misses": 5,
                     "time_enabled_ns": 100, "time_running_ns": 100}
        if available else dict.fromkeys(HOST_PERF_COUNTERS, 0),
        "derived": {"ipc": 2.0, "llc_mpki": 1.5, "dtlb_mpki": 2.0,
                    "branch_mpki": 2.5}
        if available else dict.fromkeys(HOST_PERF_DERIVED, 0.0),
    }


def _self_test_sections():
    """Synthetic-document round trips for the v2 sections: each valid doc
    must pass, each deliberately broken variant must raise Failure."""
    valid = {
        "schema": SCHEMA, "schema_version": SCHEMA_VERSION, "bench": "t",
        "trace_len_override": 0,
        "entries": [{
            "type": "size", "series": "clustered",
            "measurement": {
                "workload": "gcc", "bytes": 4096, "hashed_bytes": 8192,
                "normalized": 0.5, "census": {}, "rng_seed": 1,
                "wall_seconds": 1e-3, "host_perf": _sample_host_perf(False),
                "options": dict.fromkeys(OPTION_FIELDS, 0)},
        }],
        "host_perf": _sample_host_perf(True),
        "throughput": {"refs": 3000, "wall_seconds": 1.5e-4,
                       "refs_per_sec": 2e7},
        "timeseries": {"window_refs": 512, "total_refs": 3000, "windows": 6},
    }
    checks = [("valid report", valid, None)]

    import copy
    broken = copy.deepcopy(valid)
    del broken["host_perf"]
    checks.append(("missing host_perf section", broken, "host_perf"))
    broken = copy.deepcopy(valid)
    broken["entries"][0]["measurement"]["host_perf"]["reason"] = ""
    checks.append(("degraded without reason", broken, "reason"))
    broken = copy.deepcopy(valid)
    del broken["throughput"]["refs_per_sec"]
    checks.append(("throughput missing refs_per_sec", broken, "refs_per_sec"))
    broken = copy.deepcopy(valid)
    del broken["host_perf"]["counters"]["dtlb_load_misses"]
    checks.append(("missing perf counter", broken, "dtlb_load_misses"))

    for label, doc, expect in checks:
        try:
            check_report_doc(doc)
            ok = expect is None
            err = ""
        except Failure as e:
            ok = expect is not None and expect in str(e)
            err = str(e)
        if not ok:
            raise Failure(f"self-test '{label}': "
                          + (f"unexpected error {err!r}" if err
                             else "broken doc passed validation"))

    ts_valid = [
        {"schema": "cpt-bench-timeseries", "schema_version": SCHEMA_VERSION,
         "bench": "t", "window_refs": 4, "type": "header"},
        {"type": "context", "series": "a", "workload": "w", "windows": 2},
        {"type": "window", "window": 0, "start_ref": 0, "refs": 4, "lines": 2,
         "miss_rate": 0.25, "lines_per_miss": 2.0, "events": {"tlb_miss": 1}},
        {"type": "window", "window": 1, "start_ref": 4, "refs": 3, "lines": 0,
         "miss_rate": 0.0, "lines_per_miss": 0.0, "events": {}},
    ]
    if check_timeseries_lines(ts_valid) != 2:
        raise Failure("self-test: timeseries window count wrong")
    ts_broken = [dict(rec) for rec in ts_valid]
    ts_broken[3]["window"] = 5  # Non-contiguous index.
    try:
        check_timeseries_lines(ts_broken)
        raise Failure("self-test: non-contiguous window index passed")
    except Failure as e:
        if "window index" not in str(e):
            raise
    ts_partial = [dict(rec) for rec in ts_valid]
    ts_partial[2]["refs"] = 2  # Partial window that is not the section's last.
    try:
        check_timeseries_lines(ts_partial)
        raise Failure("self-test: early partial window passed")
    except Failure as e:
        if "partial" not in str(e):
            raise


def main():
    global EVENT_KINDS
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("reports", nargs="*", help="--json report files")
    parser.add_argument("--trace", action="append", default=[],
                        help="--trace JSONL files")
    parser.add_argument("--perfetto", action="append", default=[],
                        help="--perfetto Chrome trace-event files")
    parser.add_argument("--timeseries", action="append", default=[],
                        help="--timeseries windowed JSONL files")
    parser.add_argument("--dump-enums", metavar="PATH",
                        help="the cpt_dump_enums binary; event kinds are "
                             "checked against the names it prints")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the --dump-enums path and the report "
                             "section validators, then exit")
    args = parser.parse_args()
    if (not args.self_test and not args.reports and not args.trace
            and not args.perfetto and not args.timeseries):
        parser.error("nothing to check")

    if args.self_test and not args.dump_enums:
        parser.error("--self-test needs --dump-enums")
    if args.dump_enums:
        try:
            EVENT_KINDS = load_event_kinds(args.dump_enums)
        except (Failure, OSError, subprocess.CalledProcessError,
                json.JSONDecodeError) as e:
            print(f"FAIL loading event kinds: {e}")
            return 1

    if args.self_test:
        # The protocol kinds every bench trace is built from must be present;
        # their absence means the enum dump went wrong.
        core = {"tlb_hit", "tlb_miss", "walk_step", "walk_hit", "walk_end",
                "walk_abort", "page_fault"}
        missing = core - EVENT_KINDS
        if missing:
            print(f"FAIL self-test: core event kinds missing: {sorted(missing)}")
            return 1
        try:
            _self_test_sections()
        except Failure as e:
            print(f"FAIL self-test: {e}")
            return 1
        print(f"OK   self-test: {len(EVENT_KINDS)} event kinds via cpt_dump_enums; "
              "host_perf/throughput/timeseries validators "
              "round-trip")
        return 0

    failed = False
    for path in args.reports:
        try:
            n = check_report(path)
            print(f"OK   {path}: {n} entries")
        except (Failure, json.JSONDecodeError, OSError) as e:
            print(f"FAIL {path}: {e}")
            failed = True
    for path in args.trace:
        try:
            n = check_trace(path)
            print(f"OK   {path}: {n} events")
        except (Failure, json.JSONDecodeError, OSError) as e:
            print(f"FAIL {path}: {e}")
            failed = True
    for path in args.perfetto:
        try:
            n = check_perfetto(path)
            print(f"OK   {path}: {n} trace events")
        except (Failure, json.JSONDecodeError, OSError) as e:
            print(f"FAIL {path}: {e}")
            failed = True
    for path in args.timeseries:
        try:
            n = check_timeseries(path)
            print(f"OK   {path}: {n} windows")
        except (Failure, json.JSONDecodeError, OSError) as e:
            print(f"FAIL {path}: {e}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
