// Shared command-line telemetry flags for every bench binary:
//
//   --json=<path>   write a schema-versioned JSON report of everything the
//                   bench measured (paper metrics, walk-shape histograms,
//                   wall-clock throughput, RNG seed, full machine options)
//   --trace=<path>  write the walk-event stream as JSONL: one context line
//                   per measurement (series, workload, seed, options), then
//                   one line per event recorded by a bounded ring buffer
//   --perfetto=<path>  render the walk-event stream as Chrome trace-event
//                   JSON loadable in ui.perfetto.dev: one track per
//                   component plus counter tracks (see obs/perfetto.h)
//
// All flags are parsed and *removed* from argv, so a bench's own argument
// parsing never sees them.  With no flags, Hooks() returns empty hooks, no
// tracer is ever attached, and the bench's text output is bit-identical to
// the pre-telemetry binaries.
//
// Besides the entries, a JSON report carries a bench-wide "host_perf"
// section (perf_event counters with rusage fallback — obs/perf.h's
// degradation contract keeps the shape identical either way) and a
// "throughput" section aggregating refs/sec over every recorded access
// measurement.  Every run uses the trace length the paper's figures use.
//
// Error handling: an unopenable path, a malformed flag, or a stream that
// goes bad while writing all terminate the bench with a nonzero exit and a
// message naming the file — a truncated report must never look like success.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

#include "obs/json_writer.h"
#include "obs/perf.h"
#include "obs/perfetto.h"
#include "obs/trace.h"
#include "sim/experiments.h"
#include "sim/report.h"
#include "sim/serialize.h"

namespace cpt::bench {

// Version of the JSON document layout; bump on breaking schema changes.
// tools/bench_diff.py fails when a report's version differs from its
// baseline's.
// v2: host_perf + throughput sections, timing.phases, time-series sidecar.
// v3: concurrency section (lock-contention sites) and a lock-stripe option.
// v4: both v3 additions removed.
// v5: metrics section (a second copy of the attribution cells) and the
//     time-series sidecar removed.
// v6: the trace-length override key removed; no run is shortened any more.
inline constexpr std::uint64_t kBenchSchemaVersion = 6;

class BenchIo {
 public:
  // Parses --json=<path> / --trace=<path> / --perfetto=<path> out of argv
  // (compacting it and updating *argc).  A malformed flag (missing =path)
  // aborts with usage.
  BenchIo(std::string bench_name, int* argc, char** argv)
      : bench_name_(std::move(bench_name)) {
    std::string json_path;
    std::string trace_path;
    std::string perfetto_path;
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("--json", 0) == 0 &&
          (arg.size() == 6 || arg[6] == '=')) {
        json_path = RequireValue(arg, "--json");
      } else if (arg.rfind("--trace", 0) == 0 &&
                 (arg.size() == 7 || arg[7] == '=')) {
        trace_path = RequireValue(arg, "--trace");
      } else if (arg.rfind("--perfetto", 0) == 0 &&
                 (arg.size() == 10 || arg[10] == '=')) {
        perfetto_path = RequireValue(arg, "--perfetto");
      } else {
        argv[out++] = argv[i];
      }
    }
    *argc = out;
    argv[*argc] = nullptr;

    if (!perfetto_path.empty()) {
      perfetto_path_ = perfetto_path;
      perfetto_os_.open(perfetto_path);
      if (!perfetto_os_) {
        Die("cannot open perfetto file", perfetto_path);
      }
      perfetto_ = std::make_unique<obs::PerfettoExporter>(perfetto_os_);
    }
    if (!trace_path.empty()) {
      trace_path_ = trace_path;
      trace_os_.open(trace_path);
      if (!trace_os_) {
        Die("cannot open trace file", trace_path);
      }
      ring_ = std::make_unique<obs::RingBufferTracer>();
      // Header line so a trace file is self-describing.
      obs::JsonWriter w(trace_os_, /*pretty=*/false);
      w.BeginObject();
      w.KV("type", "header");
      w.KV("schema", "cpt-bench-trace");
      w.KV("schema_version", kBenchSchemaVersion);
      w.KV("bench", bench_name_);
      w.EndObject();
      trace_os_ << '\n';
    }
    if (!json_path.empty()) {
      json_path_ = json_path;
      json_os_.open(json_path);
      if (!json_os_) {
        Die("cannot open json file", json_path);
      }
      writer_ = std::make_unique<obs::JsonWriter>(json_os_, /*pretty=*/true);
      writer_->BeginObject();
      writer_->KV("schema", "cpt-bench-report");
      writer_->KV("schema_version", kBenchSchemaVersion);
      writer_->KV("bench", bench_name_);
      writer_->Key("entries");
      writer_->BeginArray();
    }
    tee_.Add(ring_.get());
    tee_.Add(perfetto_.get());
    bench_perf_.Start();
  }

  ~BenchIo() {
    const obs::HostPerfSample bench_perf = bench_perf_.Stop();
    if (writer_ != nullptr) {
      writer_->EndArray();
      // Bench-wide host cost (whole process, all phases) and aggregate
      // simulated-reference throughput over every recorded access run.
      writer_->Key("host_perf");
      obs::ToJson(*writer_, bench_perf);
      writer_->Key("throughput");
      writer_->BeginObject();
      writer_->KV("refs", throughput_refs_);
      writer_->KV("wall_seconds", throughput_seconds_);
      writer_->KV("refs_per_sec",
                  throughput_seconds_ > 0.0
                      ? static_cast<double>(throughput_refs_) / throughput_seconds_
                      : 0.0);
      writer_->EndObject();
      writer_->EndObject();
      json_os_ << '\n';
      json_os_.flush();
      if (!json_os_) {
        DieLate("json report write failed", json_path_);
      }
    }
    if (perfetto_ != nullptr) {
      perfetto_->Finish();
      perfetto_os_.flush();
      if (!perfetto_os_) {
        DieLate("perfetto trace write failed", perfetto_path_);
      }
    }
    if (trace_os_.is_open()) {
      trace_os_.flush();
      if (!trace_os_) {
        DieLate("trace file write failed", trace_path_);
      }
    }
  }

  BenchIo(const BenchIo&) = delete;
  BenchIo& operator=(const BenchIo&) = delete;

  bool json_enabled() const { return writer_ != nullptr; }

  // Hooks for MeasureAccessTime: histograms are collected only when a JSON
  // report wants them; events are recorded when a trace file or Perfetto
  // trace wants them (both fan out through a tee).
  // Default-constructed (no flags) attaches nothing.
  sim::MeasureHooks Hooks() {
    return sim::MeasureHooks{.tracer = tee_.size() > 0 ? &tee_ : nullptr,
                             .collect = json_enabled()};
  }

  // Records one access-time measurement under a series label ("clustered",
  // "hashed-2tbl", ...), and flushes the trace ring into one JSONL section.
  void RecordAccess(std::string_view series, const sim::AccessMeasurement& m) {
    if (writer_ != nullptr) {
      writer_->BeginObject();
      writer_->KV("type", "access");
      writer_->KV("series", series);
      writer_->Key("measurement");
      sim::ToJson(*writer_, m);
      writer_->EndObject();
    }
    // Every access run adds to the report's aggregate "throughput" section.
    throughput_refs_ += m.trace_refs;
    throughput_seconds_ += m.wall_seconds;
    FlushTraceSection("access", series, m.workload, m.rng_seed, m.options);
    MarkSection("access", series, m.workload);
  }

  // Records one size measurement (no events: size runs only preload).
  void RecordSize(std::string_view series, const sim::SizeMeasurement& m) {
    if (writer_ != nullptr) {
      writer_->BeginObject();
      writer_->KV("type", "size");
      writer_->KV("series", series);
      writer_->Key("measurement");
      sim::ToJson(*writer_, m);
      writer_->EndObject();
    }
    MarkSection("size", series, m.workload);
  }

  // Records the printed text table verbatim, so JSON consumers can diff
  // exactly what the terminal showed.
  void RecordTable(std::string_view title, const sim::Report& report) {
    if (writer_ == nullptr) {
      return;
    }
    writer_->BeginObject();
    writer_->KV("type", "table");
    writer_->KV("title", title);
    writer_->Key("table");
    report.ToJson(*writer_);
    writer_->EndObject();
  }

  // Escape hatch for bench-specific entries; `fill` must emit the members of
  // one object (type/series keys are written for it).
  template <typename Fn>
  void RecordCustom(std::string_view type, std::string_view series, Fn&& fill) {
    if (writer_ == nullptr) {
      return;
    }
    writer_->BeginObject();
    writer_->KV("type", type);
    writer_->KV("series", series);
    fill(*writer_);
    writer_->EndObject();
  }

 private:
  static std::string RequireValue(std::string_view arg, std::string_view flag) {
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos || eq + 1 == arg.size()) {
      std::fprintf(stderr, "usage: %.*s=<path>\n", static_cast<int>(flag.size()),
                   flag.data());
      std::exit(2);
    }
    return std::string(arg.substr(eq + 1));
  }

  [[noreturn]] static void Die(const char* what, const std::string& path) {
    std::fprintf(stderr, "bench_flags: %s: %s\n", what, path.c_str());
    std::exit(2);
  }

  // Late failures (detected while closing output files) exit 1 rather than
  // the usage-error 2; callers and CI just need nonzero + a clear message.
  [[noreturn]] static void DieLate(const char* what, const std::string& path) {
    std::fprintf(stderr, "bench_flags: %s: %s\n", what, path.c_str());
    std::exit(1);
  }

  // Marks a completed measurement on the Perfetto sections track, so a
  // bench-long trace is navigable by series/workload.
  void MarkSection(std::string_view type, std::string_view series,
                   std::string_view workload) {
    if (perfetto_ == nullptr) {
      return;
    }
    std::string label(type);
    label += ' ';
    label += series;
    if (!workload.empty()) {
      label += '/';
      label += workload;
    }
    perfetto_->BeginSection(label);
  }

  // One trace section: a context line stamped with seed + options (satellite
  // 2: every trace identifies its run), then the ring's surviving events.
  void FlushTraceSection(std::string_view type, std::string_view series,
                         std::string_view workload, std::uint64_t rng_seed,
                         const sim::MachineOptions& opts) {
    if (ring_ == nullptr) {
      return;
    }
    {
      obs::JsonWriter w(trace_os_, /*pretty=*/false);
      w.BeginObject();
      w.KV("type", "context");
      w.KV("entry_type", type);
      w.KV("series", series);
      w.KV("workload", workload);
      w.KV("rng_seed", rng_seed);
      w.KV("events_recorded", ring_->total_recorded());
      w.KV("events_dropped", ring_->dropped());
      w.Key("options");
      sim::ToJson(w, opts);
      w.EndObject();
    }
    trace_os_ << '\n';
    ring_->WriteJsonl(trace_os_);
    ring_->Clear();
  }

  std::string bench_name_;
  std::string json_path_;
  std::string trace_path_;
  std::string perfetto_path_;
  std::ofstream trace_os_;
  std::ofstream json_os_;
  std::ofstream perfetto_os_;
  std::unique_ptr<obs::JsonWriter> writer_;  // After json_os_: destroyed first.
  std::unique_ptr<obs::RingBufferTracer> ring_;
  std::unique_ptr<obs::PerfettoExporter> perfetto_;  // After perfetto_os_.
  obs::TeeTracer tee_;  // Fans events out to every enabled consumer.
  obs::HostPerfCounters bench_perf_;  // Whole-bench host-cost bracket.
  std::uint64_t throughput_refs_ = 0;      // Aggregate refs over access runs.
  double throughput_seconds_ = 0.0;        // Aggregate replay wall time.
};

}  // namespace cpt::bench
