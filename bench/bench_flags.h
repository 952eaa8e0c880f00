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
//   --timeseries=<path>  write windowed time-series JSONL: one window line
//                   every --timeseries-window simulated references (default
//                   8192), via obs::IntervalSnapshotter; windows also render
//                   as Perfetto counter tracks when --perfetto is given
//
// All flags are parsed and *removed* from argv, so a bench's own argument
// parsing never sees them.  With no flags, Hooks() returns empty hooks, no
// tracer is ever attached, and the bench's text output is bit-identical to
// the pre-telemetry binaries.
//
// Schema v2: every JSON report additionally carries a bench-wide "host_perf"
// section (perf_event counters with rusage fallback — obs/perf.h's
// degradation contract keeps the shape identical either way), a
// "throughput" section aggregating refs/sec over every recorded access
// measurement, and per-measurement "timing" blocks gain per-phase host
// samples.  v1 consumers must re-pin baselines.
//
// Schema v4: drops v3's "concurrency" section (lock-contention sites) and
// its lock-stripe machine option, which leaves the v2 layout.
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

#include "obs/attribution.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/perfetto.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "sim/experiments.h"
#include "sim/report.h"
#include "sim/serialize.h"

namespace cpt::bench {

// Version of the JSON document layout; bump on breaking schema changes.
// tools/check_bench_json.py validates against this.
// v2: host_perf + throughput sections, timing.phases, timeseries sidecar.
// v3: concurrency section (lock-contention sites) and a lock-stripe option.
// v4: both v3 additions removed.
inline constexpr std::uint64_t kBenchSchemaVersion = 4;

// Default time-series window width, in simulated references.
inline constexpr std::uint64_t kDefaultTimeseriesWindow = 8192;

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
    std::string timeseries_path;
    std::uint64_t timeseries_window = kDefaultTimeseriesWindow;
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
      } else if (arg.rfind("--timeseries-window", 0) == 0 &&
                 (arg.size() == 19 || arg[19] == '=')) {
        const std::string v = RequireValue(arg, "--timeseries-window");
        timeseries_window = std::strtoull(v.c_str(), nullptr, 10);
        if (timeseries_window == 0) {
          std::fprintf(stderr, "usage: --timeseries-window=<refs> (> 0)\n");
          std::exit(2);
        }
      } else if (arg.rfind("--timeseries", 0) == 0 &&
                 (arg.size() == 12 || arg[12] == '=')) {
        timeseries_path = RequireValue(arg, "--timeseries");
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
      // Non-zero when CPT_TRACE_LEN shortened the runs (CI small presets).
      writer_->KV("trace_len_override", sim::TraceLengthFromEnv(0));
      writer_->Key("entries");
      writer_->BeginArray();
    }
    if (!timeseries_path.empty()) {
      timeseries_path_ = timeseries_path;
      timeseries_os_.open(timeseries_path);
      if (!timeseries_os_) {
        Die("cannot open timeseries file", timeseries_path);
      }
      snapshotter_ = std::make_unique<obs::IntervalSnapshotter>(
          timeseries_window, &metrics_, perfetto_.get());
      obs::JsonWriter w(timeseries_os_, /*pretty=*/false);
      w.BeginObject();
      w.KV("type", "header");
      w.KV("schema", "cpt-bench-timeseries");
      w.KV("schema_version", kBenchSchemaVersion);
      w.KV("bench", bench_name_);
      w.KV("window_refs", timeseries_window);
      w.EndObject();
      timeseries_os_ << '\n';
    }
    // Attachment order matters: the snapshotter samples the Perfetto logical
    // clock at window boundaries, so it must see each event *after* the
    // exporter has ticked (obs/snapshot.h).
    tee_.Add(ring_.get());
    tee_.Add(perfetto_.get());
    tee_.Add(snapshotter_.get());
    bench_perf_.Start();
  }

  ~BenchIo() {
    const obs::HostPerfSample bench_perf = bench_perf_.Stop();
    if (writer_ != nullptr) {
      writer_->EndArray();
      if (!metrics_.empty()) {
        writer_->Key("metrics");
        metrics_.ToJson(*writer_);
      }
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
      if (snapshotter_ != nullptr) {
        writer_->Key("timeseries");
        writer_->BeginObject();
        writer_->KV("window_refs", snapshotter_->window_refs());
        writer_->KV("total_refs", snapshotter_->total_refs());
        writer_->KV("windows", timeseries_windows_);
        writer_->EndObject();
      }
      writer_->EndObject();
      json_os_ << '\n';
      json_os_.flush();
      if (!json_os_) {
        DieLate("json report write failed", json_path_);
      }
    }
    if (timeseries_os_.is_open()) {
      timeseries_os_.flush();
      if (!timeseries_os_) {
        DieLate("timeseries file write failed", timeseries_path_);
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
  bool trace_enabled() const { return ring_ != nullptr; }
  bool perfetto_enabled() const { return perfetto_ != nullptr; }
  bool timeseries_enabled() const { return snapshotter_ != nullptr; }

  // Hooks for MeasureAccessTime: histograms are collected only when a JSON
  // report wants them; events are recorded when a trace file, Perfetto
  // trace, or time-series file wants them (all fan out through a tee).
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
      if (m.telemetry_valid) {
        obs::ExportTo(metrics_, m.attribution,
                      {{"series", std::string(series)},
                       {"workload", m.workload},
                       {"pt", sim::ToString(m.options.pt_kind)}});
      }
    }
    // Every access run adds to the report's aggregate "throughput" section.
    throughput_refs_ += m.trace_refs;
    throughput_seconds_ += m.wall_seconds;
    FlushTraceSection("access", series, m.workload, m.rng_seed, m.options);
    FlushTimeseriesSection("access", series, m.workload);
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

  // One time-series section: a context line naming the measurement, then
  // the snapshotter's windows (the final partial window included), then a
  // Reset() so the next measurement starts a fresh window sequence.
  void FlushTimeseriesSection(std::string_view type, std::string_view series,
                              std::string_view workload) {
    if (snapshotter_ == nullptr) {
      return;
    }
    snapshotter_->Finish();
    {
      obs::JsonWriter w(timeseries_os_, /*pretty=*/false);
      w.BeginObject();
      w.KV("type", "context");
      w.KV("entry_type", type);
      w.KV("series", series);
      w.KV("workload", workload);
      w.KV("window_refs", snapshotter_->window_refs());
      w.KV("windows", std::uint64_t{snapshotter_->windows().size()});
      w.EndObject();
    }
    timeseries_os_ << '\n';
    snapshotter_->WriteJsonl(timeseries_os_);
    timeseries_windows_ += snapshotter_->windows().size();
    snapshotter_->Reset();
  }

  std::string bench_name_;
  std::string json_path_;
  std::string trace_path_;
  std::string perfetto_path_;
  std::string timeseries_path_;
  std::ofstream trace_os_;
  std::ofstream json_os_;
  std::ofstream perfetto_os_;
  std::ofstream timeseries_os_;
  std::unique_ptr<obs::JsonWriter> writer_;  // After json_os_: destroyed first.
  std::unique_ptr<obs::RingBufferTracer> ring_;
  std::unique_ptr<obs::PerfettoExporter> perfetto_;  // After perfetto_os_.
  std::unique_ptr<obs::IntervalSnapshotter> snapshotter_;  // After perfetto_.
  obs::TeeTracer tee_;  // Fans events out to every enabled consumer.
  obs::MetricRegistry metrics_;  // Attribution instruments, dumped at exit.
  obs::HostPerfCounters bench_perf_;  // Whole-bench host-cost bracket.
  std::uint64_t throughput_refs_ = 0;      // Aggregate refs over access runs.
  double throughput_seconds_ = 0.0;        // Aggregate replay wall time.
  std::uint64_t timeseries_windows_ = 0;   // Windows written across sections.
};

}  // namespace cpt::bench
