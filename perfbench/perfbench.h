// Shared pieces of the perfbench program: the three workloads'
// cells, the canonical output line each cell is checked against, and the
// result every run prints.  See README.md for the metrics and workloads.
#ifndef CPT_PERFBENCH_PERFBENCH_H_
#define CPT_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiments.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace cpt::perfbench {

// --seed n selects input set n % kInputSets.  Set 0 keeps every paper
// workload's own seed; set 1 is the held-out set, each seed shifted by
// kHeldOutSeedShift.  Reference outputs are recorded for both.
inline constexpr std::uint64_t kInputSets = 2;
inline constexpr std::uint64_t kHeldOutSeedShift = 1'000'003;

// Figure 11 cells replay this many references each (the figure benches'
// CPT_TRACE_LEN knob, fixed so a pass stays around two seconds).
inline constexpr std::uint64_t kFig11TraceLen = 200'000;

// One MeasureAccessTime call: a trace workload on one machine.
struct ReplayCell {
  std::string key;  // e.g. "fig11c/coral/clustered"; names its reference line.
  const workload::WorkloadSpec* spec = nullptr;
  sim::MachineOptions opts;
  std::uint64_t trace_len = 0;  // Resolved: never 0.
  bool collect = false;         // MeasureHooks::collect.
  // Cells sharing a non-empty group must report identical denominator and
  // effective misses (the cross-organization invariant).
  std::string invariant_group;
};

// One MeasurePtSize call: a snapshot built under one size configuration
// plus the hashed baseline.
struct SizeCell {
  std::string key;  // e.g. "fig10/gcc/clustered+PSB".
  const workload::WorkloadSpec* spec = nullptr;
  sim::SizeConfig config;
};

struct Workload {
  std::string name;
  std::uint64_t input_set = 0;
  std::deque<workload::WorkloadSpec> specs;  // Seed-overridden copies; cells point here.
  std::vector<ReplayCell> replays;           // Replay workloads.
  std::vector<SizeCell> sizes;               // build-sweep.
};

// The named workload with every spec's seed chosen by `seed`; nullptr for
// an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed);

// Canonical one-line rendering of a cell's simulated outputs.  perfbench
// compares these strings exactly against the recorded reference lines.
std::string ReplayLine(const std::string& key, const sim::AccessMeasurement& m);
std::string ReplayLine(const std::string& key, const sim::Machine& m, std::uint64_t refs);
std::string SizeLine(const std::string& key, const sim::SizeMeasurement& m);
// Reads what MeasurePtSize reports off its measured machine: the bytes and
// the block census (not hashed_bytes, which comes from the baseline).
void ReadMeasured(sim::Machine& measured, sim::SizeMeasurement& out);

// Reference lines keyed by cell key.
using References = std::map<std::string, std::string>;
// Loads `path`; false (with a message on stderr) if it cannot be read.
bool LoadReferences(const std::string& path, References& out);
// True when `line` equals its reference; reports the mismatch on stderr.
bool MatchesReference(const References& refs, const std::string& key, const std::string& line);

// Replays the cell's trace on an already-preloaded machine, passing each
// reference's is_write (MeasureAccessTime drops it).
void ReplayOn(sim::Machine& machine, const ReplayCell& cell, const workload::Snapshot& snapshot);

// The options of a machine MeasurePtSize builds: the kind and strategy,
// single-page TLB, defaults otherwise.
sim::MachineOptions SizedOptions(sim::PtKind kind, os::PteStrategy strategy);

// What the silent-drop and audit checks read off a machine after a cell.
struct CellHealth {
  std::uint64_t faults = 0;
  std::uint64_t oom_faults = 0;
  std::uint64_t placement_failures = 0;
  std::uint64_t promotions = 0;
  std::uint64_t psb_updates = 0;
  std::uint64_t defects = 0;
  bool ok() const { return oom_faults == 0 && defects == 0; }
  void Add(const CellHealth& o);
};
CellHealth HealthOf(sim::Machine& machine);

// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What a run prints as its last line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string refs_dir;  // Directory holding <workload>.set<k>.txt.
  std::string out_dir;   // Where the traced run writes its spans.
  bool record = false;   // Write the reference file instead of checking it.
};

// The per-layer traced run (README.md, "Traced run").
void RunTraced(const Args& args, const Workload& w, const References& refs, Result& result);

using Clock = std::chrono::steady_clock;
inline double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double SecondsSince(Clock::time_point t0) { return Seconds(t0, Clock::now()); }
double Median(std::vector<double> v);

}  // namespace cpt::perfbench

#endif  // CPT_PERFBENCH_PERFBENCH_H_
