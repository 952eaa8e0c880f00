// Experiment drivers reproducing the paper's evaluation (Section 6).
//
// Size experiments build per-process page tables from a workload snapshot by
// pre-faulting every mapped page through the OS layer (so physical placement
// and PTE-format decisions are made by the real policy code), then read the
// paper-model byte counts.  Access-time experiments additionally run a
// reference trace through the Machine and report the average number of
// cache lines touched per TLB miss.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/attribution.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "os/address_space.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace cpt::sim {

// Host-side cost of one driver phase (snapshot build, preload, replay),
// bracketed by obs::HostPerfCounters.  `work` is the phase's natural unit —
// pages for snapshot_build/preload, references for run — so work_per_sec is
// pages/sec or refs/sec respectively.
struct PhasePerf {
  std::string name;
  std::uint64_t work = 0;
  double wall_seconds = 0.0;
  double work_per_sec = 0.0;
  obs::HostPerfSample host;
};

// One page-table configuration measured by the size experiments.
struct SizeConfig {
  std::string label;
  PtKind pt_kind;
  os::PteStrategy strategy = os::PteStrategy::kBaseOnly;
};

struct SizeMeasurement {
  std::string workload;
  std::uint64_t bytes = 0;        // Paper-model page-table bytes (all processes).
  std::uint64_t hashed_bytes = 0; // Same workload's conventional hashed bytes.
  double normalized = 0.0;        // bytes / hashed_bytes.
  // OS census after preload, for fss diagnostics.
  os::AddressSpace::BlockCensus census;
  // Provenance + timing, stamped into JSON output.
  std::uint64_t rng_seed = 0;     // The workload spec's seed.
  double wall_seconds = 0.0;      // Snapshot build + preload time.
  obs::HostPerfSample host_perf;  // Host cost of the whole measurement.
  MachineOptions options;         // Options of the measured (non-baseline) build.
};

// Builds page tables of the given kind/strategy for every process of the
// workload and returns the paper-model size plus diagnostics.
SizeMeasurement MeasurePtSize(const workload::WorkloadSpec& spec, const SizeConfig& config,
                              MachineOptions base_opts = {});

struct AccessMeasurement {
  std::string workload;
  double avg_lines_per_miss = 0.0;
  std::uint64_t denominator_misses = 0;
  std::uint64_t effective_misses = 0;
  std::uint64_t block_misses = 0;     // Complete-subblock TLBs.
  std::uint64_t subblock_misses = 0;  // Complete-subblock TLBs.
  std::uint64_t trace_refs = 0;
  double miss_ratio = 0.0;
  std::uint64_t pt_bytes = 0;
  // Defects found by Machine::AuditAll() after the run (opts.audit only;
  // 0 when auditing was off or every invariant held).
  std::uint64_t audit_defects = 0;
  std::string audit_summary;  // The defect list, "" when clean.
  // Provenance + timing, stamped into JSON output.
  std::uint64_t page_faults = 0;    // Faults during the measured trace.
  // References dropped during the trace because no frame was free.
  std::uint64_t oom_faults = 0;
  // Reservations broken during the trace to find a free frame.
  std::uint64_t reservations_broken = 0;
  std::uint64_t rng_seed = 0;       // The workload spec's seed.
  double wall_seconds = 0.0;        // Trace-replay time (excludes preload).
  double refs_per_sec = 0.0;
  double misses_per_sec = 0.0;      // Effective-TLB misses per second.
  // Host-side cost: one perf/rusage bracket per phase plus the replay-only
  // sample (host_perf matches the timing fields above in scope).
  obs::HostPerfSample host_perf;
  std::vector<PhasePerf> phases;    // snapshot_build, preload, run.
  MachineOptions options;           // Full machine configuration.
  // Walk-shape telemetry; populated when MeasureHooks::collect is set.
  bool telemetry_valid = false;
  Histogram chain_length;           // Chain nodes / tree levels per counted walk.
  Histogram lines_per_walk;         // Distinct cache lines per counted walk.
  obs::EventCounts events;          // Per-kind event totals over the trace.
  // Per-dimension lines/miss breakdown (segment, page class, outcome); each
  // dimension's lines sum to the numerator of avg_lines_per_miss.
  obs::AttributionResult attribution;
};

// Optional observation hooks for MeasureAccessTime.  The tracer (and the
// internal StatsTracer used when `collect` is set) is attached *after*
// Preload, so events cover the measured trace only — not the preload fault
// storm.  With default hooks no tracer is ever attached and the run is
// byte-for-byte the pre-telemetry behavior.
struct MeasureHooks {
  obs::WalkTracer* tracer = nullptr;  // Receives every WalkEvent of the trace.
  bool collect = false;               // Fill the telemetry fields above.
};

// The tracer chain MeasureHooks::collect attaches to the Machine:
// attribution -> histogram aggregator -> `forward`, so one pass feeds the
// per-dimension breakdown, the histograms and a caller's tracer (a --trace
// ring buffer, say) together.  The segment map covers every spec segment
// under the VPNs the Machine puts in walk events.
struct CollectTracers {
  CollectTracers(const workload::WorkloadSpec& spec, bool shared_page_table,
                 obs::WalkTracer* forward = nullptr);
  CollectTracers(const CollectTracers&) = delete;
  CollectTracers& operator=(const CollectTracers&) = delete;

  // Where a Machine attaches.
  obs::WalkTracer* head() { return &attribution; }

  obs::SegmentMap segments;
  obs::StatsTracer stats;
  obs::AttributionTracer attribution;
};

// Runs `trace_len` references of the workload's trace on a machine with the
// given options and reports the Figure 11 metric.  trace_len == 0 uses the
// workload's default.
AccessMeasurement MeasureAccessTime(const workload::WorkloadSpec& spec, MachineOptions opts,
                                    std::uint64_t trace_len = 0,
                                    const MeasureHooks& hooks = {});

// Names of the trace-driven workloads (all but the kernel snapshot).
std::vector<std::string> TraceWorkloadNames();
// All workload names including "kernel".
std::vector<std::string> AllWorkloadNames();

}  // namespace cpt::sim
