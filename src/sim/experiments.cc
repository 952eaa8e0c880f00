#include "sim/experiments.h"

#include <cstddef>
#include <utility>

#include "obs/perf.h"

namespace cpt::sim {

SizeMeasurement MeasurePtSize(const workload::WorkloadSpec& spec, const SizeConfig& config,
                              MachineOptions base_opts) {
  SizeMeasurement m;
  obs::HostPerfCounters perf;
  perf.Start();
  const workload::Snapshot snapshot = workload::BuildSnapshot(spec);

  auto build = [&](PtKind kind, os::PteStrategy strategy) {
    MachineOptions opts = base_opts;
    opts.pt_kind = kind;
    opts.tlb_kind = TlbKind::kSinglePage;
    opts.strategy = strategy;
    auto machine = std::make_unique<Machine>(opts, static_cast<unsigned>(spec.processes.size()));
    machine->Preload(snapshot);
    return machine;
  };

  m.workload = spec.name;
  m.rng_seed = spec.seed;
  {
    auto machine = build(config.pt_kind, config.strategy);
    m.options = machine->options();
    m.bytes = machine->TotalPtBytesPaperModel();
    for (unsigned p = 0; p < machine->num_processes(); ++p) {
      const auto census = machine->address_space(p).Census();
      m.census.base_blocks += census.base_blocks;
      m.census.super_blocks += census.super_blocks;
      m.census.psb_blocks += census.psb_blocks;
      m.census.mixed_blocks += census.mixed_blocks;
    }
  }
  {
    auto hashed = build(PtKind::kHashed, os::PteStrategy::kBaseOnly);
    m.hashed_bytes = hashed->TotalPtBytesPaperModel();
  }
  m.normalized = m.hashed_bytes == 0
                     ? 0.0
                     : static_cast<double>(m.bytes) / static_cast<double>(m.hashed_bytes);
  m.host_perf = perf.Stop();
  m.wall_seconds = m.host_perf.wall_seconds;
  return m;
}

namespace {

obs::SegmentClass SegmentClassOf(workload::SegmentKind kind) {
  switch (kind) {
    case workload::SegmentKind::kText:
      return obs::SegmentClass::kText;
    case workload::SegmentKind::kHeap:
      return obs::SegmentClass::kHeap;
    case workload::SegmentKind::kData:
      return obs::SegmentClass::kData;
    case workload::SegmentKind::kMmap:
      return obs::SegmentClass::kMmap;
    case workload::SegmentKind::kStack:
      return obs::SegmentClass::kStack;
    case workload::SegmentKind::kUnknown:
      return obs::SegmentClass::kUnknown;
  }
  return obs::SegmentClass::kUnknown;
}

// Registers every spec segment's VPN range under the VPNs the Machine will
// actually put in walk events.  With a shared page table those are effective
// (asid-salted) addresses; the salt only flips bits above any segment span,
// so applying it to the base relocates the whole range intact.
obs::SegmentMap BuildSegmentMap(const workload::WorkloadSpec& spec, bool shared_page_table) {
  obs::SegmentMap map;
  for (std::size_t p = 0; p < spec.processes.size(); ++p) {
    const auto asid = static_cast<std::uint16_t>(p);
    for (const workload::Segment& seg : spec.processes[p].segments) {
      const VirtAddr base =
          shared_page_table
              ? VirtAddr{seg.base.raw() ^ (std::uint64_t{asid} << 49)}
              : seg.base;
      const Vpn begin = VpnOf(base);
      map.Add(asid, begin, begin + seg.span_pages, SegmentClassOf(seg.kind));
    }
  }
  return map;
}

}  // namespace

CollectTracers::CollectTracers(const workload::WorkloadSpec& spec, bool shared_page_table,
                               obs::WalkTracer* forward)
    : segments(BuildSegmentMap(spec, shared_page_table)),
      stats(forward),
      attribution(&segments, &stats) {}

AccessMeasurement MeasureAccessTime(const workload::WorkloadSpec& spec, MachineOptions opts,
                                    std::uint64_t trace_len, const MeasureHooks& hooks) {
  if (trace_len == 0) {
    trace_len = spec.default_trace_length;
  }
  AccessMeasurement m;
  obs::HostPerfCounters perf;
  const auto close_phase = [&m](const char* name, std::uint64_t work,
                                obs::HostPerfSample sample) {
    PhasePerf phase;
    phase.name = name;
    phase.work = work;
    phase.wall_seconds = sample.wall_seconds;
    if (sample.wall_seconds > 0.0) {
      phase.work_per_sec = static_cast<double>(work) / sample.wall_seconds;
    }
    phase.host = std::move(sample);
    m.phases.push_back(std::move(phase));
  };

  perf.Start();
  const workload::Snapshot snapshot = workload::BuildSnapshot(spec);
  std::uint64_t snapshot_pages = 0;
  for (const auto& proc_pages : snapshot.pages) {
    for (const auto& seg_pages : proc_pages) {
      snapshot_pages += seg_pages.size();
    }
  }
  close_phase("snapshot_build", snapshot_pages, perf.Stop());

  perf.Start();
  Machine machine(opts, static_cast<unsigned>(spec.processes.size()));
  machine.Preload(snapshot);
  const std::uint64_t preload_faults = machine.TotalPageFaults();
  const std::uint64_t preload_oom_faults = machine.TotalOomFaults();
  const std::uint64_t preload_broken = machine.frames().reservations_broken();
  close_phase("preload", preload_faults, perf.Stop());

  // Attach after Preload: events describe the measured trace, not the
  // preload fault storm.
  CollectTracers collect(spec, opts.shared_page_table, hooks.tracer);
  if (hooks.collect) {
    machine.AttachTracer(collect.head());
  } else if (hooks.tracer != nullptr) {
    machine.AttachTracer(hooks.tracer);
  }

  workload::TraceGenerator gen(spec, snapshot);
  perf.Start();
  for (std::uint64_t done = 0; done < trace_len;) {
    const workload::Run run = gen.NextRun(trace_len - done);
    machine.AccessRun(run);
    done += run.count;
  }
  m.host_perf = perf.Stop();
  m.wall_seconds = m.host_perf.wall_seconds;
  close_phase("run", trace_len, m.host_perf);

  m.workload = spec.name;
  m.avg_lines_per_miss = machine.AvgLinesPerMiss();
  m.denominator_misses = machine.DenominatorMisses();
  m.effective_misses = machine.tlb().stats().misses;
  m.block_misses = machine.tlb().stats().block_misses;
  m.subblock_misses = machine.tlb().stats().subblock_misses;
  m.trace_refs = trace_len;
  m.miss_ratio = machine.tlb().stats().MissRatio();
  m.pt_bytes = machine.TotalPtBytesPaperModel();
  m.page_faults = machine.TotalPageFaults() - preload_faults;
  m.oom_faults = machine.TotalOomFaults() - preload_oom_faults;
  m.reservations_broken = machine.frames().reservations_broken() - preload_broken;
  m.rng_seed = spec.seed;
  m.options = machine.options();
  if (m.wall_seconds > 0.0) {
    m.refs_per_sec = static_cast<double>(trace_len) / m.wall_seconds;
    m.misses_per_sec = static_cast<double>(m.effective_misses) / m.wall_seconds;
  }
  if (hooks.collect) {
    m.telemetry_valid = true;
    m.chain_length = collect.stats.chain_length();
    m.lines_per_walk = collect.stats.lines_per_walk();
    m.events = collect.stats.counts();
    m.attribution = collect.attribution.Result();
  }
  if (opts.audit) {
    const check::AuditReport audit = machine.AuditAll();
    m.audit_defects = audit.defects.size();
    m.audit_summary = audit.Summary();
  }
  return m;
}

std::vector<std::string> TraceWorkloadNames() {
  return {"coral", "nasa7", "compress", "fftpde", "wave5",
          "mp3d",  "spice", "pthor",    "ml",     "gcc"};
}

std::vector<std::string> AllWorkloadNames() {
  auto names = TraceWorkloadNames();
  names.push_back("kernel");
  return names;
}

}  // namespace cpt::sim
