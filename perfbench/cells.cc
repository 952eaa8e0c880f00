// The benchmark's workloads and the exact-output checks on their cells.
#include <algorithm>
#include <cstdarg>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "perfbench/perfbench.h"

namespace cpt::perfbench {
namespace {

using sim::PtKind;
using sim::TlbKind;

struct Series {
  const char* label;
  PtKind kind;
};

struct Figure11 {
  const char* name;
  TlbKind tlb;
  Series series[4];
};

// The four panels exactly as bench/bench_fig11{a,b,c,d}.cc run them.
const Figure11 kFigure11[] = {
    {"fig11a",
     TlbKind::kSinglePage,
     {{"linear", PtKind::kLinear1},
      {"fwd-mapped", PtKind::kForward},
      {"hashed", PtKind::kHashed},
      {"clustered", PtKind::kClustered}}},
    {"fig11b",
     TlbKind::kSuperpage,
     {{"linear", PtKind::kLinear1},
      {"fwd-mapped", PtKind::kForward},
      {"hashed-2tbl", PtKind::kHashedMulti},
      {"clustered", PtKind::kClustered}}},
    {"fig11c",
     TlbKind::kPartialSubblock,
     {{"linear", PtKind::kLinear1},
      {"fwd-mapped", PtKind::kForward},
      {"hashed-2tbl", PtKind::kHashedMulti},
      {"clustered", PtKind::kClustered}}},
    {"fig11d",
     TlbKind::kCompleteSubblock,
     {{"linear", PtKind::kLinear1},
      {"fwd-mapped", PtKind::kForward},
      {"hashed", PtKind::kHashed},
      {"clustered", PtKind::kClustered}}},
};

// The Figure 9 and Figure 10 configurations of bench/bench_fig9.cc and
// bench/bench_fig10.cc.
const sim::SizeConfig kFig9[] = {
    {"linear-6level", PtKind::kLinear6, os::PteStrategy::kBaseOnly},
    {"linear-1level", PtKind::kLinear1, os::PteStrategy::kBaseOnly},
    {"forward-mapped", PtKind::kForward, os::PteStrategy::kBaseOnly},
    {"hashed", PtKind::kHashed, os::PteStrategy::kBaseOnly},
    {"clustered", PtKind::kClustered, os::PteStrategy::kBaseOnly},
    {"clustered-adaptive", PtKind::kClusteredAdaptive, os::PteStrategy::kBaseOnly},
};
const sim::SizeConfig kFig10[] = {
    {"linear-1level", PtKind::kLinear1, os::PteStrategy::kBaseOnly},
    {"clustered", PtKind::kClustered, os::PteStrategy::kBaseOnly},
    {"clustered+SP", PtKind::kClustered, os::PteStrategy::kSuperpage},
    {"clustered+PSB", PtKind::kClustered, os::PteStrategy::kPartialSubblock},
    {"hashed+SP", PtKind::kHashedMulti, os::PteStrategy::kSuperpage},
};

const workload::WorkloadSpec* AddSpec(Workload& w, const std::string& name) {
  workload::WorkloadSpec spec = workload::GetPaperWorkload(name);
  spec.seed += w.input_set * kHeldOutSeedShift;
  w.specs.push_back(std::move(spec));
  return &w.specs.back();
}

void MakeFig11Suite(Workload& w) {
  for (const Figure11& fig : kFigure11) {
    for (const std::string& name : sim::TraceWorkloadNames()) {
      const workload::WorkloadSpec* spec = AddSpec(w, name);
      for (const Series& s : fig.series) {
        ReplayCell cell;
        cell.key = std::string(fig.name) + "/" + name + "/" + s.label;
        cell.spec = spec;
        cell.opts.pt_kind = s.kind;
        cell.opts.tlb_kind = fig.tlb;
        cell.trace_len = kFig11TraceLen;
        cell.collect = true;
        if (s.kind != PtKind::kLinear1) {
          cell.invariant_group = std::string(fig.name) + "/" + name;
        }
        w.replays.push_back(std::move(cell));
      }
    }
  }
}

void MakeReplayLocal(Workload& w) {
  for (const char* name : {"gcc", "ml", "spice", "pthor"}) {
    ReplayCell cell;
    cell.key = std::string("local/") + name + "/clustered";
    cell.spec = AddSpec(w, name);
    cell.trace_len = cell.spec->default_trace_length;
    w.replays.push_back(std::move(cell));
  }
}

void MakeBuildSweep(Workload& w) {
  for (const std::string& name : sim::AllWorkloadNames()) {
    const workload::WorkloadSpec* spec = AddSpec(w, name);
    for (const sim::SizeConfig& c : kFig9) {
      w.sizes.push_back({"fig9/" + name + "/" + c.label, spec, c});
    }
    for (const sim::SizeConfig& c : kFig10) {
      w.sizes.push_back({"fig10/" + name + "/" + c.label, spec, c});
    }
  }
}

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

std::string ReplayLineOf(const std::string& key, std::uint64_t refs, std::uint64_t denominator,
                         std::uint64_t effective, double lines_per_miss, std::uint64_t block,
                         std::uint64_t subblock, std::uint64_t pt_bytes) {
  // %.17g round-trips a double, so equal strings mean bit-equal values.
  return Format("%s refs=%" PRIu64 " denominator_misses=%" PRIu64 " effective_misses=%" PRIu64
                " avg_lines_per_miss=%.17g block_misses=%" PRIu64 " subblock_misses=%" PRIu64
                " pt_bytes=%" PRIu64,
                key.c_str(), refs, denominator, effective, lines_per_miss, block, subblock,
                pt_bytes);
}

std::string SizeLineOf(const std::string& key, std::uint64_t bytes, std::uint64_t hashed_bytes,
                       const os::AddressSpace::BlockCensus& c) {
  return Format("%s bytes=%" PRIu64 " hashed_bytes=%" PRIu64 " base_blocks=%" PRIu64
                " super_blocks=%" PRIu64 " psb_blocks=%" PRIu64 " mixed_blocks=%" PRIu64,
                key.c_str(), bytes, hashed_bytes, c.base_blocks, c.super_blocks, c.psb_blocks,
                c.mixed_blocks);
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = name;
  w->input_set = seed % kInputSets;
  if (name == "fig11-suite") {
    MakeFig11Suite(*w);
  } else if (name == "replay-local") {
    MakeReplayLocal(*w);
  } else if (name == "build-sweep") {
    MakeBuildSweep(*w);
  } else {
    return nullptr;
  }
  return w;
}

std::string ReplayLine(const std::string& key, const sim::AccessMeasurement& m) {
  return ReplayLineOf(key, m.trace_refs, m.denominator_misses, m.effective_misses,
                      m.avg_lines_per_miss, m.block_misses, m.subblock_misses, m.pt_bytes);
}

std::string ReplayLine(const std::string& key, const sim::Machine& m, std::uint64_t refs) {
  const tlb::TlbStats& s = m.tlb().stats();
  return ReplayLineOf(key, refs, m.DenominatorMisses(), s.misses, m.AvgLinesPerMiss(),
                      s.block_misses, s.subblock_misses, m.TotalPtBytesPaperModel());
}

std::string SizeLine(const std::string& key, const sim::SizeMeasurement& m) {
  return SizeLineOf(key, m.bytes, m.hashed_bytes, m.census);
}

void ReadMeasured(sim::Machine& measured, sim::SizeMeasurement& out) {
  out.bytes = measured.TotalPtBytesPaperModel();
  out.census = {};
  for (unsigned p = 0; p < measured.num_processes(); ++p) {
    const auto c = measured.address_space(p).Census();
    out.census.base_blocks += c.base_blocks;
    out.census.super_blocks += c.super_blocks;
    out.census.psb_blocks += c.psb_blocks;
    out.census.mixed_blocks += c.mixed_blocks;
  }
}

bool LoadReferences(const std::string& path, References& out) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "perfbench: cannot read reference file " << path << "\n";
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    out[line.substr(0, line.find(' '))] = line;
  }
  return true;
}

bool MatchesReference(const References& refs, const std::string& key, const std::string& line) {
  const auto it = refs.find(key);
  if (it == refs.end()) {
    std::cerr << "perfbench: no reference for " << key << "\n";
    return false;
  }
  if (it->second != line) {
    std::cerr << "perfbench: output mismatch\n  expected: " << it->second
              << "\n  got:      " << line << "\n";
    return false;
  }
  return true;
}

void ReplayOn(sim::Machine& machine, const ReplayCell& cell, const workload::Snapshot& snapshot) {
  workload::TraceGenerator gen(*cell.spec, snapshot);
  for (std::uint64_t i = 0; i < cell.trace_len; ++i) {
    const workload::Reference ref = gen.Next();
    machine.Access(ref.asid, ref.va, ref.is_write);
  }
}

sim::MachineOptions SizedOptions(sim::PtKind kind, os::PteStrategy strategy) {
  sim::MachineOptions opts;
  opts.pt_kind = kind;
  opts.tlb_kind = TlbKind::kSinglePage;
  opts.strategy = strategy;
  return opts;
}

void CellHealth::Add(const CellHealth& o) {
  faults += o.faults;
  oom_faults += o.oom_faults;
  placement_failures += o.placement_failures;
  promotions += o.promotions;
  psb_updates += o.psb_updates;
  defects += o.defects;
}

CellHealth HealthOf(sim::Machine& m) {
  CellHealth h;
  for (unsigned p = 0; p < m.num_processes(); ++p) {
    const os::AddressSpace::Stats& s = m.address_space(p).stats();
    h.faults += s.faults;
    h.oom_faults += s.oom_faults;
    h.placement_failures += s.placement_failures;
    h.promotions += s.promotions;
    h.psb_updates += s.psb_updates;
  }
  const check::AuditReport audit = m.AuditAll();
  h.defects = audit.defects.size();
  if (!audit.ok()) {
    std::cerr << "perfbench: audit defects:\n" << audit.Summary() << "\n";
  }
  return h;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace cpt::perfbench
