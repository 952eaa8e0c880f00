// Shared driver for the Figure 11 access-time benches: runs every trace
// workload against a set of page-table kinds under one TLB design and prints
// the paper's metric — average cache lines accessed per TLB miss, normalized
// by the misses of the full-size (64-entry) TLB.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_flags.h"
#include "common/check.h"
#include "sim/experiments.h"
#include "sim/report.h"
#include "workload/workload.h"

namespace cpt::bench {

struct Fig11Series {
  std::string label;
  sim::PtKind pt_kind;
};

inline void RunFig11(BenchIo& io, const char* title, sim::TlbKind tlb_kind,
                     const std::vector<Fig11Series>& series, const char* expectation) {
  std::printf("%s\n    (avg cache lines accessed per TLB miss; 64-entry fully-assoc TLB)\n\n",
              title);
  std::vector<std::string> columns = {"workload", "misses"};
  for (const auto& s : series) {
    columns.push_back(s.label);
  }
  sim::Report report(columns);

  bool dropped_refs = false;
  for (const std::string& name : sim::TraceWorkloadNames()) {
    const workload::WorkloadSpec& spec = workload::GetPaperWorkload(name);
    std::vector<std::string> row = {name};
    bool first = true;
    // The miss stream depends on the TLB and the page-size policy, not on
    // which table serves the walks, so every non-linear series must see
    // the same misses.  (Linear tables reserve TLB entries and differ.)
    std::optional<std::pair<std::uint64_t, std::uint64_t>> nonlinear_misses;
    for (const auto& s : series) {
      sim::MachineOptions opts;
      opts.pt_kind = s.pt_kind;
      opts.tlb_kind = tlb_kind;
      const sim::AccessMeasurement m =
          sim::MeasureAccessTime(spec, opts, /*trace_len=*/0, io.Hooks());
      io.RecordAccess(s.label, m);
      if (!sim::IsLinearTable(s.pt_kind)) {
        const std::pair misses{m.denominator_misses, m.effective_misses};
        if (!nonlinear_misses) {
          nonlinear_misses = misses;
        }
        CPT_CHECK(misses == *nonlinear_misses,
                  "non-linear page tables must see the same TLB miss stream");
      }
      if (first) {
        row.push_back(sim::Report::Num(m.denominator_misses));
        first = false;
      }
      row.push_back(sim::LinesPerMissCell(m));
      dropped_refs |= m.oom_faults > 0;
    }
    report.AddRow(std::move(row));
  }
  io.RecordTable(title, report);
  report.Print();
  if (dropped_refs) {
    std::printf("%s\n", sim::kDroppedRefsFootnote);
  }
  std::printf("\n%s\n", expectation);
}

}  // namespace cpt::bench
