// Table 1: workload characteristics — user TLB misses on a 64-entry
// fully-associative single-page-size TLB, estimated share of time in TLB
// miss handling (40-cycle penalty), and hashed page-table memory.
//
// Absolute miss counts differ from the paper (synthetic traces are shorter
// than full program runs); the TLB-intensity ordering and the hashed
// page-table footprints are the calibrated quantities.
#include <cstdio>

#include "bench/bench_flags.h"
#include "sim/experiments.h"
#include "sim/report.h"
#include "workload/workload.h"

using namespace cpt;
using sim::Report;

int main(int argc, char** argv) {
  bench::BenchIo io("bench_table1", &argc, argv);
  std::printf("=== Table 1: workload characteristics ===\n\n");
  Report report({"workload", "refs", "TLB misses", "miss%", "est time in TLB", "hashed PT",
                 "paper PT"});

  for (const std::string& name : sim::TraceWorkloadNames()) {
    const workload::WorkloadSpec& spec = workload::GetPaperWorkload(name);
    sim::MachineOptions opts;
    opts.pt_kind = sim::PtKind::kHashed;
    opts.tlb_kind = sim::TlbKind::kSinglePage;
    const sim::AccessMeasurement m =
        sim::MeasureAccessTime(spec, opts, /*trace_len=*/0, io.Hooks());
    io.RecordAccess("hashed-single-page", m);

    // Model: 1 cycle per reference plus a 40-cycle TLB miss penalty
    // (Section 6.2's accounting).
    const double miss_cycles = 40.0 * static_cast<double>(m.effective_misses);
    const double pct_tlb =
        100.0 * miss_cycles / (static_cast<double>(m.trace_refs) + miss_cycles);

    std::uint64_t paper_bytes = 0;
    for (const auto& ref : workload::PaperTable1()) {
      if (ref.name == name) {
        paper_bytes = ref.hashed_pt_bytes;
      }
    }
    report.AddRow({name, Report::Num(m.trace_refs), Report::Num(m.effective_misses),
                   Report::Fixed(100.0 * m.miss_ratio, 2), Report::Fixed(pct_tlb, 0) + "%",
                   Report::Kb(m.pt_bytes), Report::Kb(paper_bytes)});
  }

  // The kernel row (size only, as in the paper).
  {
    const workload::WorkloadSpec& spec = workload::GetPaperWorkload("kernel");
    const sim::SizeMeasurement m = sim::MeasurePtSize(
        spec, {"hashed", sim::PtKind::kHashed, os::PteStrategy::kBaseOnly});
    io.RecordSize("hashed", m);
    report.AddRow({"kernel", "-", "-", "-", "-", Report::Kb(m.hashed_bytes),
                   Report::Kb(186 * 1024)});
  }
  io.RecordTable("Table 1: workload characteristics", report);
  report.Print();
  std::printf(
      "\nPaper ordering (most to least TLB-bound): coral, nasa7, compress,\n"
      "fftpde, wave5, mp3d, spice, pthor, ml, gcc.\n");
  return 0;
}
