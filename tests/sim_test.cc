// Tests for the simulation layer: Machine access paths, analytic formulae
// against structural sizes, experiment plumbing, and report formatting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <utility>

#include "collect_chain.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "sim/analytic.h"
#include "sim/experiments.h"
#include "sim/machine.h"
#include "sim/report.h"
#include "sim/serialize.h"
#include "workload/workload.h"

namespace cpt::sim {
namespace {

TEST(MachineTest, AccessFaultsThenHits) {
  MachineOptions opts;
  opts.pt_kind = PtKind::kClustered;
  Machine m(opts, 1);
  m.Access(0, VaOf(Vpn{0x100}));  // Cold: TLB miss + page fault.
  EXPECT_EQ(m.TotalPageFaults(), 1u);
  EXPECT_EQ(m.tlb().stats().misses, 1u);
  m.Access(0, VaOf(Vpn{0x100}));  // Warm: TLB hit.
  EXPECT_EQ(m.tlb().stats().hits, 1u);
  EXPECT_EQ(m.tlb().stats().misses, 1u);
}

TEST(MachineTest, ColdFaultWalksAreNotCounted) {
  MachineOptions opts;
  opts.pt_kind = PtKind::kHashed;
  Machine m(opts, 1);
  m.Access(0, VaOf(Vpn{0x100}));
  // Exactly one counted walk (the successful one after fault handling).
  EXPECT_EQ(m.cache().total_walks(), 1u);
}

TEST(MachineTest, PreloadMakesTraceFaultFree) {
  const auto& spec = workload::GetPaperWorkload("mp3d");
  const auto snap = workload::BuildSnapshot(spec);
  MachineOptions opts;
  opts.pt_kind = PtKind::kClustered;
  Machine m(opts, 1);
  m.Preload(snap);
  const std::uint64_t preload_faults = m.TotalPageFaults();
  EXPECT_EQ(preload_faults, snap.TotalPages());
  workload::TraceGenerator gen(spec, snap);
  for (int i = 0; i < 20000; ++i) {
    const auto r = gen.Next();
    m.Access(r.asid, r.va);
  }
  EXPECT_EQ(m.TotalPageFaults(), preload_faults) << "no demand faults after preload";
}

TEST(MachineTest, LinearUsesReferenceTlbDenominator) {
  MachineOptions opts;
  opts.pt_kind = PtKind::kLinear1;
  Machine m(opts, 1);
  // Touch more pages than the effective TLB holds; the reference TLB (64
  // entries) must miss at most as often as the 56-entry effective TLB.
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < 60; ++i) {
      m.Access(0, VaOf(Vpn{0x1000 + i}));
    }
  }
  EXPECT_LE(m.DenominatorMisses(), m.tlb().stats().misses);
  EXPECT_GT(m.DenominatorMisses(), 0u);
  // Lines counted on effective misses over reference misses => >= 1.
  EXPECT_GE(m.AvgLinesPerMiss(), 1.0);
}

TEST(MachineTest, CompleteSubblockPrefetchEliminatesResidentSubblockMisses) {
  MachineOptions opts;
  opts.pt_kind = PtKind::kClustered;
  opts.tlb_kind = TlbKind::kCompleteSubblock;
  opts.prefetch_on_block_miss = true;
  Machine m(opts, 1);
  // Make a full block resident.
  for (unsigned i = 0; i < 16; ++i) {
    m.Access(0, VaOf(Vpn{0x100} + i));
  }
  m.tlb().Flush();
  m.tlb().ResetStats();
  // One block miss loads all 16 mappings; the rest hit.
  for (unsigned i = 0; i < 16; ++i) {
    m.Access(0, VaOf(Vpn{0x100} + i));
  }
  EXPECT_EQ(m.tlb().stats().block_misses, 1u);
  EXPECT_EQ(m.tlb().stats().subblock_misses, 0u);
  EXPECT_EQ(m.tlb().stats().hits, 15u);
}

TEST(MachineTest, CompleteSubblockWithoutPrefetchTakesSubblockMisses) {
  MachineOptions opts;
  opts.pt_kind = PtKind::kClustered;
  opts.tlb_kind = TlbKind::kCompleteSubblock;
  opts.prefetch_on_block_miss = false;
  Machine m(opts, 1);
  for (unsigned i = 0; i < 16; ++i) {
    m.Access(0, VaOf(Vpn{0x100} + i));
  }
  m.tlb().Flush();
  m.tlb().ResetStats();
  for (unsigned i = 0; i < 16; ++i) {
    m.Access(0, VaOf(Vpn{0x100} + i));
  }
  EXPECT_EQ(m.tlb().stats().block_misses, 1u);
  EXPECT_EQ(m.tlb().stats().subblock_misses, 15u);
}

TEST(MachineTest, SuperpageTlbReducesMissesVersusSinglePage) {
  const auto& spec = workload::GetPaperWorkload("nasa7");
  MachineOptions single;
  single.pt_kind = PtKind::kClustered;
  single.tlb_kind = TlbKind::kSinglePage;
  const auto a = MeasureAccessTime(spec, single, 300000);
  MachineOptions super;
  super.pt_kind = PtKind::kClustered;
  super.tlb_kind = TlbKind::kSuperpage;
  const auto b = MeasureAccessTime(spec, super, 300000);
  // The paper reports 50-99% miss reductions from superpages.
  EXPECT_LT(b.denominator_misses, a.denominator_misses / 2)
      << "superpages must cut misses by >50% on nasa7";
}

TEST(MachineTest, PerProcessPageTablesAreIsolated) {
  MachineOptions opts;
  opts.pt_kind = PtKind::kClustered;
  Machine m(opts, 2);
  m.Access(0, VaOf(Vpn{0x100}));
  EXPECT_EQ(m.page_table(0).live_translations(), 1u);
  EXPECT_EQ(m.page_table(1).live_translations(), 0u);
  m.Access(1, VaOf(Vpn{0x100}));
  EXPECT_EQ(m.page_table(1).live_translations(), 1u);
}

// Collect mode replays the trace run by run, so each run's settled tail
// reaches the tracer chain as one batched kTlbHit (RecordRepeat).  Its
// telemetry must equal a per-reference Access replay carrying the same
// chain: attribution, both histograms, event counts and the event stream.
TEST(MeasureAccessTimeTest, CollectMatchesPerReferenceReplay) {
  constexpr std::uint64_t kRefs = 100000;
  for (const auto& [name, pt, tlb] :
       {std::tuple{"compress", PtKind::kClustered, TlbKind::kSinglePage},
        std::tuple{"mp3d", PtKind::kLinear1, TlbKind::kSinglePage},
        std::tuple{"nasa7", PtKind::kHashedMulti, TlbKind::kSuperpage},
        std::tuple{"gcc", PtKind::kClustered, TlbKind::kCompleteSubblock}}) {
    SCOPED_TRACE(std::string(name) + " " + ToString(pt) + " " + ToString(tlb));
    const auto& spec = workload::GetPaperWorkload(name);
    MachineOptions opts;
    opts.pt_kind = pt;
    opts.tlb_kind = tlb;
    obs::RingBufferTracer run_ring(1 << 18);
    const AccessMeasurement m =
        MeasureAccessTime(spec, opts, kRefs, {.tracer = &run_ring, .collect = true});
    ASSERT_TRUE(m.telemetry_valid);

    const auto snap = workload::BuildSnapshot(spec);
    Machine ref(opts, static_cast<unsigned>(spec.processes.size()));
    ref.Preload(snap);
    testutil::CollectChain chain(spec, opts.shared_page_table);
    ref.AttachTracer(chain.head());
    workload::TraceGenerator gen(spec, snap);
    for (std::uint64_t i = 0; i < kRefs; ++i) {
      const auto r = gen.Next();
      ref.Access(r.asid, r.va, r.is_write);
    }

    EXPECT_EQ(m.denominator_misses, ref.DenominatorMisses());
    EXPECT_EQ(m.effective_misses, ref.tlb().stats().misses);
    EXPECT_EQ(m.avg_lines_per_miss, ref.AvgLinesPerMiss());
    EXPECT_GT(m.attribution.walks, 0u);
    testutil::ExpectSameAttribution(m.attribution, chain.tracers.attribution.Result());
    testutil::ExpectSameHistogram(m.chain_length, chain.tracers.stats.chain_length());
    testutil::ExpectSameHistogram(m.lines_per_walk, chain.tracers.stats.lines_per_walk());
    testutil::ExpectSameCounts(m.events, chain.tracers.stats.counts());
    EXPECT_EQ(run_ring.dropped(), 0u) << "the ring must hold the whole stream";
    testutil::ExpectSameRing(run_ring, chain.ring);
  }
}

// ---------------------------------------------------------------------------
// Analytic formulae (Table 2) against structural simulation.
// ---------------------------------------------------------------------------

// Memory pressure: too few frames for the working set, so reservations
// break and references are dropped.  The run replay of MeasureAccessTime
// and a per-reference replay must still agree on every count, including
// the drops, and both must audit clean (with the shadow oracle).  The
// report says so: the JSON carries oom_faults (and reservations_broken,
// when nonzero), and the Figure 11 cell is marked.  Under the
// partial-subblock TLB, the replicated tables (linear, forward-mapped)
// hold PSB replicas for placed pages and base PTEs for unplaced ones.
// (A preload fills blocks in order, so no block ends up mixed; the
// straggler case is OsStragglerTest's.)
TEST(MemoryPressureTest, RunReplayMatchesPerReferenceReplayWhenReferencesDrop) {
  const auto& spec = workload::GetPaperWorkload("compress");
  const auto snap = workload::BuildSnapshot(spec);
  constexpr std::uint64_t kRefs = 100000;
  const std::pair<PtKind, TlbKind> kCases[] = {
      {PtKind::kClustered, TlbKind::kSinglePage},
      {PtKind::kClustered, TlbKind::kPartialSubblock},
      {PtKind::kClustered, TlbKind::kCompleteSubblock},
      {PtKind::kLinear1, TlbKind::kPartialSubblock},
      {PtKind::kForward, TlbKind::kPartialSubblock},
  };
  for (const auto& [pt_kind, tlb] : kCases) {
    SCOPED_TRACE(ToString(pt_kind) + " / " + ToString(tlb));
    MachineOptions opts;
    opts.pt_kind = pt_kind;
    opts.tlb_kind = tlb;
    opts.phys_frames = snap.TotalPages() / 2;
    opts.audit = true;
    const AccessMeasurement m = MeasureAccessTime(spec, opts, kRefs);

    Machine ref(opts, static_cast<unsigned>(spec.processes.size()));
    ref.Preload(snap);
    const std::uint64_t preload_faults = ref.TotalPageFaults();
    const std::uint64_t preload_oom_faults = ref.TotalOomFaults();
    const std::uint64_t preload_broken = ref.frames().reservations_broken();
    workload::TraceGenerator gen(spec, snap);
    for (std::uint64_t i = 0; i < kRefs; ++i) {
      const auto r = gen.Next();
      ref.Access(r.asid, r.va, r.is_write);
    }

    EXPECT_GT(ref.frames().reservations_broken(), 0u);
    EXPECT_GT(m.oom_faults, 0u) << "the trace must drop references";
    EXPECT_EQ(m.oom_faults, ref.TotalOomFaults() - preload_oom_faults);
    EXPECT_EQ(m.reservations_broken, ref.frames().reservations_broken() - preload_broken);
    // Every steal happens in Preload: a fault finds no frame only once no
    // reservation is left to break, and the trace frees no frame.
    EXPECT_EQ(m.reservations_broken, 0u);
    EXPECT_EQ(m.page_faults, ref.TotalPageFaults() - preload_faults);
    EXPECT_EQ(m.denominator_misses, ref.DenominatorMisses());
    EXPECT_EQ(m.effective_misses, ref.tlb().stats().misses);
    EXPECT_EQ(m.block_misses, ref.tlb().stats().block_misses);
    EXPECT_EQ(m.subblock_misses, ref.tlb().stats().subblock_misses);
    EXPECT_EQ(m.avg_lines_per_miss, ref.AvgLinesPerMiss());
    EXPECT_EQ(m.audit_defects, 0u) << m.audit_summary;
    const check::AuditReport audit = ref.AuditAll();
    EXPECT_TRUE(audit.ok()) << audit.Summary();
    // The report says references were dropped.
    std::ostringstream json;
    {
      obs::JsonWriter w(json, /*pretty=*/false);
      ToJson(w, m);
    }
    EXPECT_NE(json.str().find("\"oom_faults\":" + std::to_string(m.oom_faults)), std::string::npos)
        << json.str().substr(0, 300);
    EXPECT_EQ(json.str().find("reservations_broken"), std::string::npos)
        << "written only when nonzero";
    AccessMeasurement stolen = m;
    stolen.reservations_broken = 3;
    std::ostringstream stolen_json;
    {
      obs::JsonWriter w(stolen_json, /*pretty=*/false);
      ToJson(w, stolen);
    }
    EXPECT_NE(stolen_json.str().find("\"reservations_broken\":3"), std::string::npos);
    // The Figure 11 cell is marked.
    EXPECT_EQ(LinesPerMissCell(m), Report::Fixed(m.avg_lines_per_miss, 2) + "*");
    AccessMeasurement clean = m;
    clean.oom_faults = 0;
    EXPECT_EQ(LinesPerMissCell(clean), Report::Fixed(m.avg_lines_per_miss, 2));
  }
}

TEST(AnalyticTest, NactiveCountsAlignedRegions) {
  const std::vector<Vpn> mapped = {Vpn{0}, Vpn{1}, Vpn{15}, Vpn{16}, Vpn{100}, Vpn{4096}};
  EXPECT_EQ(analytic::Nactive(mapped, 1), 6u);
  EXPECT_EQ(analytic::Nactive(mapped, 16), 4u);   // {0,1,15}, {16}, {100}, {4096}.
  EXPECT_EQ(analytic::Nactive(mapped, 4096), 2u);  // {0..4095}, {4096}.
}

TEST(AnalyticTest, HashedFormulaExact) {
  const std::vector<Vpn> mapped = {Vpn{1}, Vpn{2}, Vpn{3}, Vpn{100}, Vpn{5000}};
  EXPECT_EQ(analytic::HashedBytes(mapped), 5u * 24);
}

TEST(AnalyticTest, ClusteredFormulaExact) {
  const std::vector<Vpn> mapped = {Vpn{0}, Vpn{1}, Vpn{2}, Vpn{16}, Vpn{33}};
  // Blocks {0},{1},{2} with s=16 -> 3 * (8*16+16) = 432.
  EXPECT_EQ(analytic::ClusteredBytes(mapped, 16), 3u * 144);
}

TEST(AnalyticTest, ClusteredWithSpInterpolates) {
  const std::vector<Vpn> mapped = {Vpn{0}, Vpn{16}, Vpn{32}, Vpn{48}};  // 4 blocks.
  EXPECT_DOUBLE_EQ(analytic::ClusteredWithSpBytes(mapped, 16, 0.0), 4.0 * 144);
  EXPECT_DOUBLE_EQ(analytic::ClusteredWithSpBytes(mapped, 16, 1.0), 4.0 * 24);
  EXPECT_DOUBLE_EQ(analytic::ClusteredWithSpBytes(mapped, 16, 0.5), 2.0 * 144 + 2.0 * 24);
}

TEST(AnalyticTest, AccessFormulae) {
  EXPECT_DOUBLE_EQ(analytic::HashChainLines(1.0), 1.5);
  EXPECT_DOUBLE_EQ(analytic::LinearLines(0.1, 2.0), 1.2);
  EXPECT_DOUBLE_EQ(analytic::ForwardLines(), 7.0);
}

// Property: the closed forms match the structural tables exactly on every
// paper workload (the accounting is exact for these four organizations).
TEST(AnalyticStructuralTest, FormulaeMatchBuiltTables) {
  for (const char* name : {"coral", "gcc", "compress", "kernel"}) {
    const auto& spec = workload::GetPaperWorkload(name);
    const auto snap = workload::BuildSnapshot(spec);
    std::uint64_t eq_hashed = 0;
    std::uint64_t eq_clustered = 0;
    std::uint64_t eq_linear6 = 0;
    std::uint64_t eq_forward = 0;
    for (std::size_t p = 0; p < snap.pages.size(); ++p) {
      const auto mapped = snap.FlatProcess(p);
      eq_hashed += analytic::HashedBytes(mapped);
      eq_clustered += analytic::ClusteredBytes(mapped, 16);
      eq_linear6 += analytic::MultiLevelLinearBytes(mapped);
      eq_forward += analytic::ForwardMappedBytes(mapped);
    }
    EXPECT_EQ(MeasurePtSize(spec, {"h", PtKind::kHashed}).bytes, eq_hashed) << name;
    EXPECT_EQ(MeasurePtSize(spec, {"c", PtKind::kClustered}).bytes, eq_clustered) << name;
    EXPECT_EQ(MeasurePtSize(spec, {"l", PtKind::kLinear6}).bytes, eq_linear6) << name;
    EXPECT_EQ(MeasurePtSize(spec, {"f", PtKind::kForward}).bytes, eq_forward) << name;
  }
}

// ---------------------------------------------------------------------------
// Paper-shape integration tests: the headline claims, asserted.
// ---------------------------------------------------------------------------

TEST(PaperShapeTest, Figure9ClusteredBeatsHashedEverywhere) {
  for (const auto& name : AllWorkloadNames()) {
    const auto& spec = workload::GetPaperWorkload(name);
    const auto m = MeasurePtSize(spec, {"clustered", PtKind::kClustered});
    EXPECT_LT(m.normalized, 1.0) << name;
  }
}

TEST(PaperShapeTest, Figure9LinearExplodesForSparseWorkloads) {
  for (const char* name : {"gcc", "compress"}) {
    const auto& spec = workload::GetPaperWorkload(name);
    const auto m = MeasurePtSize(spec, {"linear6", PtKind::kLinear6});
    EXPECT_GT(m.normalized, 3.0) << name;
  }
}

TEST(PaperShapeTest, Figure10PsbCutsClusteredSize) {
  const auto& spec = workload::GetPaperWorkload("coral");
  const auto base = MeasurePtSize(spec, {"c", PtKind::kClustered});
  const auto psb =
      MeasurePtSize(spec, {"p", PtKind::kClustered, os::PteStrategy::kPartialSubblock});
  EXPECT_LT(psb.bytes, base.bytes / 3) << "PSB PTEs must cut size by >66% on coral";
}

TEST(PaperShapeTest, Figure11aForwardMappedCostsSevenLines) {
  const auto& spec = workload::GetPaperWorkload("compress");
  MachineOptions opts;
  opts.pt_kind = PtKind::kForward;
  const auto m = MeasureAccessTime(spec, opts, 200000);
  EXPECT_NEAR(m.avg_lines_per_miss, 7.0, 0.05);
}

TEST(PaperShapeTest, Figure11dHashedPaysMultipleProbes) {
  const auto& spec = workload::GetPaperWorkload("mp3d");
  MachineOptions hashed;
  hashed.pt_kind = PtKind::kHashed;
  hashed.tlb_kind = TlbKind::kCompleteSubblock;
  const auto h = MeasureAccessTime(spec, hashed, 200000);
  MachineOptions clustered;
  clustered.pt_kind = PtKind::kClustered;
  clustered.tlb_kind = TlbKind::kCompleteSubblock;
  const auto c = MeasureAccessTime(spec, clustered, 200000);
  EXPECT_GT(h.avg_lines_per_miss, 8.0);
  EXPECT_LT(c.avg_lines_per_miss, 1.5);
}

// ---------------------------------------------------------------------------
// Report formatting.
// ---------------------------------------------------------------------------

TEST(ReportTest, AlignsColumnsAndFormatsCells) {
  Report r({"name", "value"});
  r.AddRow({"x", Report::Fixed(1.5, 2)});
  r.AddRow({"longer-name", Report::Num(42)});
  const std::string s = r.ToString();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_EQ(Report::Kb(2048), "2KB");
}

TEST(ReportDeathTest, AddRowRejectsARowOfTheWrongWidth) {
  Report r({"name", "value"});
  EXPECT_DEATH(r.AddRow({"short"}), "row width");
  EXPECT_DEATH(r.AddRow({"a", "b", "c"}), "row width");
}

TEST(ExperimentsTest, WorkloadNameLists) {
  EXPECT_EQ(TraceWorkloadNames().size(), 10u);
  EXPECT_EQ(AllWorkloadNames().size(), 11u);
  EXPECT_EQ(AllWorkloadNames().back(), "kernel");
}

}  // namespace
}  // namespace cpt::sim
