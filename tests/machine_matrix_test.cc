// Cross-product integration tests: every page-table organization under
// every TLB design (where the combination is meaningful) runs a real
// workload slice through the full machine and must uphold the global
// invariants of the simulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/audit_visitor.h"
#include "check/auditor.h"
#include "collect_chain.h"
#include "machine_combos.h"
#include "obs/trace.h"
#include "sim/analytic.h"
#include "sim/experiments.h"
#include "sim/machine.h"
#include "tlb/partial_subblock.h"
#include "tlb/superpage.h"
#include "workload/workload.h"

namespace cpt::sim {
namespace {

using MatrixParam = std::tuple<PtKind, TlbKind>;

using testutil::CombinationSupported;

class MachineMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(MachineMatrixTest, RunsWorkloadSliceWithInvariantsIntact) {
  const auto [pt, tlb] = GetParam();
  if (!CombinationSupported(pt, tlb)) {
    GTEST_SKIP() << "combination not supported by design";
  }
  MachineOptions opts;
  opts.pt_kind = pt;
  opts.tlb_kind = tlb;
  // Differential oracle: every Insert/Remove is mirrored into a shadow map
  // and every Lookup cross-checked; AuditAll() then verifies the structural
  // invariants of the table, the frame allocator, and the TLB.
  opts.audit = true;
  const auto& spec = workload::GetPaperWorkload("mp3d");
  const AccessMeasurement m = MeasureAccessTime(spec, opts, 60000);

  // Global invariants of any valid run:
  EXPECT_EQ(m.audit_defects, 0u) << m.audit_summary;
  EXPECT_GT(m.denominator_misses, 0u) << "the trace must stress the TLB";
  EXPECT_GE(m.avg_lines_per_miss, 0.99) << "every counted miss touches >= 1 line";
  EXPECT_GT(m.pt_bytes, 0u);
  EXPECT_LE(m.miss_ratio, 1.0);
  if (tlb == TlbKind::kCompleteSubblock) {
    EXPECT_EQ(m.block_misses + m.subblock_misses, m.effective_misses);
  }
  // Known cost ceilings: nothing should cost more than a forward-mapped
  // walk except the hashed family under complete-subblock prefetch
  // (16 independent probes).
  const bool hashed_family = pt == PtKind::kHashed || pt == PtKind::kHashedInverted ||
                             pt == PtKind::kHashedSpIndex || pt == PtKind::kHashedMulti;
  if (!hashed_family) {
    EXPECT_LE(m.avg_lines_per_miss, 8.0) << "unexpectedly expensive walk";
  }
}

class EntryCollector final : public check::TlbAuditVisitor {
 public:
  void OnEntry(const check::TlbEntryView& e) override {
    entries.emplace_back(e.valid, e.asid, e.base_vpn.raw(), e.stamp);
  }
  std::vector<std::tuple<bool, std::uint16_t, std::uint64_t, std::uint64_t>> entries;
};

// The effective TLB's replacement state: every entry's validity, tag and
// LRU stamp, in array order.
std::vector<std::tuple<bool, std::uint16_t, std::uint64_t, std::uint64_t>> LruState(
    const tlb::Tlb& t) {
  EntryCollector c;
  t.AuditVisit(c);
  return std::move(c.entries);
}

// The design's per-class hit share (superpage or PSB hits), else 0.
double ClassHitFraction(const tlb::Tlb& t, TlbKind kind) {
  switch (kind) {
    case TlbKind::kSuperpage:
      return static_cast<const tlb::SuperpageTlb&>(t).SuperpageHitFraction();
    case TlbKind::kPartialSubblock:
      return static_cast<const tlb::PartialSubblockTlb&>(t).SubblockHitFraction();
    case TlbKind::kSinglePage:
    case TlbKind::kCompleteSubblock:
      return 0.0;
  }
  return 0.0;
}

// Replays `n` references of `spec` on two fresh machines built from
// `opts`: one run at a time (NextRun + AccessRun), one reference at a time
// (Next + Access).  Nothing is preloaded, so pages fault inside runs.  With
// `traced`, both machines publish to the collect chain (attribution ->
// histograms -> ring buffer), so the run path's settled tails go through
// WalkTracer::RecordRepeat.  Every simulated count, the TLB's LRU state,
// the R/M bits of every snapshot page and every observable of the chain
// must agree, and both machines must audit clean.
void ExpectRunReplayMatchesAccess(const workload::WorkloadSpec& spec, const MachineOptions& opts,
                                  std::uint64_t n, bool traced) {
  SCOPED_TRACE(traced ? "traced" : "untraced");
  const workload::Snapshot snap = workload::BuildSnapshot(spec);
  const auto procs = static_cast<unsigned>(spec.processes.size());
  Machine by_run(opts, procs);
  Machine by_ref(opts, procs);
  testutil::CollectChain run_events(spec, opts.shared_page_table);
  testutil::CollectChain ref_events(spec, opts.shared_page_table);
  if (traced) {
    by_run.AttachTracer(run_events.head());
    by_ref.AttachTracer(ref_events.head());
  }
  workload::TraceGenerator run_gen(spec, snap);
  for (std::uint64_t done = 0; done < n;) {
    const workload::Run run = run_gen.NextRun(n - done);
    by_run.AccessRun(run);
    done += run.count;
  }
  workload::TraceGenerator ref_gen(spec, snap);
  for (std::uint64_t i = 0; i < n; ++i) {
    const workload::Reference r = ref_gen.Next();
    by_ref.Access(r.asid, r.va, r.is_write);
  }

  const tlb::TlbStats& a = by_run.tlb().stats();
  const tlb::TlbStats& b = by_ref.tlb().stats();
  EXPECT_EQ(a.accesses, n);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.block_misses, b.block_misses);
  EXPECT_EQ(a.subblock_misses, b.subblock_misses);
  EXPECT_EQ(ClassHitFraction(by_run.tlb(), opts.tlb_kind),
            ClassHitFraction(by_ref.tlb(), opts.tlb_kind));
  EXPECT_EQ(LruState(by_run.tlb()), LruState(by_ref.tlb()));
  EXPECT_EQ(by_run.DenominatorMisses(), by_ref.DenominatorMisses());
  EXPECT_EQ(by_run.cache().total_lines(), by_ref.cache().total_lines());
  EXPECT_EQ(by_run.cache().total_walks(), by_ref.cache().total_walks());
  EXPECT_EQ(by_run.TotalPageFaults(), by_ref.TotalPageFaults());
  EXPECT_EQ(by_run.TotalOomFaults(), by_ref.TotalOomFaults());
  // A shared table keys its pages by asid-salted VPNs; the counts above
  // cover it, the per-page walk below needs per-process tables.
  if (!opts.shared_page_table) {
    for (unsigned p = 0; p < procs; ++p) {
      for (const auto& seg_pages : snap.pages[p]) {
        for (const Vpn vpn : seg_pages) {
          ASSERT_EQ(by_run.page_table(p).PeekAttr(vpn), by_ref.page_table(p).PeekAttr(vpn))
              << "R/M bits of proc " << p << " vpn " << vpn.raw();
        }
      }
    }
  }
  if (traced) {
    EXPECT_EQ(run_events.tracers.stats.counts()[obs::EventKind::kTlbHit], b.hits)
        << "one published hit per reference that hit";
    EXPECT_EQ(run_events.ring.dropped(), 0u) << "the ring must hold the whole stream";
    testutil::ExpectSameChain(run_events, ref_events);
  }
  const check::AuditReport run_audit = by_run.AuditAll();
  const check::AuditReport ref_audit = by_ref.AuditAll();
  EXPECT_TRUE(run_audit.ok()) << run_audit.Summary();
  EXPECT_TRUE(ref_audit.ok()) << ref_audit.Summary();
}

TEST_P(MachineMatrixTest, AccessRunMatchesPerReferenceAccess) {
  const auto [pt, tlb] = GetParam();
  if (!CombinationSupported(pt, tlb)) {
    GTEST_SKIP() << "combination not supported by design";
  }
  MachineOptions opts;
  opts.pt_kind = pt;
  opts.tlb_kind = tlb;
  opts.maintain_ref_bits = true;  // Makes each reference's store bit count.
  opts.audit = true;
  // compress interleaves two processes, so runs are also cut by timeslices.
  const auto& spec = workload::GetPaperWorkload("compress");
  ExpectRunReplayMatchesAccess(spec, opts, 60000, /*traced=*/false);
  ExpectRunReplayMatchesAccess(spec, opts, 60000, /*traced=*/true);
}

std::string MatrixName(const ::testing::TestParamInfo<MatrixParam>& info) {
  std::string n = ToString(std::get<0>(info.param)) + "_" + ToString(std::get<1>(info.param));
  for (char& c : n) {
    if (c == '-') {
      c = '_';
    }
  }
  return n;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, MachineMatrixTest,
    ::testing::Combine(::testing::ValuesIn(testutil::kAllPtKinds),
                       ::testing::ValuesIn(testutil::kAllTlbKinds)),
    MatrixName);

// The same matrix under a software TLB layer.
class SwTlbMatrixTest : public ::testing::TestWithParam<PtKind> {};

TEST_P(SwTlbMatrixTest, SoftwareTlbWrapsEveryOrganization) {
  MachineOptions opts;
  opts.pt_kind = GetParam();
  opts.swtlb_sets = 1024;
  // The oracle wraps above the software TLB, so a stale cached fill that
  // escaped write-through invalidation would surface as a defect here.
  opts.audit = true;
  const auto& spec = workload::GetPaperWorkload("compress");
  const AccessMeasurement m = MeasureAccessTime(spec, opts, 60000);
  EXPECT_EQ(m.audit_defects, 0u) << m.audit_summary;
  EXPECT_GT(m.denominator_misses, 0u);
  EXPECT_GE(m.avg_lines_per_miss, 0.99);
}

INSTANTIATE_TEST_SUITE_P(AllPts, SwTlbMatrixTest,
                         ::testing::Values(PtKind::kLinear1, PtKind::kForward, PtKind::kHashed,
                                           PtKind::kHashedMulti, PtKind::kClustered,
                                           PtKind::kClusteredAdaptive),
                         [](const ::testing::TestParamInfo<PtKind>& param_info) {
                           std::string n = ToString(param_info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Shared page table mode (Section 7).
// ---------------------------------------------------------------------------

TEST(SharedTableTest, ProcessesShareOneTableWithoutAliasing) {
  MachineOptions opts;
  opts.pt_kind = PtKind::kClustered;
  opts.shared_page_table = true;
  Machine m(opts, 2);
  m.Access(0, VaOf(Vpn{0x100}));
  m.Access(1, VaOf(Vpn{0x100}));  // Same VA, different process.
  EXPECT_EQ(&m.page_table(0), &m.page_table(1)) << "one shared table";
  EXPECT_EQ(m.page_table(0).live_translations(), 2u)
      << "both processes' pages coexist without aliasing";
  // Each process sees its own translation, and the TLB separates them too.
  m.Access(0, VaOf(Vpn{0x100}));
  m.Access(1, VaOf(Vpn{0x100}));
  EXPECT_EQ(m.tlb().stats().hits, 2u);
}

TEST(SharedTableTest, AccessRunMatchesPerReferenceAccess) {
  MachineOptions opts;
  opts.pt_kind = PtKind::kClustered;
  opts.shared_page_table = true;
  opts.maintain_ref_bits = true;
  const auto& spec = workload::GetPaperWorkload("compress");
  ExpectRunReplayMatchesAccess(spec, opts, 60000, /*traced=*/false);
  ExpectRunReplayMatchesAccess(spec, opts, 60000, /*traced=*/true);
}

TEST(SharedTableTest, SharedHashedLoadGrowsWithProcessCount) {
  const auto& spec = workload::GetPaperWorkload("compress");
  const auto snap = workload::BuildSnapshot(spec);
  MachineOptions per;
  per.pt_kind = PtKind::kHashed;
  MachineOptions shared = per;
  shared.shared_page_table = true;
  Machine a(per, 2);
  a.Preload(snap);
  Machine b(shared, 2);
  b.Preload(snap);
  // Same total PTE bytes, but one table holds them all.
  EXPECT_EQ(a.TotalPtBytesPaperModel(), b.TotalPtBytesPaperModel());
  EXPECT_EQ(b.page_table(0).live_translations(),
            a.page_table(0).live_translations() + a.page_table(1).live_translations());
}

TEST(SharedTableTest, WorksAcrossTraceRun) {
  const auto& spec = workload::GetPaperWorkload("gcc");
  MachineOptions opts;
  opts.pt_kind = PtKind::kClustered;
  opts.shared_page_table = true;
  const AccessMeasurement m = MeasureAccessTime(spec, opts, 100000);
  EXPECT_GT(m.denominator_misses, 0u);
  EXPECT_GE(m.avg_lines_per_miss, 0.99);
  EXPECT_LE(m.avg_lines_per_miss, 2.0);
}

// ---------------------------------------------------------------------------
// Linear-with-hashed size model (Table 2 row).
// ---------------------------------------------------------------------------

TEST(LinearHashedTest, SizeMatchesTable2Formula) {
  for (const char* name : {"coral", "gcc"}) {
    const auto& spec = workload::GetPaperWorkload(name);
    const auto snap = workload::BuildSnapshot(spec);
    std::uint64_t expected = 0;
    for (std::size_t p = 0; p < snap.pages.size(); ++p) {
      expected += analytic::LinearWithHashedBytes(snap.FlatProcess(p));
    }
    const auto m = MeasurePtSize(spec, {"lh", PtKind::kLinearHashed});
    EXPECT_EQ(m.bytes, expected) << name;
  }
}

TEST(LinearHashedTest, SitsBetweenOneAndSixLevels) {
  const auto& spec = workload::GetPaperWorkload("gcc");
  const auto one = MeasurePtSize(spec, {"l1", PtKind::kLinear1});
  const auto hashed_upper = MeasurePtSize(spec, {"lh", PtKind::kLinearHashed});
  const auto six = MeasurePtSize(spec, {"l6", PtKind::kLinear6});
  EXPECT_GT(hashed_upper.bytes, one.bytes);
  EXPECT_LT(hashed_upper.bytes, six.bytes);
}

}  // namespace
}  // namespace cpt::sim
