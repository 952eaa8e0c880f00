// Tests for referenced/modified-bit maintenance (Section 3.1): lock-free
// handler updates, clock-daemon scans, across all page-table organizations.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "machine_combos.h"
#include "mem/cache_model.h"
#include "pt/software_tlb.h"
#include "sim/experiments.h"
#include "sim/machine.h"
#include "workload/workload.h"

namespace cpt {
namespace {

using sim::PtKind;

// A page-table organization, optionally behind a software TLB (TSB).
struct RefBitsParam {
  PtKind kind;
  bool swtlb = false;
};

class RefBitsTest : public ::testing::TestWithParam<RefBitsParam> {
 protected:
  RefBitsTest() : cache_(256) {
    sim::MachineOptions opts;
    opts.swtlb_sets = GetParam().swtlb ? 64 : 0;
    table_ = sim::MakePageTable(GetParam().kind, cache_, opts);
  }

  mem::CacheTouchModel cache_;
  std::unique_ptr<pt::PageTable> table_;
};

TEST_P(RefBitsTest, UpdateSetsAndClearsFlags) {
  table_->InsertBase(Vpn{0x100}, Ppn{0x1}, Attr::ReadWrite());
  EXPECT_FALSE(table_->PeekAttr(Vpn{0x100})->test(Attr::kReferenced));
  EXPECT_TRUE(table_->UpdateAttrFlags(Vpn{0x100}, Attr::kReferenced | Attr::kModified, 0));
  const Attr attr = *table_->PeekAttr(Vpn{0x100});
  EXPECT_TRUE(attr.test(Attr::kReferenced));
  EXPECT_TRUE(attr.test(Attr::kModified));
  EXPECT_TRUE(attr.test(Attr::kWrite)) << "protection bits must survive";
  EXPECT_TRUE(table_->UpdateAttrFlags(Vpn{0x100}, 0, Attr::kReferenced));
  EXPECT_FALSE(table_->PeekAttr(Vpn{0x100})->test(Attr::kReferenced));
  EXPECT_TRUE(table_->PeekAttr(Vpn{0x100})->test(Attr::kModified));
}

TEST_P(RefBitsTest, UpdateOnUnmappedPageFails) {
  EXPECT_FALSE(table_->UpdateAttrFlags(Vpn{0xDEAD}, Attr::kReferenced, 0));
  EXPECT_FALSE(table_->PeekAttr(Vpn{0xDEAD}).has_value());
}

TEST_P(RefBitsTest, UpdatesAreUncounted) {
  table_->InsertBase(Vpn{0x100}, Ppn{0x1}, Attr::ReadWrite());
  cache_.Reset();
  table_->UpdateAttrFlags(Vpn{0x100}, Attr::kReferenced, 0);
  table_->PeekAttr(Vpn{0x100});
  EXPECT_EQ(cache_.total_walks(), 0u) << "R/M maintenance is not walk cost";
}

// A walk may cache the translation (a TSB slot); the R/M bits must still be
// read from where they are written, not from that copy.
TEST_P(RefBitsTest, PeekAfterCountedLookupSeesTheUpdate) {
  table_->InsertBase(Vpn{0x100}, Ppn{0x1}, Attr::ReadWrite());
  for (int i = 0; i < 2; ++i) {  // The second lookup hits a TSB.
    mem::WalkScope walk(cache_);
    ASSERT_TRUE(table_->Lookup(VaOf(Vpn{0x100})).has_value());
  }
  ASSERT_TRUE(table_->UpdateAttrFlags(Vpn{0x100}, Attr::kReferenced, 0));
  EXPECT_TRUE(table_->PeekAttr(Vpn{0x100})->test(Attr::kReferenced));
  ASSERT_TRUE(table_->UpdateAttrFlags(Vpn{0x100}, 0, Attr::kReferenced));
  EXPECT_FALSE(table_->PeekAttr(Vpn{0x100})->test(Attr::kReferenced));
}

TEST_P(RefBitsTest, UpdateReturnsTheBitsBeforeIt) {
  table_->InsertBase(Vpn{0x100}, Ppn{0x1}, Attr::ReadWrite());
  EXPECT_EQ(table_->UpdateAttrFlags(Vpn{0x100}, Attr::kReferenced, 0), Attr::ReadWrite());
  EXPECT_EQ(table_->UpdateAttrFlags(Vpn{0x100}, 0, Attr::kReferenced),
            Attr::ReadWrite().with(Attr::kReferenced));
  EXPECT_EQ(table_->PeekAttr(Vpn{0x100}), Attr::ReadWrite());
}

TEST_P(RefBitsTest, ScanCountsAndClears) {
  for (Vpn vpn{0x200}; vpn < Vpn{0x220}; ++vpn) {
    table_->InsertBase(vpn, Ppn{vpn.raw()}, Attr::ReadWrite());
  }
  // Touch a subset.
  for (const Vpn vpn : {Vpn{0x200}, Vpn{0x205}, Vpn{0x21F}}) {
    table_->UpdateAttrFlags(vpn, Attr::kReferenced, 0);
  }
  EXPECT_EQ(table_->ScanAndClearReferenced(Vpn{0x200}, 32), 3u);
  EXPECT_EQ(table_->ScanAndClearReferenced(Vpn{0x200}, 32), 0u) << "bits cleared by first sweep";
}

TEST_P(RefBitsTest, SuperpageWordCarriesOneReferencedBit) {
  if (!table_->features().superpages) {
    GTEST_SKIP();
  }
  table_->InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
  EXPECT_TRUE(table_->UpdateAttrFlags(Vpn{0x4007}, Attr::kReferenced, 0));
  // The single superpage PTE is referenced, visible through any covered page.
  EXPECT_TRUE(table_->PeekAttr(Vpn{0x4000})->test(Attr::kReferenced));
  EXPECT_TRUE(table_->PeekAttr(Vpn{0x400F})->test(Attr::kReferenced));
  // One PTE, so the sweep counts it once.
  EXPECT_EQ(table_->ScanAndClearReferenced(Vpn{0x4000}, 16), 1u);
  EXPECT_FALSE(table_->PeekAttr(Vpn{0x4003})->test(Attr::kReferenced));
}

std::string Underscored(std::string name) {
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPageTables, RefBitsTest,
    ::testing::Values(RefBitsParam{PtKind::kLinear1}, RefBitsParam{PtKind::kForward},
                      RefBitsParam{PtKind::kHashed}, RefBitsParam{PtKind::kHashedMulti},
                      RefBitsParam{PtKind::kHashedSpIndex}, RefBitsParam{PtKind::kClustered},
                      RefBitsParam{PtKind::kClusteredAdaptive},
                      RefBitsParam{PtKind::kForward, /*swtlb=*/true},
                      RefBitsParam{PtKind::kClustered, /*swtlb=*/true}),
    [](const ::testing::TestParamInfo<RefBitsParam>& param_info) {
      return Underscored(sim::ToString(param_info.param.kind) +
                         (param_info.param.swtlb ? "_swtlb" : ""));
    });

// --- R/M maintenance is free ----------------------------------------------
//
// Section 3.1's R/M-bit update rides on the walk the miss already paid for:
// turning maintain_ref_bits on must not move a single simulated count.  In
// particular it must not disturb a software TLB, whose slots cache
// translations, not the bits.

enum class Tsb : std::uint8_t { kNone, kBaseEntries, kClusteredEntries };

// (page table, TLB, software TLB in front of the table).
using FreeParam = std::tuple<PtKind, sim::TlbKind, Tsb>;

struct ReplayCounts {
  std::uint64_t lines = 0;
  std::uint64_t effective_misses = 0;
  std::uint64_t denominator_misses = 0;
  std::uint64_t tsb_hits = 0;
  std::uint64_t tsb_misses = 0;
};

class RefBitsFreeTest : public ::testing::TestWithParam<FreeParam> {
 protected:
  // Preloads coral and replays the first kRefs references of its trace.
  static ReplayCounts Replay(bool maintain_ref_bits) {
    static constexpr int kRefs = 200000;
    const auto [pt, tlb, tsb] = GetParam();
    sim::MachineOptions opts;
    opts.pt_kind = pt;
    opts.tlb_kind = tlb;
    opts.swtlb_sets = tsb == Tsb::kNone ? 0 : 1024;
    opts.swtlb_clustered_entries = tsb == Tsb::kClusteredEntries;
    opts.maintain_ref_bits = maintain_ref_bits;
    const auto& spec = workload::GetPaperWorkload("coral");
    static const workload::Snapshot snap = workload::BuildSnapshot(spec);
    sim::Machine m(opts, static_cast<unsigned>(spec.processes.size()));
    m.Preload(snap);
    workload::TraceGenerator gen(spec, snap);
    for (int i = 0; i < kRefs; ++i) {
      const workload::Reference r = gen.Next();
      m.Access(r.asid, r.va, r.is_write);
    }
    ReplayCounts counts{.lines = m.cache().total_lines(),
                        .effective_misses = m.tlb().stats().misses,
                        .denominator_misses = m.DenominatorMisses()};
    for (unsigned p = 0; p < m.num_processes(); ++p) {
      if (const auto* swtlb = dynamic_cast<const pt::SoftwareTlb*>(&m.page_table(p))) {
        counts.tsb_hits += swtlb->probe_hits();
        counts.tsb_misses += swtlb->probe_misses();
      }
    }
    return counts;
  }
};

TEST_P(RefBitsFreeTest, MaintainingRefBitsMovesNoCount) {
  const auto [pt, tlb, tsb] = GetParam();
  if (!testutil::CombinationSupported(pt, tlb)) {
    GTEST_SKIP() << "combination not supported by design";
  }
  const ReplayCounts off = Replay(false);
  const ReplayCounts on = Replay(true);
  ASSERT_GT(off.denominator_misses, 0u);
  EXPECT_EQ(on.lines, off.lines);
  EXPECT_EQ(on.effective_misses, off.effective_misses);
  EXPECT_EQ(on.denominator_misses, off.denominator_misses);
  if (tsb != Tsb::kNone) {
    // A complete-subblock TLB prefetches on block misses through
    // LookupBlock, which bypasses the TSB; every other design hits it.
    if (tlb != sim::TlbKind::kCompleteSubblock) {
      ASSERT_GT(off.tsb_hits, 0u) << "the replay must exercise the TSB";
    }
    EXPECT_EQ(on.tsb_hits, off.tsb_hits);
    EXPECT_EQ(on.tsb_misses, off.tsb_misses);
  }
}

std::string FreeName(const ::testing::TestParamInfo<FreeParam>& param_info) {
  const auto [pt, tlb, tsb] = param_info.param;
  const char* suffix = "";
  switch (tsb) {
    case Tsb::kNone:
      break;
    case Tsb::kBaseEntries:
      suffix = "_tsb";
      break;
    case Tsb::kClusteredEntries:
      suffix = "_tsb_clustered";
      break;
  }
  return Underscored(sim::ToString(pt) + "_" + sim::ToString(tlb) + suffix);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, RefBitsFreeTest,
    ::testing::Combine(::testing::ValuesIn(testutil::kAllPtKinds),
                       ::testing::ValuesIn(testutil::kAllTlbKinds),
                       ::testing::Values(Tsb::kNone, Tsb::kBaseEntries, Tsb::kClusteredEntries)),
    FreeName);

TEST(RefBitsMachineTest, MissHandlerSetsReferencedAndModified) {
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kClustered;
  opts.maintain_ref_bits = true;
  sim::Machine m(opts, 1);
  m.Access(0, VaOf(Vpn{0x100}), /*is_write=*/false);
  m.Access(0, VaOf(Vpn{0x101}), /*is_write=*/true);
  const Attr read_attr = *m.page_table(0).PeekAttr(Vpn{0x100});
  const Attr write_attr = *m.page_table(0).PeekAttr(Vpn{0x101});
  EXPECT_TRUE(read_attr.test(Attr::kReferenced));
  EXPECT_FALSE(read_attr.test(Attr::kModified));
  EXPECT_TRUE(write_attr.test(Attr::kReferenced));
  EXPECT_TRUE(write_attr.test(Attr::kModified));
}

TEST(RefBitsMachineTest, DisabledByDefault) {
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kClustered;
  sim::Machine m(opts, 1);
  m.Access(0, VaOf(Vpn{0x100}), /*is_write=*/true);
  EXPECT_FALSE(m.page_table(0).PeekAttr(Vpn{0x100})->test(Attr::kReferenced));
}

TEST(RefBitsMachineTest, TraceDrivenSweepFindsHotPages) {
  const auto& spec = workload::GetPaperWorkload("mp3d");
  const auto snap = workload::BuildSnapshot(spec);
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kClustered;
  opts.maintain_ref_bits = true;
  sim::Machine m(opts, 1);
  m.Preload(snap);
  workload::TraceGenerator gen(spec, snap);
  for (int i = 0; i < 100000; ++i) {
    const auto r = gen.Next();
    m.Access(r.asid, r.va, r.is_write);
  }
  // The heap was exercised: a sweep over it finds referenced mappings.
  const std::uint64_t hot = m.page_table(0).ScanAndClearReferenced(VpnOf(VirtAddr{0x10000000ull}), 1100);
  EXPECT_GT(hot, 0u);
  EXPECT_EQ(m.page_table(0).ScanAndClearReferenced(VpnOf(VirtAddr{0x10000000ull}), 1100), 0u);
}

TEST(RefBitsMachineTest, WritesAppearInTraces) {
  const auto& spec = workload::GetPaperWorkload("coral");
  const auto snap = workload::BuildSnapshot(spec);
  workload::TraceGenerator gen(spec, snap);
  unsigned writes = 0;
  for (int i = 0; i < 20000; ++i) {
    writes += gen.Next().is_write ? 1 : 0;
  }
  EXPECT_GT(writes, 2000u);
  EXPECT_LT(writes, 12000u);
}

}  // namespace
}  // namespace cpt
