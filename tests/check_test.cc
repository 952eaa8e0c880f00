// Tests for the invariant-audit subsystem (src/check).
//
// Two halves:
//   1. Clean structures audit clean — every organization, exercised through
//      its public API with every PTE format it supports, yields an empty
//      AuditReport.
//   2. Corrupted structures audit dirty — check::TestBackdoor breaks one
//      invariant at a time (misaligned tag, duplicated base-page coverage,
//      hash-chain cycle, leaf-tree counters, inconsistent reservation
//      masks, mis-placed grant)
//      and the auditor must name the defect.  Without these tests a
//      vacuously-green auditor would be indistinguishable from a working
//      one.
#include <gtest/gtest.h>

#include <string>

#include "check/auditor.h"
#include "check/shadow_oracle.h"
#include "check/test_backdoor.h"
#include "common/check.h"
#include "core/adaptive.h"
#include "core/clustered.h"
#include "mem/cache_model.h"
#include "mem/reservation.h"
#include "pt/forward.h"
#include "pt/hashed.h"
#include "pt/linear.h"
#include "pt/multi_hashed.h"
#include "sim/experiments.h"
#include "sim/machine.h"
#include "tlb/dual_size_setassoc.h"
#include "workload/workload.h"

namespace cpt::check {

// The superpage-index organization in typed tests: a HashedPageTable keyed
// by page block.
struct HashedSpIndex {};

namespace {

using ::testing::AssertionResult;

// ---------------------------------------------------------------------------
// Clean structures audit clean.
// ---------------------------------------------------------------------------

class CleanAuditTest : public ::testing::Test {
 protected:
  CleanAuditTest() : cache_(256) {}

  // Exercises every format the table supports: scattered base pages, a
  // block-sized superpage, a sub-block superpage (where supported — the
  // adaptive organization only stores block-sized-or-larger superpages),
  // and a PSB entry.
  template <typename Table>
  void Populate(Table& t, bool sub_block_superpage = true) {
    for (unsigned i = 0; i < 40; ++i) {
      t.InsertBase(Vpn{0x1000 + 7 * i}, Ppn{100 + i}, Attr::ReadWrite());
    }
    if (t.features().superpages) {
      t.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
      if (sub_block_superpage) {
        t.InsertSuperpage(Vpn{0x8000}, kPage8K, Ppn{0x200}, Attr::ReadWrite());
      }
    }
    if (t.features().partial_subblock) {
      t.UpsertPartialSubblock(Vpn{0x10000}, 16, Ppn{0x300}, Attr::ReadWrite(), 0x0F0F);
    }
    // Some removals so freed nodes and shrunk chains get audited too.
    for (unsigned i = 0; i < 10; ++i) {
      t.RemoveBase(Vpn{0x1000 + 7 * i});
    }
  }

  mem::CacheTouchModel cache_;
};

TEST_F(CleanAuditTest, Clustered) {
  core::ClusteredPageTable t(cache_, {});
  Populate(t);
  const AuditReport r = StructuralAuditor::Audit(t);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

TEST_F(CleanAuditTest, ClusteredAdaptive) {
  core::AdaptiveClusteredPageTable t(cache_, {});
  Populate(t, /*sub_block_superpage=*/false);
  const AuditReport r = StructuralAuditor::Audit(t);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

TEST_F(CleanAuditTest, Hashed) {
  pt::HashedPageTable t(cache_, {});
  for (unsigned i = 0; i < 40; ++i) {
    t.InsertBase(Vpn{0x1000 + 7 * i}, Ppn{100 + i}, Attr::ReadWrite());
  }
  t.RemoveBase(Vpn{0x1000});
  const AuditReport r = StructuralAuditor::Audit(t);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

TEST_F(CleanAuditTest, HashedMulti) {
  pt::MultiTableHashed t(cache_, {});
  Populate(t);
  const AuditReport r = StructuralAuditor::Audit(t);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

TEST_F(CleanAuditTest, HashedSpIndex) {
  pt::HashedPageTable t(cache_, {.tag_shift = 4});
  Populate(t);
  const AuditReport r = StructuralAuditor::Audit(t);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

TEST_F(CleanAuditTest, Linear) {
  pt::LinearPageTable t(cache_, {});
  Populate(t);
  const AuditReport r = StructuralAuditor::Audit(t);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

TEST_F(CleanAuditTest, Forward) {
  pt::ForwardMappedPageTable t(cache_, {});
  Populate(t);
  const AuditReport r = StructuralAuditor::Audit(t);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

TEST_F(CleanAuditTest, ReservationAllocator) {
  mem::ReservationAllocator alloc(1024, 16);
  alloc.EnableGrantLog();
  for (unsigned blk = 0; blk < 8; ++blk) {
    mem::ReservationAllocator::GroupId handle = mem::ReservationAllocator::kNoGroup;
    for (unsigned boff = 0; boff < 16; boff += 2) {
      ASSERT_TRUE(alloc.Allocate(blk, boff, handle).has_value());
    }
  }
  const AuditReport r = StructuralAuditor::Audit(alloc);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// The dual-size set-associative TLB is not driven by Machine, so exercise
// its audit (set placement, size discrimination, invalid-entry accounting)
// directly.
TEST_F(CleanAuditTest, DualSizeSetAssocTlb) {
  tlb::DualSizeSetAssocTlb t(/*num_sets=*/8, /*ways=*/2, /*superpage_log2=*/4);
  t.Insert(0, Vpn{0x4000},
           pt::TlbFill{.kind = MappingKind::kSuperpage,
                       .base_vpn = Vpn{0x4000},
                       .pages_log2 = 4,
                       .word = MappingWord::Superpage(Ppn{0x100}, Attr::ReadWrite(),
                                                      kPage64K)});
  for (unsigned i = 0; i < 24; ++i) {
    t.Insert(1, Vpn{0x9000 + 16 * i},
             pt::TlbFill{.kind = MappingKind::kBase,
                         .base_vpn = Vpn{0x9000 + 16 * i},
                         .pages_log2 = 0,
                         .word = MappingWord::Base(Ppn{7 + i}, Attr::ReadWrite())});
  }
  const AuditReport r = StructuralAuditor::AuditTlb(t);
  EXPECT_TRUE(r.ok()) << r.Summary();
}

// A full machine run audits clean for every TLB design (TLB occupancy,
// set placement, and invalid-entry accounting included).
class MachineAuditTest : public ::testing::TestWithParam<sim::TlbKind> {};

TEST_P(MachineAuditTest, WorkloadRunAuditsClean) {
  sim::MachineOptions opts;
  opts.pt_kind = sim::PtKind::kClustered;
  opts.tlb_kind = GetParam();
  opts.audit = true;
  const auto& spec = workload::GetPaperWorkload("compress");
  const sim::AccessMeasurement m = sim::MeasureAccessTime(spec, opts, 40000);
  EXPECT_EQ(m.audit_defects, 0u) << m.audit_summary;
}

INSTANTIATE_TEST_SUITE_P(AllTlbs, MachineAuditTest,
                         ::testing::Values(sim::TlbKind::kSinglePage, sim::TlbKind::kSuperpage,
                                           sim::TlbKind::kPartialSubblock,
                                           sim::TlbKind::kCompleteSubblock),
                         [](const ::testing::TestParamInfo<sim::TlbKind>& param_info) {
                           std::string n = sim::ToString(param_info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Seeded corruption must be detected — and named.
// ---------------------------------------------------------------------------

TEST(CorruptionTest, MisalignedTagIsDetected) {
  mem::CacheTouchModel cache(256);
  pt::HashedPageTable t(cache, {});
  for (unsigned i = 0; i < 8; ++i) {
    t.InsertBase(Vpn{0x500 + i}, Ppn{10 + i}, Attr::ReadWrite());
  }
  ASSERT_TRUE(StructuralAuditor::Audit(t).ok());
  ASSERT_TRUE(TestBackdoor::CorruptHashedBaseVpn(t));
  const AuditReport r = StructuralAuditor::Audit(t);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Summary().find("misaligned tag"), std::string::npos) << r.Summary();
}

// A chained table type and the options the fixture builds it with.
template <typename T>
struct Built {
  using Table = T;
  static constexpr typename T::Options kOptions{};
};
template <>
struct Built<HashedSpIndex> {
  using Table = pt::HashedPageTable;
  static constexpr pt::HashedPageTable::Options kOptions{.tag_shift = 4};
};

// Chained tables: corruption seeded in the shared chain layer (pt/chain.h)
// is found on each of them.
template <typename T>
class ChainCorruptionTest : public ::testing::Test {
 protected:
  ChainCorruptionTest() : cache_(256), table_(cache_, Built<T>::kOptions) {}

  // 32 base pages, `stride` pages apart.
  void InsertPages(unsigned stride) {
    for (unsigned i = 0; i < 32; ++i) {
      table_.InsertBase(Vpn{0x900 + stride * i}, Ppn{40 + i}, Attr::ReadWrite());
    }
  }
  std::string Defects() const { return StructuralAuditor::Audit(table_).Summary(); }

  mem::CacheTouchModel cache_;
  typename Built<T>::Table table_;
};

using ChainedTables = ::testing::Types<pt::HashedPageTable, HashedSpIndex,
                                       core::ClusteredPageTable, core::AdaptiveClusteredPageTable>;
TYPED_TEST_SUITE(ChainCorruptionTest, ChainedTables);

TYPED_TEST(ChainCorruptionTest, DuplicateCoverageIsDetected) {
  this->InsertPages(1);
  ASSERT_EQ(this->Defects(), "");
  ASSERT_TRUE(TestBackdoor::SeedDuplicateCoverage(this->table_));
  EXPECT_NE(this->Defects().find("covered by more than one valid mapping"), std::string::npos)
      << this->Defects();
}

TYPED_TEST(ChainCorruptionTest, ChainCycleIsDetected) {
  this->InsertPages(16);
  ASSERT_EQ(this->Defects(), "");
  ASSERT_TRUE(TestBackdoor::SeedChainCycle(this->table_));
  EXPECT_NE(this->Defects().find("cyclic"), std::string::npos) << this->Defects();
}

// Linear and forward-mapped trees: each counter the table keeps is recounted
// from the walk.
template <typename Table>
class LeafTreeCorruptionTest : public ::testing::Test {
 protected:
  LeafTreeCorruptionTest() : cache_(256), table_(cache_, {}) {
    for (unsigned i = 0; i < 40; ++i) {
      table_.InsertBase(Vpn{0x1000 + 7 * i}, Ppn{100 + i}, Attr::ReadWrite());
    }
    table_.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
  }

  std::string Defects() const { return StructuralAuditor::Audit(table_).Summary(); }

  mem::CacheTouchModel cache_;
  Table table_;
};

using LeafTrees = ::testing::Types<pt::LinearPageTable, pt::ForwardMappedPageTable>;
TYPED_TEST_SUITE(LeafTreeCorruptionTest, LeafTrees);

TYPED_TEST(LeafTreeCorruptionTest, LeafLiveCounterIsRecounted) {
  ASSERT_EQ(this->Defects(), "");
  ASSERT_TRUE(TestBackdoor::SkewLeafLiveCount(this->table_));
  EXPECT_NE(this->Defects().find("leaf live counter"), std::string::npos) << this->Defects();
}

TYPED_TEST(LeafTreeCorruptionTest, TranslationCountIsRecounted) {
  ASSERT_EQ(this->Defects(), "");
  TestBackdoor::SkewLiveTranslations(this->table_);
  EXPECT_NE(this->Defects().find("walk recounted 56 translations but the table counts 57"),
            std::string::npos)
      << this->Defects();
}

TYPED_TEST(LeafTreeCorruptionTest, LevelNodeCountIsRecounted) {
  ASSERT_EQ(this->Defects(), "");
  TestBackdoor::AddOrphanLevel2Node(this->table_);
  EXPECT_NE(this->Defects().find("level 2 counts 2 active nodes; the walked nodes imply 1"),
            std::string::npos)
      << this->Defects();
}

TEST(CorruptionTest, ReservationMaskMismatchIsDetected) {
  mem::ReservationAllocator alloc(256, 16);
  mem::ReservationAllocator::GroupId handle = mem::ReservationAllocator::kNoGroup;
  for (unsigned boff = 0; boff < 8; ++boff) {
    ASSERT_TRUE(alloc.Allocate(1, boff, handle).has_value());
  }
  ASSERT_TRUE(StructuralAuditor::Audit(alloc).ok());
  ASSERT_TRUE(TestBackdoor::CorruptReservationMask(alloc));
  const AuditReport r = StructuralAuditor::Audit(alloc);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Summary().find("group masks account for"), std::string::npos) << r.Summary();
}

TEST(CorruptionTest, DuplicateFreeListGroupIsDetected) {
  mem::ReservationAllocator alloc(256, 16);
  mem::ReservationAllocator::GroupId handle = mem::ReservationAllocator::kNoGroup;
  ASSERT_TRUE(alloc.Allocate(1, 0, handle).has_value());
  ASSERT_TRUE(StructuralAuditor::Audit(alloc).ok());
  ASSERT_TRUE(TestBackdoor::DuplicateFreeGroup(alloc));
  const AuditReport r = StructuralAuditor::Audit(alloc);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Summary().find("group 1 appears twice on the free list"), std::string::npos)
      << r.Summary();
}

TEST(CorruptionTest, DuplicateReservationOwnerIsDetected) {
  mem::ReservationAllocator alloc(256, 16);
  mem::ReservationAllocator::GroupId handles[2] = {mem::ReservationAllocator::kNoGroup,
                                                   mem::ReservationAllocator::kNoGroup};
  ASSERT_TRUE(alloc.Allocate(2, 0, handles[0]).has_value());
  ASSERT_TRUE(alloc.Allocate(5, 0, handles[1]).has_value());
  ASSERT_TRUE(StructuralAuditor::Audit(alloc).ok());
  ASSERT_TRUE(TestBackdoor::DuplicateReservationOwner(alloc));
  const AuditReport r = StructuralAuditor::Audit(alloc);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Summary().find("groups 0 and 1 are both reserved for owner 2"), std::string::npos)
      << r.Summary();
}

TEST(CorruptionTest, MisplacedGrantIsDetected) {
  mem::ReservationAllocator alloc(256, 16);
  alloc.EnableGrantLog();
  mem::ReservationAllocator::GroupId handle = mem::ReservationAllocator::kNoGroup;
  ASSERT_TRUE(alloc.Allocate(3, 5, handle).has_value());
  ASSERT_TRUE(StructuralAuditor::Audit(alloc).ok());
  ASSERT_TRUE(TestBackdoor::MisplaceGrant(alloc));
  const AuditReport r = StructuralAuditor::Audit(alloc);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Summary().find("claims proper placement"), std::string::npos) << r.Summary();
}

// ---------------------------------------------------------------------------
// Shadow-map differential oracle.
// ---------------------------------------------------------------------------

TEST(ShadowOracleTest, CleanUsageHasNoDefects) {
  mem::CacheTouchModel cache(256);
  ShadowedPageTable t(cache, std::make_unique<core::ClusteredPageTable>(
                                 cache, core::ClusteredPageTable::Options{}));
  for (unsigned i = 0; i < 64; ++i) {
    t.InsertBase(Vpn{0x2000} + i, Ppn{500} + i, Attr::ReadWrite());
  }
  for (unsigned i = 0; i < 64; ++i) {
    EXPECT_TRUE(t.Lookup(VaOf(Vpn{0x2000} + i)).has_value());
  }
  EXPECT_FALSE(t.Lookup(VaOf(Vpn{0x9999})).has_value());
  for (unsigned i = 0; i < 16; ++i) {
    t.RemoveBase(Vpn{0x2000} + i);
    EXPECT_FALSE(t.Lookup(VaOf(Vpn{0x2000} + i)).has_value());
  }
  EXPECT_EQ(t.lookups_checked(), 64u + 1 + 16);
  const AuditReport r = t.FinalCheck();
  EXPECT_TRUE(r.ok()) << r.Summary();
}

TEST(ShadowOracleTest, CatchesLostMapping) {
  mem::CacheTouchModel cache(256);
  ShadowedPageTable t(cache, std::make_unique<core::ClusteredPageTable>(
                                 cache, core::ClusteredPageTable::Options{}));
  t.InsertBase(Vpn{0x2000}, Ppn{500}, Attr::ReadWrite());
  // Remove directly from the wrapped table, behind the oracle's back — the
  // stand-in for a buggy organization losing a mapping.
  ASSERT_TRUE(t.inner().RemoveBase(Vpn{0x2000}));
  EXPECT_FALSE(t.Lookup(VaOf(Vpn{0x2000})).has_value());
  const AuditReport r = t.FinalCheck();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Summary().find("page-faulted"), std::string::npos) << r.Summary();
}

TEST(ShadowOracleTest, CatchesWrongTranslation) {
  mem::CacheTouchModel cache(256);
  ShadowedPageTable t(cache, std::make_unique<core::ClusteredPageTable>(
                                 cache, core::ClusteredPageTable::Options{}));
  t.InsertBase(Vpn{0x2000}, Ppn{500}, Attr::ReadWrite());
  // Remap behind the oracle's back: the table now answers with a PPN the
  // shadow never saw.
  t.inner().InsertBase(Vpn{0x2000}, Ppn{777}, Attr::ReadWrite());
  EXPECT_TRUE(t.Lookup(VaOf(Vpn{0x2000})).has_value());
  const AuditReport r = t.defects();
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.Summary().find("shadow expects"), std::string::npos) << r.Summary();
}

// ---------------------------------------------------------------------------
// CPT_CHECK macros die loudly.
// ---------------------------------------------------------------------------

TEST(CheckMacroDeathTest, FailedCheckAborts) {
  EXPECT_DEATH(CPT_CHECK(1 + 1 == 3, "arithmetic is broken"), "CPT_CHECK failed");
}

TEST(CheckMacroDeathTest, FailedDcheckAbortsWhenEnabled) {
#ifdef NDEBUG
  GTEST_SKIP() << "CPT_DCHECK compiled out";
#else
  EXPECT_DEATH(CPT_DCHECK(false), "CPT_DCHECK failed");
#endif
}

}  // namespace
}  // namespace cpt::check
