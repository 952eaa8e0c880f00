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

#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "check/auditor.h"
#include "check/shadow_oracle.h"
#include "check/test_backdoor.h"
#include "common/check.h"
#include "core/adaptive.h"
#include "core/clustered.h"
#include "core/multi_size.h"
#include "mem/cache_model.h"
#include "mem/reservation.h"
#include "pt/forward.h"
#include "pt/hashed.h"
#include "pt/linear.h"
#include "pt/multi_hashed.h"
#include "pt/software_tlb.h"
#include "sim/experiments.h"
#include "sim/machine.h"
#include "tlb/complete_subblock.h"
#include "tlb/dual_size_setassoc.h"
#include "tlb/partial_subblock.h"
#include "tlb/superpage.h"
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

// Intermediate-superpage views sit at their own tree level.
TEST_F(CleanAuditTest, ForwardIntermediateSuperpages) {
  pt::ForwardMappedPageTable t(cache_, {.intermediate_superpages = true});
  Populate(t);
  t.InsertSuperpage(Vpn{0x40000}, PageSize{8}, Ppn{0x1000}, Attr::ReadWrite());
  t.InsertSuperpage(Vpn{0x90100}, PageSize{8}, Ppn{0x2000}, Attr::ReadWrite());
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
  const AuditReport r = StructuralAuditor::Audit(t);
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

// One seeded defect per TLB audit message, plus the chain recounts and
// word rules no other test seeds.  Each row builds a populated structure,
// damages it through TestBackdoor when `seed` is set, and audits it; the
// clean build must audit clean and the damaged one must name `defect`.
struct SeededDefect {
  std::string_view name;
  std::function<AuditReport(bool seed)> audit;
  std::string_view defect;
};

pt::TlbFill BaseFill(Vpn vpn, Ppn ppn) {
  return {.kind = MappingKind::kBase,
          .base_vpn = vpn,
          .pages_log2 = 0,
          .word = MappingWord::Base(ppn, Attr::ReadWrite())};
}
pt::TlbFill SuperFill(Vpn base_vpn, Ppn base_ppn, PageSize size) {
  return {.kind = MappingKind::kSuperpage,
          .base_vpn = base_vpn,
          .pages_log2 = size.size_log2,
          .word = MappingWord::Superpage(base_ppn, Attr::ReadWrite(), size)};
}

// A factor-8 partial-subblock TLB holding one PSB block entry and one page.
template <typename Seed>
AuditReport AuditPsbTlb(bool seed, Seed damage) {
  tlb::PartialSubblockTlb t(4, 8);
  t.Insert(0, Vpn{0x4001},
           {.kind = MappingKind::kPartialSubblock,
            .base_vpn = Vpn{0x4000},
            .pages_log2 = 3,
            .word = MappingWord::PartialSubblock(Ppn{0x100}, Attr::ReadWrite(), 0x0F)});
  t.Insert(0, Vpn{0x9003}, BaseFill(Vpn{0x9003}, Ppn{0x77}));
  if (seed) {
    EXPECT_TRUE(damage(t));
  }
  return StructuralAuditor::Audit(t);
}

AuditReport AuditCsbTlb(bool seed) {
  tlb::CompleteSubblockTlb t(4, 16);
  t.Insert(0, Vpn{0x4001}, BaseFill(Vpn{0x4001}, Ppn{0x101}));
  t.Insert(0, Vpn{0x4003}, BaseFill(Vpn{0x4003}, Ppn{0x233}));
  if (seed) {
    EXPECT_TRUE(TestBackdoor::OrCsbVector(t, std::uint64_t{1} << 20));
  }
  return StructuralAuditor::Audit(t);
}

template <typename Seed>
AuditReport AuditSuperpageTlb(bool seed, Seed damage) {
  tlb::SuperpageTlb t(4);
  t.Insert(0, Vpn{0x4005}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  t.Insert(0, Vpn{0x9003}, BaseFill(Vpn{0x9003}, Ppn{0x77}));
  if (seed) {
    EXPECT_TRUE(damage(t));
  }
  return StructuralAuditor::Audit(t);
}

// Eight 2-way sets indexed by 64KB superpage bits: one superpage and a few
// base pages, each in its own set.
template <typename Seed>
AuditReport AuditDualTlb(bool seed, Seed damage) {
  tlb::DualSizeSetAssocTlb t(8, 2, 4);
  t.Insert(0, Vpn{0x4003}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  for (unsigned i = 0; i < 3; ++i) {
    const Vpn vpn = Vpn{0x9010} + 16 * i;
    t.Insert(1, vpn, BaseFill(vpn, Ppn{7 + i}));
  }
  if (seed) {
    EXPECT_TRUE(damage(t));
  }
  return StructuralAuditor::Audit(t);
}

// A clustered table holding one base page at block offset 0 and a few
// more blocks.
template <typename Seed>
AuditReport AuditClustered(bool seed, Seed damage) {
  mem::CacheTouchModel cache(256);
  core::ClusteredPageTable t(cache, {});
  for (unsigned i = 0; i < 4; ++i) {
    t.InsertBase(Vpn{0x900} + 16 * i, Ppn{40 + i}, Attr::ReadWrite());
  }
  if (seed) {
    EXPECT_TRUE(damage(t));
  }
  return StructuralAuditor::Audit(t);
}

// `pages` consecutive base pages from block 0x90 of a table built with
// `opts` (an adaptive table promotes a block from 6 pages on).
template <typename Table, typename Seed>
AuditReport AuditBlock(bool seed, typename Table::Options opts, unsigned pages, Seed damage) {
  mem::CacheTouchModel cache(256);
  Table t(cache, opts);
  for (unsigned i = 0; i < pages; ++i) {
    t.InsertBase(Vpn{0x900} + i, Ppn{0x40} + i, Attr::ReadWrite());
  }
  if (seed) {
    EXPECT_TRUE(damage(t));
  }
  return StructuralAuditor::Audit(t);
}

std::vector<SeededDefect> SeededDefects() {
  using tlb::PartialSubblockTlb;
  using tlb::SuperpageTlb;
  using tlb::DualSizeSetAssocTlb;
  using core::AdaptiveClusteredPageTable;
  using core::ClusteredPageTable;
  return {
      {"psb: valid bits beyond the factor",
       [](bool seed) {
         return AuditPsbTlb(seed, [](PartialSubblockTlb& t) {
           return TestBackdoor::SetPsbVector(t, 0x100F);
         });
       },
       "valid bits beyond subblock factor 8"},
      {"psb: empty block vector",
       [](bool seed) {
         return AuditPsbTlb(seed,
                            [](PartialSubblockTlb& t) { return TestBackdoor::SetPsbVector(t, 0); });
       },
       "empty valid vector"},
      {"psb: misaligned block PPN",
       [](bool seed) {
         return AuditPsbTlb(seed, [](PartialSubblockTlb& t) {
           return TestBackdoor::ShiftPsbBlock(t, /*tag=*/false);
         });
       },
       "PPN not aligned"},
      {"psb: misaligned block VPN",
       [](bool seed) {
         return AuditPsbTlb(seed, [](PartialSubblockTlb& t) {
           return TestBackdoor::ShiftPsbBlock(t, /*tag=*/true);
         });
       },
       "VPN not aligned"},
      {"csb: valid bits beyond the factor", AuditCsbTlb, "valid bits beyond subblock factor 16"},
      {"superpage: misaligned VPN",
       [](bool seed) {
         return AuditSuperpageTlb(seed, [](SuperpageTlb& t) {
           return TestBackdoor::ShiftSuperpageEntry(t, /*tag=*/true);
         });
       },
       "VPN not aligned"},
      {"superpage: misaligned PPN",
       [](bool seed) {
         return AuditSuperpageTlb(seed, [](SuperpageTlb& t) {
           return TestBackdoor::ShiftSuperpageEntry(t, /*tag=*/false);
         });
       },
       "PPN not aligned"},
      {"dual-size: wrong set",
       [](bool seed) {
         return AuditDualTlb(seed, [](DualSizeSetAssocTlb& t) {
           TestBackdoor::SwapFirstSets(t);
           return true;
         });
       },
       "but indexes to set"},
      {"dual-size: invalid-entry count",
       [](bool seed) {
         return AuditDualTlb(seed, [](DualSizeSetAssocTlb& t) {
           TestBackdoor::SkewInvalidCount(t);
           return true;
         });
       },
       "invalid entries"},
      {"dual-size: page size",
       [](bool seed) {
         return AuditDualTlb(seed, [](DualSizeSetAssocTlb& t) {
           TestBackdoor::FirstWay(t).pages_log2 = 2;
           return true;
         });
       },
       "page size 2^2"},
      {"dual-size: misaligned PPN",
       [](bool seed) {
         return AuditDualTlb(seed, [](DualSizeSetAssocTlb& t) {
           TestBackdoor::FirstWay(t).base_ppn += 1;
           return true;
         });
       },
       "PPN not aligned"},
      {"chain: bucket membership",
       [](bool seed) {
         return AuditClustered(seed, [](ClusteredPageTable& t) {
           return TestBackdoor::MoveHeadToNextBucket(t);
         });
       },
       "hangs on bucket"},
      {"chain: node count",
       [](bool seed) {
         return AuditClustered(seed, [](ClusteredPageTable& t) {
           TestBackdoor::SkewChainCounts(t, 1, 0);
           return true;
         });
       },
       "walk saw 4 nodes but the table counts 5"},
      {"chain: paper-model bytes",
       [](bool seed) {
         return AuditClustered(seed, [](ClusteredPageTable& t) {
           TestBackdoor::SkewChainCounts(t, 0, 8);
           return true;
         });
       },
       "paper-model bytes"},
      {"clustered: mixed formats",
       [](bool seed) {
         return AuditClustered(seed, [](ClusteredPageTable& t) {
           return TestBackdoor::StoreHeadWord(
               t, 1, MappingWord::PartialSubblock(Ppn{0x300}, Attr::ReadWrite(), 0x1));
         });
       },
       "mixed mapping formats"},
      {"clustered: empty node",
       [](bool seed) {
         return AuditClustered(seed, [](ClusteredPageTable& t) {
           return TestBackdoor::StoreHeadWord(t, 0, MappingWord::Invalid());
         });
       },
       "live node translates nothing"},
      {"clustered, factor 8: PSB bits beyond the factor",
       [](bool seed) {
         return AuditBlock<ClusteredPageTable>(
             seed, {.subblock_factor = 8}, 1, [](ClusteredPageTable& t) {
               return TestBackdoor::StoreHeadWord(
                   t, 0, MappingWord::PartialSubblock(Ppn{0x300}, Attr::ReadWrite(), 0x1FF));
             });
       },
       "PSB valid bits beyond subblock factor 8"},
      {"adaptive, factor 8: PSB bits beyond the factor",
       [](bool seed) {
         return AuditBlock<AdaptiveClusteredPageTable>(
             seed, {.subblock_factor = 8}, 1, [](AdaptiveClusteredPageTable& t) {
               return TestBackdoor::StoreHeadWord(
                   t, 0, MappingWord::PartialSubblock(Ppn{0x300}, Attr::ReadWrite(), 0x1FF));
             });
       },
       "PSB valid bits beyond subblock factor 8"},
      {"hashed, keyed by 8-page blocks: PSB bits beyond the factor",
       [](bool seed) {
         return AuditBlock<pt::HashedPageTable>(seed, {.tag_shift = 3}, 1, [](pt::HashedPageTable& t) {
           t.UpsertPartialSubblock(Vpn{0x900}, 8, Ppn{0x300}, Attr::ReadWrite(), 0x1FE);
           return true;
         });
       },
       "PSB valid bits beyond subblock factor 8"},
      {"adaptive: mixed formats",
       [](bool seed) {
         return AuditBlock<AdaptiveClusteredPageTable>(
             seed, {}, 8, [](AdaptiveClusteredPageTable& t) {
               return TestBackdoor::StoreHeadWord(
                   t, 9, MappingWord::PartialSubblock(Ppn{0x300}, Attr::ReadWrite(), 0x1));
             });
       },
       "mixed mapping formats"},
      {"adaptive: empty node",
       [](bool seed) {
         return AuditBlock<AdaptiveClusteredPageTable>(
             seed, {}, 1, [](AdaptiveClusteredPageTable& t) {
               return TestBackdoor::StoreHeadWord(t, 0, MappingWord::Invalid());
             });
       },
       "live node translates nothing"},
  };
}

TEST(CorruptionTest, EverySeededDefectIsNamed) {
  for (const SeededDefect& row : SeededDefects()) {
    SCOPED_TRACE(row.name);
    const AuditReport clean = row.audit(false);
    EXPECT_TRUE(clean.ok()) << clean.Summary();
    const AuditReport seeded = row.audit(true);
    EXPECT_NE(seeded.Summary().find(row.defect), std::string::npos) << seeded.Summary();
  }
}

// A wrapper audits the table it wraps, and a composite audits its
// constituents under one coverage map.
TEST(CorruptionTest, WrappersAndCompositesAuditWhatTheyHold) {
  mem::CacheTouchModel cache(256);
  const auto seeded_hashed = [&cache](pt::HashedPageTable*& raw) {
    auto t = std::make_unique<pt::HashedPageTable>(cache, pt::HashedPageTable::Options{});
    for (unsigned i = 0; i < 8; ++i) {
      t->InsertBase(Vpn{0x500 + i}, Ppn{10 + i}, Attr::ReadWrite());
    }
    EXPECT_TRUE(TestBackdoor::CorruptHashedBaseVpn(*t));
    raw = t.get();
    return t;
  };
  pt::HashedPageTable* inner = nullptr;
  const ShadowedPageTable shadowed(cache, seeded_hashed(inner));
  EXPECT_NE(StructuralAuditor::Audit(shadowed).Summary().find("misaligned tag"),
            std::string::npos);
  const pt::SoftwareTlb swtlb(cache, seeded_hashed(inner), {});
  EXPECT_NE(StructuralAuditor::Audit(swtlb).Summary().find("misaligned tag"),
            std::string::npos);

  // Page 0x10005 as a base PTE in one constituent and inside a superpage in
  // the other: a 256KB one in the large-block table, a 64KB one in the
  // block-keyed table.
  core::MultiSizeClustered multi(cache, {});
  pt::MultiTableHashed hashed(cache, {});
  multi.InsertSuperpage(Vpn{0x10000}, PageSize{6}, Ppn{0x4000}, Attr::ReadWrite());
  hashed.InsertSuperpage(Vpn{0x10000}, kPage64K, Ppn{0x4000}, Attr::ReadWrite());
  for (pt::PageTable* t : std::initializer_list<pt::PageTable*>{&multi, &hashed}) {
    ASSERT_TRUE(StructuralAuditor::Audit(*t).ok());
    t->InsertBase(Vpn{0x10005}, Ppn{0x77}, Attr::ReadWrite());
    const AuditReport r = StructuralAuditor::Audit(*t);
    EXPECT_NE(r.Summary().find("covered by more than one valid mapping"), std::string::npos)
        << r.Summary();
  }
  // A defect in the second constituent is found too.
  ASSERT_TRUE(TestBackdoor::CorruptHashedBaseVpn(hashed.block_table()));
  EXPECT_NE(StructuralAuditor::Audit(hashed).Summary().find("misaligned tag"), std::string::npos);
}

// The duplicate-tag rule covers every design: two live entries with one
// (asid, base VPN, page size).
TEST(CorruptionTest, DuplicateTagsAreFoundInEveryDesign) {
  const auto superpage = [](bool seed) {
    return AuditSuperpageTlb(seed, [](tlb::SuperpageTlb& t) {
      return TestBackdoor::DuplicateSuperpageEntry(t);
    });
  };
  const auto dual = [](bool seed) {
    return AuditDualTlb(seed, [](tlb::DualSizeSetAssocTlb& t) {
      TestBackdoor::DuplicateFirstWay(t);
      return true;
    });
  };
  for (const auto& audit : {std::function<AuditReport(bool)>(superpage),
                            std::function<AuditReport(bool)>(dual)}) {
    ASSERT_TRUE(audit(false).ok()) << audit(false).Summary();
    EXPECT_NE(audit(true).Summary().find("duplicate TLB tag"), std::string::npos)
        << audit(true).Summary();
  }
  // One base VPN in two page sizes is two tags.
  tlb::SuperpageTlb sizes(4);
  sizes.Insert(0, Vpn{0x4000}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage8K));
  sizes.Insert(0, Vpn{0x4000}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  EXPECT_TRUE(StructuralAuditor::Audit(sizes).ok()) << StructuralAuditor::Audit(sizes).Summary();
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
