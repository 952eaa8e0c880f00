// Tests for the OS substrate: demand paging, page-size assignment policy,
// promotion/demotion, PSB vector maintenance, and unmap paths — against
// clustered and multi-table-hashed page tables, and the replicated (linear,
// forward-mapped) ones where PSB PTEs share a block with base PTEs.
#include "os/address_space.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "check/auditor.h"
#include "check/shadow_oracle.h"
#include "core/clustered.h"
#include "mem/cache_model.h"
#include "mem/reservation.h"
#include "pt/multi_hashed.h"
#include "sim/machine.h"

namespace cpt::os {
namespace {

class OsClusteredTest : public ::testing::Test {
 protected:
  OsClusteredTest()
      : cache_(256),
        frames_(1 << 16, 16),
        table_(cache_, {}),
        strategy_(PteStrategy::kBaseOnly) {}

  void MakeAspace(PteStrategy strategy) {
    strategy_ = strategy;
    aspace_ = std::make_unique<AddressSpace>(
        0, table_, frames_, AddressSpaceOptions{.strategy = strategy, .subblock_factor = 16});
  }

  std::optional<pt::TlbFill> Lookup(Vpn vpn) {
    mem::WalkScope scope(cache_);
    return table_.Lookup(VaOf(vpn));
  }

  mem::CacheTouchModel cache_;
  mem::ReservationAllocator frames_;
  core::ClusteredPageTable table_;
  PteStrategy strategy_;
  std::unique_ptr<AddressSpace> aspace_;
};

TEST_F(OsClusteredTest, TouchMapsAndRepeatTouchIsIdempotent) {
  MakeAspace(PteStrategy::kBaseOnly);
  EXPECT_TRUE(aspace_->TouchPage(VaOf(Vpn{0x100})));
  EXPECT_TRUE(aspace_->TouchPage(VaOf(Vpn{0x100})));
  EXPECT_EQ(aspace_->resident_pages(), 1u);
  EXPECT_EQ(aspace_->stats().faults, 1u);
  EXPECT_TRUE(Lookup(Vpn{0x100}).has_value());
  EXPECT_TRUE(aspace_->IsResident(Vpn{0x100}));
  EXPECT_FALSE(aspace_->IsResident(Vpn{0x101}));
}

TEST_F(OsClusteredTest, SuperpagePolicyPromotesFullBlock) {
  MakeAspace(PteStrategy::kSuperpage);
  for (unsigned i = 0; i < 16; ++i) {
    ASSERT_TRUE(aspace_->TouchPage(VaOf(Vpn{0x100} + i)));
  }
  EXPECT_EQ(aspace_->stats().promotions, 1u);
  const auto fill = Lookup(Vpn{0x105});
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->kind, MappingKind::kSuperpage);
  EXPECT_EQ(fill->pages_log2, 4u);
  // A promoted block is one compact 24-byte node.
  EXPECT_EQ(table_.SizeBytesPaperModel(), 24u);
  EXPECT_EQ(aspace_->Census().super_blocks, 1u);
}

TEST_F(OsClusteredTest, SuperpagePolicyKeepsPartialBlocksAsBase) {
  MakeAspace(PteStrategy::kSuperpage);
  for (unsigned i = 0; i < 15; ++i) {
    ASSERT_TRUE(aspace_->TouchPage(VaOf(Vpn{0x100} + i)));
  }
  EXPECT_EQ(aspace_->stats().promotions, 0u);
  EXPECT_EQ(Lookup(Vpn{0x105})->kind, MappingKind::kBase);
  EXPECT_EQ(aspace_->Census().base_blocks, 1u);
}

TEST_F(OsClusteredTest, UnmapDemotesSuperpage) {
  MakeAspace(PteStrategy::kSuperpage);
  for (unsigned i = 0; i < 16; ++i) {
    ASSERT_TRUE(aspace_->TouchPage(VaOf(Vpn{0x100} + i)));
  }
  aspace_->UnmapRange(Vpn{0x103}, 1);
  EXPECT_EQ(aspace_->stats().demotions, 1u);
  EXPECT_FALSE(Lookup(Vpn{0x103}).has_value());
  for (unsigned i = 0; i < 16; ++i) {
    if (i == 3) {
      continue;
    }
    const auto fill = Lookup(Vpn{0x100} + i);
    ASSERT_TRUE(fill.has_value()) << "page " << i;
    EXPECT_EQ(fill->kind, MappingKind::kBase);
  }
  EXPECT_EQ(aspace_->resident_pages(), 15u);
}

TEST_F(OsClusteredTest, RetouchAfterDemotionRepromotes) {
  MakeAspace(PteStrategy::kSuperpage);
  for (unsigned i = 0; i < 16; ++i) {
    ASSERT_TRUE(aspace_->TouchPage(VaOf(Vpn{0x100} + i)));
  }
  aspace_->UnmapRange(Vpn{0x103}, 1);
  ASSERT_TRUE(aspace_->TouchPage(VaOf(Vpn{0x103})));
  EXPECT_EQ(aspace_->stats().promotions, 2u);
  EXPECT_EQ(Lookup(Vpn{0x103})->kind, MappingKind::kSuperpage);
}

TEST_F(OsClusteredTest, PsbPolicyBuildsVectorIncrementally) {
  MakeAspace(PteStrategy::kPartialSubblock);
  ASSERT_TRUE(aspace_->TouchPage(VaOf(Vpn{0x200})));
  ASSERT_TRUE(aspace_->TouchPage(VaOf(Vpn{0x207})));
  ASSERT_TRUE(aspace_->TouchPage(VaOf(Vpn{0x20F})));
  const auto fill = Lookup(Vpn{0x207});
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->kind, MappingKind::kPartialSubblock);
  EXPECT_EQ(fill->word.valid_vector(), 0b1000'0000'1000'0001);
  EXPECT_FALSE(Lookup(Vpn{0x201}).has_value());
  EXPECT_EQ(table_.SizeBytesPaperModel(), 24u) << "one compact PSB node";
}

TEST_F(OsClusteredTest, PsbUnmapShrinksVectorAndFreesNode) {
  MakeAspace(PteStrategy::kPartialSubblock);
  for (unsigned i = 0; i < 4; ++i) {
    ASSERT_TRUE(aspace_->TouchPage(VaOf(Vpn{0x200} + i)));
  }
  aspace_->UnmapRange(Vpn{0x200}, 2);
  EXPECT_FALSE(Lookup(Vpn{0x200}).has_value());
  EXPECT_TRUE(Lookup(Vpn{0x202}).has_value());
  aspace_->UnmapRange(Vpn{0x202}, 2);
  EXPECT_EQ(table_.SizeBytesPaperModel(), 0u);
  EXPECT_EQ(aspace_->resident_pages(), 0u);
}

TEST_F(OsClusteredTest, PsbPlacementFailureFallsBackToBasePte) {
  // A tiny frame pool: 2 blocks of 16.  Touch one page in each of three
  // virtual blocks; the third must break a reservation and get an unplaced
  // frame, mapped by a base PTE.
  mem::ReservationAllocator small(32, 16);
  AddressSpace as(0, table_, small,
                  AddressSpaceOptions{.strategy = PteStrategy::kPartialSubblock,
                                      .subblock_factor = 16});
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x100})));
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x200})));
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x300})));
  EXPECT_EQ(as.stats().placement_failures, 1u);
  const auto fill = Lookup(Vpn{0x300});
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->kind, MappingKind::kBase);
}

TEST_F(OsClusteredTest, OutOfMemoryReportsFalse) {
  mem::ReservationAllocator tiny(16, 16);
  AddressSpace as(0, table_, tiny, AddressSpaceOptions{.subblock_factor = 16});
  for (unsigned i = 0; i < 16; ++i) {
    ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x100} + i)));
  }
  EXPECT_FALSE(as.TouchPage(VaOf(Vpn{0x200})));
  EXPECT_EQ(as.stats().oom_faults, 1u);
}

TEST_F(OsClusteredTest, UnmapFreesFramesForReuse) {
  mem::ReservationAllocator tiny(16, 16);
  AddressSpace as(0, table_, tiny, AddressSpaceOptions{.subblock_factor = 16});
  for (unsigned i = 0; i < 16; ++i) {
    ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x100} + i)));
  }
  as.UnmapRange(Vpn{0x100}, 16);
  EXPECT_EQ(tiny.frames_used(), 0u);
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_TRUE(as.TouchPage(VaOf(Vpn{0x900} + i))) << "page " << i;
  }
}

TEST_F(OsClusteredTest, CensusCountsMixedBlocks) {
  MakeAspace(PteStrategy::kPartialSubblock);
  mem::ReservationAllocator small(32, 16);
  AddressSpace as(1, table_, small,
                  AddressSpaceOptions{.strategy = PteStrategy::kPartialSubblock,
                                      .subblock_factor = 16});
  // Fill two blocks' reservations, then force a third block's page to be
  // unplaced while also adding placed pages to it?  With 2 groups the third
  // block is entirely unplaced: it becomes a base-only block.
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x100})));
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x200})));
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x300})));
  const auto census = as.Census();
  EXPECT_EQ(census.psb_blocks, 2u);
  EXPECT_EQ(census.base_blocks, 1u);
}

// TouchPage remembers the block of the last fault.  Unmapping that whole
// block erases its state; faulting it again must build it afresh, under
// every PTE strategy (a stale memo would read freed memory, which the
// asan-ubsan build reports).
TEST(OsRefaultTest, RefaultAfterUnmappingTheLastFaultedBlock) {
  const std::pair<PteStrategy, MappingKind> kCases[] = {
      {PteStrategy::kBaseOnly, MappingKind::kBase},
      {PteStrategy::kSuperpage, MappingKind::kSuperpage},
      {PteStrategy::kPartialSubblock, MappingKind::kPartialSubblock},
  };
  for (const auto& [strategy, kind] : kCases) {
    SCOPED_TRACE(static_cast<int>(strategy));
    mem::CacheTouchModel cache(256);
    mem::ReservationAllocator frames(1 << 12, 16);
    core::ClusteredPageTable table(cache, {});
    AddressSpace as(0, table, frames,
                    AddressSpaceOptions{.strategy = strategy, .subblock_factor = 16});
    ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x200})));
    for (unsigned i = 0; i < 16; ++i) {
      ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x100} + i)));
    }
    as.UnmapRange(Vpn{0x100}, 16);
    EXPECT_FALSE(as.IsResident(Vpn{0x100}));
    for (unsigned i = 0; i < 16; ++i) {
      ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x100} + i)));
    }
    EXPECT_EQ(as.resident_pages(), 17u);
    EXPECT_EQ(as.stats().faults, 33u);
    EXPECT_EQ(as.stats().placement_failures, 0u);
    const AddressSpace::BlockCensus census = as.Census();
    EXPECT_EQ(census.super_blocks, strategy == PteStrategy::kSuperpage ? 1u : 0u);
    EXPECT_EQ(census.psb_blocks, strategy == PteStrategy::kPartialSubblock ? 2u : 0u);
    EXPECT_EQ(census.base_blocks, strategy == PteStrategy::kPartialSubblock ? 0u
                                  : strategy == PteStrategy::kSuperpage  ? 1u
                                                                         : 2u);
    EXPECT_EQ(table.live_translations(), 17u);
    std::optional<Ppn> block_ppn;
    for (unsigned i = 0; i < 16; ++i) {
      const Vpn vpn = Vpn{0x100} + i;
      EXPECT_TRUE(as.IsResident(vpn));
      mem::WalkScope scope(cache);
      const auto fill = table.Lookup(VaOf(vpn));
      ASSERT_TRUE(fill.has_value()) << "page " << i;
      EXPECT_EQ(fill->kind, kind) << "page " << i;
      // Properly placed: page i sits at slot i of one aligned frame block.
      const Ppn ppn = fill->Translate(vpn);
      if (!block_ppn) {
        block_ppn = ppn;
        EXPECT_TRUE(IsSuperpageAligned(ppn, kPage64K));
      }
      EXPECT_EQ(ppn, *block_ppn + i) << "page " << i;
    }
    const check::AuditReport pt_report = check::StructuralAuditor::AuditPageTable(table);
    EXPECT_TRUE(pt_report.ok()) << pt_report.Summary();
    const check::AuditReport mem_report = check::StructuralAuditor::Audit(frames);
    EXPECT_TRUE(mem_report.ok()) << mem_report.Summary();
  }
}

// The same policies must work via the multi-table hashed organization.
TEST(OsMultiHashedTest, SuperpagePolicyUsesBlockTable) {
  mem::CacheTouchModel cache(256);
  pt::MultiTableHashed table(cache, {});
  mem::ReservationAllocator frames(1 << 12, 16);
  AddressSpace as(0, table, frames,
                  AddressSpaceOptions{.strategy = PteStrategy::kSuperpage,
                                      .subblock_factor = 16});
  for (unsigned i = 0; i < 16; ++i) {
    ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x100} + i)));
  }
  EXPECT_EQ(as.stats().promotions, 1u);
  EXPECT_EQ(table.base_table().node_count(), 0u) << "base PTEs removed on promotion";
  EXPECT_EQ(table.block_table().node_count(), 1u);
  mem::WalkScope scope(cache);
  const auto fill = table.Lookup(VaOf(Vpn{0x108}));
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->kind, MappingKind::kSuperpage);
  EXPECT_EQ(fill->Translate(Vpn{0x108}), fill->word.ppn() + 8);
}

TEST(OsMultiHashedTest, PsbPolicyKeepsBaseTableForUnplacedOnly) {
  mem::CacheTouchModel cache(256);
  pt::MultiTableHashed table(cache, {});
  mem::ReservationAllocator frames(32, 16);
  AddressSpace as(0, table, frames,
                  AddressSpaceOptions{.strategy = PteStrategy::kPartialSubblock,
                                      .subblock_factor = 16});
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x100})));  // placed -> PSB
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x200})));  // placed -> PSB
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x300})));  // unplaced -> base
  EXPECT_EQ(table.block_table().node_count(), 2u);
  EXPECT_EQ(table.base_table().node_count(), 1u);
}

// A mixed block: a PSB PTE for the placed pages plus a base PTE for a page
// whose frame is unplaced (a straggler).  Unmapping a placed page shrinks
// the PSB vector, or removes the PSB PTE with the last placed page; either
// way the straggler must keep its translation.  Replicated tables store the
// PSB word at every site of the block, so the rewrite must skip the
// straggler's site.  The shadow oracle holds every mapping the OS made.
TEST(OsStragglerTest, PsbUpdatesKeepTheStragglersBasePte) {
  for (const sim::PtKind kind : {sim::PtKind::kLinear1, sim::PtKind::kForward,
                                 sim::PtKind::kClustered, sim::PtKind::kHashedMulti}) {
    for (const bool shrink : {true, false}) {
      SCOPED_TRACE(sim::ToString(kind) + (shrink ? " shrink" : " remove"));
      mem::CacheTouchModel cache(256);
      check::ShadowedPageTable table(cache, sim::MakePageTable(kind, cache, {}));
      // Two frame groups: the third block breaks a reservation, and the
      // later fault of 0x101 finds its block's group broken.
      mem::ReservationAllocator frames(32, 16);
      AddressSpace as(0, table, frames,
                      AddressSpaceOptions{.strategy = PteStrategy::kPartialSubblock,
                                          .subblock_factor = 16});
      ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x100})));
      if (shrink) {
        ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x10F})));
      }
      ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x200})));
      ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x300})));
      const std::uint64_t failures = as.stats().placement_failures;
      ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x101})));
      ASSERT_EQ(as.stats().placement_failures, failures + 1) << "0x101 must be a straggler";
      ASSERT_EQ(as.Census().mixed_blocks, 1u);

      as.UnmapRange(Vpn{0x100}, 1);
      EXPECT_TRUE(as.IsResident(Vpn{0x101}));
      for (unsigned i = 0; i < 16; ++i) {
        mem::WalkScope scope(cache);
        // The oracle checks every translation against the mappings made.
        (void)table.Lookup(VaOf(Vpn{0x100} + i));
      }
      {
        mem::WalkScope scope(cache);
        const auto fill = table.Lookup(VaOf(Vpn{0x101}));
        EXPECT_TRUE(fill.has_value()) << "the straggler lost its translation";
        EXPECT_EQ(fill.has_value() ? fill->kind : MappingKind::kPartialSubblock,
                  MappingKind::kBase);
      }
      EXPECT_EQ(table.live_translations(), as.resident_pages());
      const check::AuditReport oracle = table.FinalCheck();
      EXPECT_TRUE(oracle.ok()) << oracle.Summary();
      const check::AuditReport audit = check::StructuralAuditor::AuditPageTable(table.inner());
      EXPECT_TRUE(audit.ok()) << audit.Summary();
    }
  }
}

}  // namespace
}  // namespace cpt::os
