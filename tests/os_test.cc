// Tests for the OS substrate: demand paging, page-size assignment policy,
// promotion/demotion, PSB vector maintenance, and unmap paths — against
// clustered and multi-table-hashed page tables, and the replicated (linear,
// forward-mapped) ones where PSB PTEs share a block with base PTEs.
#include "os/address_space.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/auditor.h"
#include "check/shadow_oracle.h"
#include "check/test_backdoor.h"
#include "common/rng.h"
#include "core/clustered.h"
#include "mem/cache_model.h"
#include "mem/reservation.h"
#include "pt/multi_hashed.h"
#include "sim/machine.h"

namespace cpt::os {
namespace {

// Every resident page of `as` in [first, first + npages) translates through
// `table` to the frame `as` granted it.
void ExpectResidentPagesMapToTheirFrames(const AddressSpace& as, pt::PageTable& table, Vpn first,
                                         std::uint64_t npages) {
  for (std::uint64_t i = 0; i < npages; ++i) {
    const Vpn vpn = first + i;
    const std::optional<Ppn> granted = check::TestBackdoor::GrantedFrame(as, vpn);
    if (!granted) {
      continue;
    }
    mem::WalkScope scope(table.cache());
    const auto fill = table.Lookup(VaOf(vpn));
    ASSERT_TRUE(fill.has_value()) << "resident page " << vpn << " has no translation";
    EXPECT_EQ(fill->Translate(vpn), *granted) << "page " << vpn;
  }
}

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
    const check::AuditReport pt_report = check::StructuralAuditor::Audit(table);
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
      const check::AuditReport audit = check::StructuralAuditor::Audit(table);
      EXPECT_TRUE(audit.ok()) << audit.Summary();
    }
  }
}

// The placed pages of a block sit in one aligned physical block: a PSB or
// superpage PTE maps every one of them from the block's base frame.  A block
// whose reservation was broken keeps its placed page in the broken group, so
// its later faults must not be placed in another group, even one freed since.
TEST(OsBrokenReservationTest, PlacedPagesStayInOneFrameBlock) {
  for (const sim::PtKind kind : {sim::PtKind::kClustered, sim::PtKind::kLinear1,
                                 sim::PtKind::kForward, sim::PtKind::kHashedMulti}) {
    for (const PteStrategy strategy : {PteStrategy::kPartialSubblock, PteStrategy::kSuperpage}) {
      SCOPED_TRACE(sim::ToString(kind) + " strategy " +
                   std::to_string(static_cast<int>(strategy)));
      mem::CacheTouchModel cache(256);
      const std::unique_ptr<pt::PageTable> table = sim::MakePageTable(kind, cache, {});
      mem::ReservationAllocator frames(48, 16);  // 3 groups of 16 frames.
      frames.EnableGrantLog();
      AddressSpace as(0, *table, frames,
                      AddressSpaceOptions{.strategy = strategy, .subblock_factor = 16});
      for (const Vpn vpn : {Vpn{0x100}, Vpn{0x200}, Vpn{0x300}}) {
        ASSERT_TRUE(as.TouchPage(VaOf(vpn)));
      }
      ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x400})));  // Breaks block 0x100's reservation.
      ASSERT_EQ(frames.reservations_broken(), 1u);
      as.UnmapRange(Vpn{0x200}, 1);  // Frees a whole group.
      ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x101})));
      EXPECT_EQ(as.stats().placement_failures, 2u) << "0x101 cannot be placed";
      ExpectResidentPagesMapToTheirFrames(as, *table, Vpn{0x100}, 16);
      for (unsigned i = 2; i < 16; ++i) {
        ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x100} + i)));
      }
      EXPECT_EQ(as.stats().promotions, 0u);
      EXPECT_EQ(frames.reservations_made(), 3u);
      EXPECT_EQ(as.stats().placement_failures,
                frames.grants() - frames.properly_placed_grants());
      ExpectResidentPagesMapToTheirFrames(as, *table, Vpn{0x100}, 16);
      ExpectResidentPagesMapToTheirFrames(as, *table, Vpn{0x300}, 0x200);
      const check::AuditReport pt_report = check::StructuralAuditor::Audit(*table);
      EXPECT_TRUE(pt_report.ok()) << pt_report.Summary();
      const check::AuditReport mem_report = check::StructuralAuditor::Audit(frames);
      EXPECT_TRUE(mem_report.ok()) << mem_report.Summary();
    }
  }
}

// Property: three address spaces share one small frame pool, and a seeded
// random mix of faults, unmaps and re-faults keeps it under pressure, so
// reservations are made, broken, freed and recycled.  After every step each
// resident page translates to the frame its address space granted it, every
// structure audits clean, and the pool's used frames are the resident pages.
TEST(OsPressurePropertyTest, ResidentPagesMapToTheirGrantedFrames) {
  constexpr unsigned kProcesses = 3;
  constexpr std::uint64_t kWindowPages = 8 * 16;  // 8 blocks per address space.
  const Vpn window_base{0x4000};
  for (const sim::PtKind kind : {sim::PtKind::kClustered, sim::PtKind::kLinear1,
                                 sim::PtKind::kForward, sim::PtKind::kHashedMulti}) {
    for (const PteStrategy strategy :
         {PteStrategy::kBaseOnly, PteStrategy::kSuperpage, PteStrategy::kPartialSubblock}) {
      SCOPED_TRACE(sim::ToString(kind) + " strategy " +
                   std::to_string(static_cast<int>(strategy)));
      sim::Machine machine(sim::MachineOptions{.pt_kind = kind,
                                               .phys_frames = 16 * 16,  // 16 groups.
                                               .audit = true,
                                               .strategy = strategy},
                           kProcesses);
      Rng rng(7);
      // Two thirds of the 384 window pages fit the pool at once.
      std::vector<std::pair<tlb::Asid, Vpn>> unmapped;  // Candidates for re-faults.
      for (int step = 0; step < 400; ++step) {
        const auto asid = static_cast<tlb::Asid>(rng.Below(kProcesses));
        AddressSpace& as = machine.address_space(asid);
        const std::uint64_t roll = rng.Below(100);
        if (roll < 50) {
          // Fault a run of pages, so that blocks fill and can be promoted.
          const Vpn first = window_base + rng.Below(kWindowPages);
          const std::uint64_t run = 1 + rng.Below(8);
          for (std::uint64_t i = 0; i < run && first + i < window_base + kWindowPages; ++i) {
            as.TouchPage(VaOf(first + i));
          }
        } else if (roll < 80) {
          const Vpn first = window_base + rng.Below(kWindowPages);
          const std::uint64_t npages =
              std::min<std::uint64_t>(1 + rng.Below(24), window_base + kWindowPages - first);
          as.UnmapRange(first, npages);
          unmapped.emplace_back(asid, first);
        } else if (!unmapped.empty()) {
          const auto [refault_asid, vpn] = unmapped[rng.Below(unmapped.size())];
          machine.address_space(refault_asid).TouchPage(VaOf(vpn));
        }

        std::uint64_t resident = 0;
        for (unsigned p = 0; p < kProcesses; ++p) {
          const auto id = static_cast<tlb::Asid>(p);
          resident += machine.address_space(id).resident_pages();
          ExpectResidentPagesMapToTheirFrames(machine.address_space(id), machine.page_table(id),
                                              window_base, kWindowPages);
        }
        ASSERT_EQ(machine.frames().frames_used(), resident) << "step " << step;
        const check::AuditReport report = machine.AuditAll();
        ASSERT_TRUE(report.ok()) << "step " << step << ": " << report.Summary();
        if (HasFailure()) {
          FAIL() << "step " << step;
        }
      }
      EXPECT_GT(machine.frames().reservations_broken(), 0u) << "the pool was never short";
    }
  }
}

}  // namespace
}  // namespace cpt::os
