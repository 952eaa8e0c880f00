// Unit and property tests for the memory substrate: simulated-address
// allocator, physical frame pool, and the page-reservation allocator.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "check/auditor.h"
#include "common/rng.h"
#include "mem/phys_mem.h"
#include "mem/reservation.h"
#include "mem/sim_alloc.h"

namespace cpt::mem {
namespace {

// ---------------------------------------------------------------------------
// SimAllocator
// ---------------------------------------------------------------------------

TEST(SimAllocatorTest, AllocationsAreLineAlignedByDefault) {
  SimAllocator a(256);
  for (int i = 0; i < 16; ++i) {
    const PhysAddr addr = a.Allocate(24);
    EXPECT_EQ(addr.raw() % 256, 0u) << "allocation " << i;
  }
}

TEST(SimAllocatorTest, PageSizedAllocationsArePageAligned) {
  SimAllocator a(256);
  const PhysAddr addr = a.Allocate(kBasePageSize);
  EXPECT_EQ(addr.raw() % kBasePageSize, 0u);
}

TEST(SimAllocatorTest, LiveBytesTrackAllocateAndFree) {
  SimAllocator a(256);
  const PhysAddr p1 = a.Allocate(100);
  const PhysAddr p2 = a.Allocate(200);
  EXPECT_EQ(a.bytes_live(), 300u);
  a.Free(p1, 100);
  EXPECT_EQ(a.bytes_live(), 200u);
  a.Free(p2, 200);
  EXPECT_EQ(a.bytes_live(), 0u);
  EXPECT_EQ(a.high_water_bytes(), 300u);
}

TEST(SimAllocatorTest, FreedBlocksAreReused) {
  SimAllocator a(256);
  const PhysAddr p1 = a.Allocate(144);
  a.Free(p1, 144);
  const PhysAddr p2 = a.Allocate(144);
  EXPECT_EQ(p1, p2);
}

TEST(SimAllocatorTest, DistinctAllocatorsUseDisjointRegions) {
  SimAllocator a(256);
  SimAllocator b(256);
  const PhysAddr pa = a.Allocate(64);
  const PhysAddr pb = b.Allocate(64);
  EXPECT_NE(pa.raw() >> 44, pb.raw() >> 44) << "regions must not alias in the line model";
}

TEST(SimAllocatorTest, NeverReturnsNull) {
  SimAllocator a(64);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(a.Allocate(8), PhysAddr{0});
  }
}

// Property: allocations of mixed sizes never overlap.
TEST(SimAllocatorPropertyTest, NoOverlappingAllocations) {
  SimAllocator a(128);
  Rng rng(42);
  struct Block {
    PhysAddr addr;
    std::uint64_t size;
  };
  std::vector<Block> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.Chance(0.6)) {
      const std::uint64_t size = 8 + rng.Below(300);
      const PhysAddr addr = a.Allocate(size);
      for (const Block& b : live) {
        EXPECT_FALSE(addr < b.addr + b.size && b.addr < addr + size)
            << "overlap at step " << step;
      }
      live.push_back({addr, size});
    } else {
      const std::size_t i = rng.Below(live.size());
      a.Free(live[i].addr, live[i].size);
      live[i] = live.back();
      live.pop_back();
    }
  }
}

// ---------------------------------------------------------------------------
// PhysicalMemory
// ---------------------------------------------------------------------------

TEST(PhysicalMemoryTest, AllocatesAllFramesExactlyOnce) {
  PhysicalMemory pm(64);
  std::set<Ppn> seen;
  for (int i = 0; i < 64; ++i) {
    auto f = pm.AllocFrame();
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(seen.insert(*f).second) << "duplicate frame " << *f;
  }
  EXPECT_FALSE(pm.AllocFrame().has_value());
  EXPECT_EQ(pm.frames_free(), 0u);
}

TEST(PhysicalMemoryTest, FreeMakesFrameAvailableAgain) {
  PhysicalMemory pm(4);
  const Ppn a = *pm.AllocFrame();
  pm.FreeFrame(a);
  EXPECT_TRUE(pm.IsFree(a));
  EXPECT_EQ(pm.frames_free(), 4u);
}

TEST(PhysicalMemoryTest, AllocSpecificRespectsOccupancy) {
  PhysicalMemory pm(8);
  EXPECT_TRUE(pm.AllocSpecific(Ppn{5}));
  EXPECT_FALSE(pm.AllocSpecific(Ppn{5}));
  pm.FreeFrame(Ppn{5});
  EXPECT_TRUE(pm.AllocSpecific(Ppn{5}));
}

// ---------------------------------------------------------------------------
// ReservationAllocator
// ---------------------------------------------------------------------------

// Keeps one reservation handle per block key, as an address space keeps one
// in each block's state, and allocates through it.
class Blocks {
 public:
  explicit Blocks(ReservationAllocator& ra) : ra_(ra) {}

  std::optional<ReservationAllocator::FrameGrant> Allocate(std::uint64_t key, unsigned boff) {
    return ra_.Allocate(key, boff, handles_.try_emplace(key, ReservationAllocator::kNoGroup)
                                       .first->second);
  }

 private:
  ReservationAllocator& ra_;
  std::unordered_map<std::uint64_t, ReservationAllocator::GroupId> handles_;
};

TEST(ReservationTest, FirstTouchReservesAlignedBlock) {
  ReservationAllocator ra(256, 16);
  Blocks blocks(ra);
  const auto g = blocks.Allocate(/*block_key=*/1, /*boff=*/5);
  ASSERT_TRUE(g.has_value());
  EXPECT_TRUE(g->properly_placed);
  EXPECT_EQ(g->ppn.raw() % 16, 5u) << "frame must sit at its block offset";
}

TEST(ReservationTest, SameBlockGetsMatchingSlots) {
  ReservationAllocator ra(256, 16);
  Blocks blocks(ra);
  const Ppn base = blocks.Allocate(7, 0)->ppn;
  for (unsigned boff = 1; boff < 16; ++boff) {
    const auto g = blocks.Allocate(7, boff);
    ASSERT_TRUE(g.has_value());
    EXPECT_TRUE(g->properly_placed);
    EXPECT_EQ(g->ppn, base + boff);
  }
}

TEST(ReservationTest, DistinctBlocksGetDistinctGroups) {
  ReservationAllocator ra(256, 16);
  Blocks blocks(ra);
  const Ppn a = blocks.Allocate(1, 0)->ppn;
  const Ppn b = blocks.Allocate(2, 0)->ppn;
  EXPECT_NE(a.raw() / 16, b.raw() / 16);
}

TEST(ReservationTest, PressureBreaksReservationsButStillAllocates) {
  // 2 groups of 4 frames; reserve both, then demand more single frames.
  ReservationAllocator ra(8, 4);
  Blocks blocks(ra);
  ASSERT_TRUE(blocks.Allocate(1, 0));  // Reserves group A (3 slots unused).
  ASSERT_TRUE(blocks.Allocate(2, 0));  // Reserves group B (3 slots unused).
  // Six more single-page blocks: must break the reservations.
  unsigned placed = 0;
  for (int i = 0; i < 6; ++i) {
    const auto g = blocks.Allocate(100 + i, 0);
    ASSERT_TRUE(g.has_value()) << "frame " << i;
    placed += g->properly_placed ? 1 : 0;
  }
  EXPECT_EQ(placed, 0u) << "pressure allocations are not properly placed";
  EXPECT_EQ(ra.frames_used(), 8u);
  EXPECT_FALSE(blocks.Allocate(200, 0).has_value()) << "memory exhausted";
  EXPECT_GE(ra.reservations_broken(), 2u);
}

TEST(ReservationTest, FreeReturnsFramesForReuse) {
  ReservationAllocator ra(16, 4);
  Blocks blocks(ra);
  std::vector<Ppn> got;
  for (unsigned k = 0; k < 4; ++k) {
    got.push_back(blocks.Allocate(k, 0)->ppn);
  }
  for (const Ppn p : got) {
    ra.Free(p);
  }
  EXPECT_EQ(ra.frames_used(), 0u);
  // Everything can be reallocated, properly placed again.
  for (unsigned k = 10; k < 14; ++k) {
    const auto g = blocks.Allocate(k, 3);
    ASSERT_TRUE(g.has_value());
    EXPECT_TRUE(g->properly_placed);
  }
}

TEST(ReservationTest, FullyFreedReservedGroupBecomesFreeAgain) {
  ReservationAllocator ra(8, 4);
  Blocks blocks(ra);
  const Ppn a = blocks.Allocate(1, 2)->ppn;
  ra.Free(a);
  // The group must be reusable for a different block with full placement.
  const auto g1 = blocks.Allocate(2, 0);
  const auto g2 = blocks.Allocate(3, 0);
  ASSERT_TRUE(g1 && g2);
  EXPECT_TRUE(g1->properly_placed);
  EXPECT_TRUE(g2->properly_placed);
}

// Groups are granted lowest first, and a group freed back to the pool is
// granted again before any never-granted one, the last freed first.  The
// audit sees never-granted groups as free and on the free list.
TEST(ReservationTest, GrantOrderIsRecycledFirstThenFreshAscending) {
  ReservationAllocator ra(8 * 4, 4);  // 8 groups of 4 frames.
  Blocks blocks(ra);
  const auto audit_ok = [&ra] {
    const check::AuditReport report = check::StructuralAuditor::Audit(ra);
    EXPECT_TRUE(report.ok()) << report.Summary();
  };
  const auto group_of_next_grant = [&blocks](std::uint64_t key) {
    const auto grant = blocks.Allocate(key, 0);
    EXPECT_TRUE(grant.has_value());
    return grant ? grant->ppn.raw() / 4 : ~std::uint64_t{0};
  };
  audit_ok();
  for (std::uint64_t g = 0; g < 4; ++g) {
    EXPECT_EQ(group_of_next_grant(g), g);
  }
  audit_ok();
  ra.Free(Ppn{1 * 4});
  ra.Free(Ppn{2 * 4});
  audit_ok();
  EXPECT_EQ(group_of_next_grant(10), 2u);
  EXPECT_EQ(group_of_next_grant(11), 1u);
  EXPECT_EQ(group_of_next_grant(12), 4u);
  audit_ok();
  // Exhaust memory: the remaining groups, then the broken reservations'
  // spare frames, then nothing.
  std::uint64_t key = 100;
  while (blocks.Allocate(key++, 0).has_value()) {
  }
  EXPECT_EQ(ra.frames_used(), ra.num_frames());
  EXPECT_GT(ra.reservations_broken(), 0u);
  audit_ok();
}

// A block's handle still names its group after another key's Allocate
// breaks that reservation.  It must not let the old owner keep drawing
// placed frames from the now-fragmented group.
TEST(ReservationTest, BrokenLastOwnerFallsBackToUnplacedFrames) {
  ReservationAllocator ra(8, 4);  // 2 groups of 4 frames.
  Blocks blocks(ra);
  ra.EnableGrantLog();
  ASSERT_EQ(blocks.Allocate(1, 0)->ppn, Ppn{0});  // Key 1 reserves group 0.
  ASSERT_EQ(blocks.Allocate(2, 0)->ppn, Ppn{4});  // Key 2 reserves group 1.
  ASSERT_EQ(blocks.Allocate(1, 1)->ppn, Ppn{1});  // Key 1's group is the last used.
  // No free group: key 3 breaks the oldest reservation, key 1's.
  const auto stolen = blocks.Allocate(3, 0);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_FALSE(stolen->properly_placed);
  EXPECT_EQ(ra.reservations_broken(), 1u);
  const auto after = blocks.Allocate(1, 2);
  ASSERT_TRUE(after.has_value());
  EXPECT_FALSE(after->properly_placed) << "key 1 no longer owns a reservation";
  EXPECT_EQ(after->ppn.raw() / 4, 0u) << "the broken group's last spare frame";
  const check::AuditReport report = check::StructuralAuditor::Audit(ra);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Freeing a block's group back to empty releases its reservation; when
// another key then reserves that group, the old owner's handle still names
// it, and its next Allocate must reserve a fresh group, not write into the
// other key's.
TEST(ReservationTest, FreedLastOwnerReservesAFreshGroup) {
  ReservationAllocator ra(8, 4);  // 2 groups of 4 frames.
  Blocks blocks(ra);
  ra.EnableGrantLog();
  ASSERT_EQ(blocks.Allocate(1, 3)->ppn, Ppn{3});  // Key 1 reserves group 0.
  ra.Free(Ppn{3});                             // Group 0 is free again.
  ASSERT_EQ(blocks.Allocate(2, 1)->ppn, Ppn{1});  // Key 2 takes recycled group 0.
  const auto grant = blocks.Allocate(1, 3);
  ASSERT_TRUE(grant.has_value());
  EXPECT_TRUE(grant->properly_placed);
  EXPECT_EQ(grant->ppn, Ppn{7}) << "slot 3 of fresh group 1";
  EXPECT_EQ(ra.reservations_made(), 3u);
  const check::AuditReport report = check::StructuralAuditor::Audit(ra);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// A block whose reservation was broken keeps its placed pages in the broken
// group, so its later faults get unplaced frames even when a free group
// would allow a fresh reservation: a placed frame there would put the
// block's placed pages in two physical blocks.  With the fragment pool
// empty, the free group is fragmented instead of reserved.
TEST(ReservationTest, BrokenBlockGetsNoPlacedFrameInAnotherGroup) {
  ReservationAllocator ra(8, 4);  // 2 groups of 4 frames.
  Blocks blocks(ra);
  ra.EnableGrantLog();
  ASSERT_EQ(blocks.Allocate(1, 0)->ppn, Ppn{0});  // Key 1 reserves group 0.
  ASSERT_EQ(blocks.Allocate(2, 0)->ppn, Ppn{4});  // Key 2 reserves group 1.
  for (std::uint64_t key = 3; key <= 5; ++key) {  // Break key 1's and drain it.
    const auto grant = blocks.Allocate(key, 0);
    ASSERT_TRUE(grant.has_value());
    EXPECT_EQ(grant->ppn.raw() / 4, 0u);
  }
  EXPECT_EQ(ra.reservations_broken(), 1u);
  ra.Free(Ppn{4});  // Group 1 is free again.
  const auto grant = blocks.Allocate(1, 1);
  ASSERT_TRUE(grant.has_value());
  EXPECT_FALSE(grant->properly_placed) << "key 1's placed page sits in group 0";
  EXPECT_EQ(grant->ppn.raw() / 4, 1u) << "a frame of the fragmented free group";
  EXPECT_EQ(ra.reservations_made(), 2u);
  // The fragmented group's other frames serve the next fault of any block.
  const auto next = blocks.Allocate(6, 0);
  ASSERT_TRUE(next.has_value());
  EXPECT_FALSE(next->properly_placed);
  EXPECT_EQ(next->ppn.raw() / 4, 1u);
  EXPECT_EQ(ra.reservations_broken(), 1u);
  const check::AuditReport report = check::StructuralAuditor::Audit(ra);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// Under pressure the least-recently-reserved reservation is broken first.
// A group freed and reserved again is the newest reservation, although its
// first reservation still has an entry at the head of the steal queue.
TEST(ReservationTest, BreaksTheOldestLiveReservationFirst) {
  ReservationAllocator ra(16, 4);  // 4 groups of 4 frames.
  Blocks blocks(ra);
  ra.EnableGrantLog();
  ASSERT_EQ(blocks.Allocate(1, 0)->ppn, Ppn{0});  // Key 1 reserves group 0.
  ASSERT_EQ(blocks.Allocate(2, 0)->ppn, Ppn{4});  // Key 2 reserves group 1.
  ra.Free(Ppn{0});                                // Group 0 is free again.
  ASSERT_EQ(blocks.Allocate(3, 0)->ppn, Ppn{0});  // Key 3 takes recycled group 0.
  ASSERT_EQ(blocks.Allocate(4, 0)->ppn, Ppn{8});
  ASSERT_EQ(blocks.Allocate(5, 0)->ppn, Ppn{12});
  // No free group: key 6 breaks the oldest live reservation, key 2's.
  const auto stolen = blocks.Allocate(6, 0);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_FALSE(stolen->properly_placed);
  EXPECT_EQ(stolen->ppn.raw() / 4, 1u) << "a spare frame of key 2's group";
  EXPECT_EQ(ra.reservations_broken(), 1u);
  const auto kept = blocks.Allocate(3, 1);
  ASSERT_TRUE(kept.has_value());
  EXPECT_TRUE(kept->properly_placed) << "key 3 reserved last but one";
  EXPECT_EQ(kept->ppn, Ppn{1});
  const auto broken = blocks.Allocate(2, 1);
  ASSERT_TRUE(broken.has_value());
  EXPECT_FALSE(broken->properly_placed);
  const check::AuditReport report = check::StructuralAuditor::Audit(ra);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ReservationTest, PlacementStatsAccumulate) {
  ReservationAllocator ra(64, 16);
  Blocks blocks(ra);
  for (unsigned boff = 0; boff < 16; ++boff) {
    blocks.Allocate(5, boff);
  }
  EXPECT_EQ(ra.grants(), 16u);
  EXPECT_EQ(ra.properly_placed_grants(), 16u);
  EXPECT_EQ(ra.reservations_made(), 1u);
}

// Property: no frame is ever granted twice while in use, under a random
// mix of allocations and frees with heavy memory pressure.
TEST(ReservationPropertyTest, NoDoubleGrantsUnderPressure) {
  ReservationAllocator ra(128, 8);
  Blocks blocks(ra);
  Rng rng(99);
  struct Owner {
    std::uint64_t key;
    unsigned boff;
  };
  std::unordered_map<Ppn, Owner> in_use;                        // ppn -> (key, boff)
  std::unordered_map<std::uint64_t, std::uint32_t> block_masks;  // key -> allocated boffs
  for (int step = 0; step < 5000; ++step) {
    if (rng.Chance(0.55)) {
      const std::uint64_t key = rng.Below(40);
      const unsigned boff = static_cast<unsigned>(rng.Below(8));
      if (block_masks[key] & (1u << boff)) {
        continue;  // Already allocated (the API forbids double-alloc).
      }
      const auto g = blocks.Allocate(key, boff);
      if (!g.has_value()) {
        EXPECT_EQ(ra.frames_free(), 0u) << "refusal only when truly full";
        continue;
      }
      EXPECT_EQ(in_use.count(g->ppn), 0u) << "double grant at step " << step;
      if (g->properly_placed) {
        EXPECT_EQ(g->ppn.raw() % 8, boff);
      }
      in_use[g->ppn] = Owner{key, boff};
      block_masks[key] |= 1u << boff;
    } else if (!in_use.empty()) {
      auto it = in_use.begin();
      std::advance(it, rng.Below(in_use.size()));
      ra.Free(it->first);
      block_masks[it->second.key] &= ~(1u << it->second.boff);
      in_use.erase(it);
    }
    EXPECT_EQ(ra.frames_used(), in_use.size());
  }
}

TEST(ReservationTest, SubblockFactorAccessor) {
  ReservationAllocator ra(64, 4);
  EXPECT_EQ(ra.subblock_factor(), 4u);
  EXPECT_EQ(ra.num_frames(), 64u);
}

TEST(ReservationTest, RoundsDownToWholeBlocks) {
  ReservationAllocator ra(19, 4);  // 19 frames -> 4 groups of 4.
  EXPECT_EQ(ra.num_frames(), 16u);
}

}  // namespace
}  // namespace cpt::mem
