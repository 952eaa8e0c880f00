// Edge-case and stress tests across modules: boundary VPNs, mixed-format
// churn, memory-pressure policy behaviour, partial-range operations, and
// software-TLB consistency under structural change.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "common/rng.h"
#include "core/adaptive.h"
#include "core/clustered.h"
#include "mem/cache_model.h"
#include "os/address_space.h"
#include "pt/hashed.h"
#include "pt/software_tlb.h"
#include "sim/analytic.h"
#include "sim/machine.h"

namespace cpt {
namespace {

// ---------------------------------------------------------------------------
// Boundary addresses.
// ---------------------------------------------------------------------------

class BoundaryTest : public ::testing::TestWithParam<sim::PtKind> {};

TEST_P(BoundaryTest, ExtremeVpnsRoundTrip) {
  mem::CacheTouchModel cache(256);
  sim::MachineOptions opts;
  auto table = sim::MakePageTable(GetParam(), cache, opts);
  const Vpn extremes[] = {
      Vpn{0},                    // First page of the address space.
      Vpn{15},                   // Last page of block 0.
      Vpn{16},                   // First page of block 1.
      Vpn{(1ull << 52) - 1},     // Last page of the 64-bit VPN space.
      Vpn{(1ull << 52) - 16},    // First page of the last block.
      Vpn{1ull << 51},           // Kernel-half style address.
  };
  Ppn next{1};
  for (const Vpn vpn : extremes) {
    table->InsertBase(vpn, next++, Attr::ReadWrite());
  }
  next = Ppn{1};
  for (const Vpn vpn : extremes) {
    mem::WalkScope scope(cache);
    const auto fill = table->Lookup(VaOf(vpn));
    ASSERT_TRUE(fill.has_value()) << vpn;
    EXPECT_EQ(fill->Translate(vpn), next++) << vpn;
  }
  for (const Vpn vpn : extremes) {
    EXPECT_TRUE(table->RemoveBase(vpn)) << vpn;
  }
  EXPECT_EQ(table->SizeBytesPaperModel(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTables, BoundaryTest,
                         ::testing::Values(sim::PtKind::kLinear6, sim::PtKind::kForward,
                                           sim::PtKind::kHashed, sim::PtKind::kClustered,
                                           sim::PtKind::kClusteredAdaptive),
                         [](const ::testing::TestParamInfo<sim::PtKind>& param_info) {
                           std::string n = sim::ToString(param_info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

TEST(BoundaryTest, MaxPpnSurvivesEveryFormat) {
  mem::CacheTouchModel cache(256);
  core::ClusteredPageTable t(cache, {});
  t.InsertBase(Vpn{0x10}, kMaxPpn, Attr::ReadWrite());
  t.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{kPpnMask & ~0xFull}, Attr::ReadWrite());
  t.UpsertPartialSubblock(Vpn{0x8000}, 16, Ppn{kPpnMask & ~0xFull}, Attr::ReadWrite(), 0xFFFF);
  mem::WalkScope scope(cache);
  EXPECT_EQ(t.Lookup(VaOf(Vpn{0x10}))->Translate(Vpn{0x10}), kMaxPpn);
  EXPECT_EQ(t.Lookup(VaOf(Vpn{0x400F}))->Translate(Vpn{0x400F}), kMaxPpn);
  EXPECT_EQ(t.Lookup(VaOf(Vpn{0x800F}))->Translate(Vpn{0x800F}), kMaxPpn);
}

// ---------------------------------------------------------------------------
// Mixed-format churn on one clustered page block.
// ---------------------------------------------------------------------------

TEST(MixedFormatChurnTest, BlockCyclesThroughAllFormats) {
  mem::CacheTouchModel cache(256);
  core::ClusteredPageTable t(cache, {});
  const Vpn first{0x4000};
  for (int cycle = 0; cycle < 20; ++cycle) {
    // Base pages...
    for (unsigned i = 0; i < 16; ++i) {
      t.InsertBase(first + i, Ppn{0x100} + i, Attr::ReadWrite());
    }
    ASSERT_TRUE(t.BlockReadyForPromotion(VpbnOf(first, 16)));
    // ...promoted to a superpage...
    for (unsigned i = 0; i < 16; ++i) {
      t.RemoveBase(first + i);
    }
    t.InsertSuperpage(first, kPage64K, Ppn{0x100}, Attr::ReadWrite());
    {
      mem::WalkScope scope(cache);
      ASSERT_EQ(t.Lookup(VaOf(first + 7))->Translate(first + 7), Ppn{0x107});
    }
    // ...demoted to a partial-subblock PTE (one page evicted)...
    ASSERT_TRUE(t.RemoveSuperpage(first, kPage64K));
    t.UpsertPartialSubblock(first, 16, Ppn{0x100}, Attr::ReadWrite(), 0x7FFF);
    {
      mem::WalkScope scope(cache);
      ASSERT_FALSE(t.Lookup(VaOf(first + 15)).has_value());
      ASSERT_TRUE(t.Lookup(VaOf(first + 3)).has_value());
    }
    // ...and back to nothing.
    ASSERT_TRUE(t.RemovePartialSubblock(first, 16));
    ASSERT_EQ(t.SizeBytesPaperModel(), 0u) << "cycle " << cycle;
    ASSERT_EQ(t.node_count(), 0u);
  }
}

TEST(MixedFormatChurnTest, AdaptiveSurvivesPromoteDemoteStorm) {
  mem::CacheTouchModel cache(256);
  core::AdaptiveClusteredPageTable t(cache, {});
  Rng rng(4242);
  std::map<Vpn, Ppn> ref;
  const Vpn base{0x10000};
  for (int step = 0; step < 8000; ++step) {
    // Confined to 8 blocks so promote/demote churns constantly.
    const Vpn vpn = base + rng.Below(8 * 16);
    if (rng.Chance(0.55)) {
      const Ppn ppn{rng.Below(kPpnMask)};
      t.InsertBase(vpn, ppn, Attr::ReadWrite());
      ref[vpn] = ppn;
    } else {
      const bool removed = t.RemoveBase(vpn);
      ASSERT_EQ(removed, ref.erase(vpn) > 0) << "step " << step;
    }
  }
  EXPECT_EQ(t.live_translations(), ref.size());
  for (const auto& [vpn, ppn] : ref) {
    mem::WalkScope scope(cache);
    const auto fill = t.Lookup(VaOf(vpn));
    ASSERT_TRUE(fill.has_value());
    EXPECT_EQ(fill->Translate(vpn), ppn);
  }
}

// ---------------------------------------------------------------------------
// Partial-range operations.
// ---------------------------------------------------------------------------

TEST(PartialRangeTest, UnmapRangePartiallyOverlapsBlocks) {
  mem::CacheTouchModel cache(256);
  core::ClusteredPageTable table(cache, {});
  mem::ReservationAllocator frames(1 << 12, 16);
  os::AddressSpace as(0, table, frames, {});
  for (Vpn vpn{0x100}; vpn < Vpn{0x140}; ++vpn) {
    ASSERT_TRUE(as.TouchPage(VaOf(vpn)));
  }
  as.UnmapRange(Vpn{0x10A}, 0x20);  // Mid-block to mid-block.
  for (Vpn vpn{0x100}; vpn < Vpn{0x140}; ++vpn) {
    const bool inside = vpn >= Vpn{0x10A} && vpn < Vpn{0x12A};
    EXPECT_EQ(as.IsResident(vpn), !inside) << vpn;
    mem::WalkScope scope(cache);
    EXPECT_EQ(table.Lookup(VaOf(vpn)).has_value(), !inside) << vpn;
  }
  EXPECT_EQ(as.resident_pages(), 0x40u - 0x20u);
}

// ---------------------------------------------------------------------------
// OS policy under memory pressure.
// ---------------------------------------------------------------------------

TEST(PressureTest, SuperpagePolicyDegradesGracefully) {
  // Only 3 blocks of frames for 4 blocks of virtual pages, faulted
  // interleaved so reservations break: promotion must simply not happen
  // for unplaced blocks, and every page must still map correctly.
  mem::CacheTouchModel cache(256);
  core::ClusteredPageTable table(cache, {});
  mem::ReservationAllocator frames(48, 16);
  os::AddressSpace as(0, table, frames,
                      {.strategy = os::PteStrategy::kSuperpage, .subblock_factor = 16});
  unsigned mapped = 0;
  for (unsigned i = 0; i < 16 && mapped < 48; ++i) {
    for (unsigned blk = 0; blk < 4 && mapped < 48; ++blk) {
      if (as.TouchPage(VaOf(Vpn{0x100 + blk * 16 + i}))) {
        ++mapped;
      }
    }
  }
  EXPECT_EQ(mapped, 48u);
  unsigned translated = 0;
  for (unsigned blk = 0; blk < 4; ++blk) {
    for (unsigned i = 0; i < 16; ++i) {
      mem::WalkScope scope(cache);
      translated += table.Lookup(VaOf(Vpn{0x100 + blk * 16 + i})).has_value() ? 1 : 0;
    }
  }
  EXPECT_EQ(translated, 48u) << "every granted frame is mapped";
  const auto census = as.Census();
  EXPECT_EQ(census.super_blocks, 0u) << "interleaved faulting prevents full placement";
}

TEST(PressureTest, PsbPolicyMixesPlacedAndUnplacedWithinBlock) {
  mem::CacheTouchModel cache(256);
  core::ClusteredPageTable table(cache, {});
  // One reservable group; the second block's pages all go unplaced, and a
  // later fault on the FIRST block (whose reservation got broken) also
  // lands unplaced, producing a mixed block.
  mem::ReservationAllocator frames(16, 16);
  os::AddressSpace as(0, table, frames,
                      {.strategy = os::PteStrategy::kPartialSubblock, .subblock_factor = 16});
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x100})));  // Reserves the only group.
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x200})));  // Breaks it; unplaced.
  ASSERT_TRUE(as.TouchPage(VaOf(Vpn{0x101})));  // Reservation gone: unplaced.
  const auto census = as.Census();
  EXPECT_EQ(census.mixed_blocks, 1u);
  mem::WalkScope scope(cache);
  EXPECT_TRUE(table.Lookup(VaOf(Vpn{0x100})).has_value());
  EXPECT_TRUE(table.Lookup(VaOf(Vpn{0x101})).has_value());
  EXPECT_TRUE(table.Lookup(VaOf(Vpn{0x200})).has_value());
}

// ---------------------------------------------------------------------------
// Software TLB consistency under structural change.
// ---------------------------------------------------------------------------

TEST(SwTlbConsistencyTest, PromotionInvalidatesStaleBaseEntries) {
  mem::CacheTouchModel cache(256);
  auto backing = std::make_unique<core::ClusteredPageTable>(
      cache, core::ClusteredPageTable::Options{});
  pt::SoftwareTlb t(cache, std::move(backing), {.num_sets = 64, .ways = 2});
  for (unsigned i = 0; i < 16; ++i) {
    t.InsertBase(Vpn{0x4000} + i, Ppn{0x100} + i, Attr::ReadWrite());
  }
  // Cache a few base translations.
  for (unsigned i = 0; i < 16; ++i) {
    mem::WalkScope scope(cache);
    EXPECT_TRUE(t.Lookup(VaOf(Vpn{0x4000} + i)).has_value());
  }
  // OS promotes the block.
  for (unsigned i = 0; i < 16; ++i) {
    t.RemoveBase(Vpn{0x4000} + i);
  }
  t.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x200}, Attr::ReadWrite());
  for (unsigned i = 0; i < 16; ++i) {
    mem::WalkScope scope(cache);
    const auto fill = t.Lookup(VaOf(Vpn{0x4000} + i));
    ASSERT_TRUE(fill.has_value());
    EXPECT_EQ(fill->Translate(Vpn{0x4000} + i), Ppn{0x200} + i) << "stale swtlb entry served";
  }
}

TEST(SwTlbConsistencyTest, WaysEvictWithinOneSetOnly) {
  mem::CacheTouchModel cache(256);
  auto backing =
      std::make_unique<pt::HashedPageTable>(cache, pt::HashedPageTable::Options{});
  // Direct-mapped: two pages hashing to different sets never evict each
  // other, however often they alternate.
  pt::SoftwareTlb t(cache, std::move(backing), {.num_sets = 256, .ways = 1});
  t.InsertBase(Vpn{0x1}, Ppn{0x1}, Attr::ReadWrite());
  t.InsertBase(Vpn{0x2}, Ppn{0x2}, Attr::ReadWrite());
  // Only the probes' effect on the set contents and the miss count matters
  // here, so the fills are discarded.
  {
    mem::WalkScope scope(cache);
    static_cast<void>(t.Lookup(VaOf(Vpn{0x1})));
    static_cast<void>(t.Lookup(VaOf(Vpn{0x2})));
  }
  const auto misses = t.probe_misses();
  for (int i = 0; i < 10; ++i) {
    mem::WalkScope scope(cache);
    static_cast<void>(t.Lookup(VaOf(Vpn{0x1})));
    static_cast<void>(t.Lookup(VaOf(Vpn{0x2})));
  }
  EXPECT_EQ(t.probe_misses(), misses) << "no thrashing across distinct sets";
}

// ---------------------------------------------------------------------------
// Analytic model properties.
// ---------------------------------------------------------------------------

TEST(AnalyticPropertyTest, NactiveMonotoneInRegionSize) {
  Rng rng(55);
  std::vector<Vpn> mapped;
  for (int i = 0; i < 500; ++i) {
    mapped.push_back(Vpn{rng.Below(1 << 24)});
  }
  std::uint64_t prev = mapped.size() + 1;
  for (std::uint64_t region = 1; region <= (1 << 20); region *= 4) {
    const std::uint64_t n = sim::analytic::Nactive(mapped, region);
    EXPECT_LE(n, prev) << "region " << region;
    EXPECT_GE(n, 1u);
    prev = n;
  }
  EXPECT_EQ(sim::analytic::Nactive(mapped, 1),
            sim::analytic::Nactive(mapped, 1));  // Deterministic.
}

TEST(AnalyticPropertyTest, ClusteredNeverAboveSixteenthOfHashedBlocks) {
  Rng rng(56);
  std::vector<Vpn> mapped;
  for (int i = 0; i < 300; ++i) {
    mapped.push_back(Vpn{rng.Below(1 << 20)});
  }
  const std::uint64_t pages = sim::analytic::Nactive(mapped, 1);
  const std::uint64_t blocks = sim::analytic::Nactive(mapped, 16);
  EXPECT_GE(blocks * 16, pages);
  EXPECT_LE(blocks, pages);
}

}  // namespace
}  // namespace cpt
