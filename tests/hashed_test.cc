// Unit tests for the hashed page table and its superpage/PSB strategies:
// chain behaviour, block-keyed tables, two-table search order, and the
// superpage-index organization's chain packing.
#include "pt/hashed.h"

#include <gtest/gtest.h>

#include "accounting_sequence.h"
#include "common/rng.h"
#include "mem/cache_model.h"
#include "pt/multi_hashed.h"

namespace cpt::pt {
namespace {

class HashedTest : public ::testing::Test {
 protected:
  HashedTest() : cache_(256), table_(cache_, {}) {}

  std::optional<TlbFill> Lookup(Vpn vpn) {
    mem::WalkScope scope(cache_);
    return table_.Lookup(VaOf(vpn));
  }

  unsigned LinesFor(Vpn vpn) {
    cache_.Reset();
    Lookup(vpn);
    return static_cast<unsigned>(cache_.total_lines());
  }

  mem::CacheTouchModel cache_;
  HashedPageTable table_;
};

TEST_F(HashedTest, TwentyFourBytesPerPte) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    table_.InsertBase(Vpn{0x5000 + i}, Ppn{i}, Attr::ReadWrite());
  }
  EXPECT_EQ(table_.SizeBytesPaperModel(), 240u);
  EXPECT_EQ(table_.node_count(), 10u);
}

TEST_F(HashedTest, SingleNodeLookupTouchesOneLine) {
  table_.InsertBase(Vpn{0x100}, Ppn{1}, Attr::ReadWrite());
  EXPECT_EQ(LinesFor(Vpn{0x100}), 1u);
}

TEST_F(HashedTest, EmptyBucketProbeTouchesHeadLine) {
  EXPECT_EQ(LinesFor(Vpn{0xABCDE}), 1u) << "the embedded head slot is always read";
}

TEST_F(HashedTest, ChainCollisionsCostExtraLines) {
  // Force collisions with a tiny table: 4 buckets, 64 PTEs -> chains of ~16.
  mem::CacheTouchModel cache(256);
  HashedPageTable t(cache, {.num_buckets = 4});
  for (Vpn vpn{}; vpn < Vpn{64}; ++vpn) {
    t.InsertBase(vpn, Ppn{vpn.raw()}, Attr::ReadWrite());
  }
  const Histogram chains = t.ChainLengthHistogram();
  EXPECT_EQ(chains.total(), 4u);
  EXPECT_DOUBLE_EQ(chains.mean(), 16.0);
  // Looking up the chain tail touches many distinct lines.
  std::uint64_t max_lines = 0;
  for (Vpn vpn{}; vpn < Vpn{64}; ++vpn) {
    cache.Reset();
    {
      mem::WalkScope scope(cache);
      ASSERT_TRUE(t.Lookup(VaOf(vpn)).has_value());
    }
    max_lines = std::max(max_lines, cache.total_lines());
  }
  EXPECT_GE(max_lines, 8u);
}

TEST_F(HashedTest, BlockKeyedTableStoresSuperpageAndPsb) {
  mem::CacheTouchModel cache(256);
  HashedPageTable block(cache, {.tag_shift = 4});
  block.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
  {
    mem::WalkScope scope(cache);
    const auto fill = block.Lookup(VaOf(Vpn{0x4009}));
    ASSERT_TRUE(fill.has_value());
    EXPECT_EQ(fill->Translate(Vpn{0x4009}), Ppn{0x109});
  }
  block.UpsertPartialSubblock(Vpn{0x8000}, 16, Ppn{0x200}, Attr::ReadWrite(), 0x0010);
  {
    mem::WalkScope scope(cache);
    EXPECT_TRUE(block.Lookup(VaOf(Vpn{0x8004})).has_value());
    EXPECT_FALSE(block.Lookup(VaOf(Vpn{0x8005})).has_value());
  }
  EXPECT_EQ(block.live_translations(), 17u);
}

TEST_F(HashedTest, UpsertReplacesPsbVectorInPlace) {
  mem::CacheTouchModel cache(256);
  HashedPageTable block(cache, {.tag_shift = 4});
  block.UpsertPartialSubblock(Vpn{0x8000}, 16, Ppn{0x200}, Attr::ReadWrite(), 0x0001);
  block.UpsertPartialSubblock(Vpn{0x8000}, 16, Ppn{0x200}, Attr::ReadWrite(), 0x0003);
  EXPECT_EQ(block.node_count(), 1u);
  EXPECT_EQ(block.live_translations(), 2u);
}

TEST_F(HashedTest, PeekDoesNotTouchCache) {
  table_.InsertBase(Vpn{0x42}, Ppn{0x7}, Attr::ReadWrite());
  cache_.Reset();
  const auto word = table_.Peek(0x42);  // Peek takes a raw chain key (tag_shift == 0).
  ASSERT_TRUE(word.has_value());
  EXPECT_EQ(word->ppn(), Ppn{0x7});
  EXPECT_EQ(cache_.total_lines(), 0u);
}

TEST_F(HashedTest, RandomChurnKeepsStructureConsistent) {
  Rng rng(17);
  std::uint64_t inserted = 0;
  for (int step = 0; step < 3000; ++step) {
    const Vpn vpn{rng.Below(2000)};
    if (rng.Chance(0.6)) {
      const bool fresh = !table_.Peek(vpn.raw()).has_value();
      table_.InsertBase(vpn, Ppn{vpn.raw()}, Attr::ReadWrite());
      inserted += fresh ? 1 : 0;
    } else {
      inserted -= table_.RemoveBase(vpn) ? 1 : 0;
    }
    ASSERT_EQ(table_.node_count(), inserted);
    ASSERT_EQ(table_.SizeBytesPaperModel(), inserted * 24);
  }
}

// ---------------------------------------------------------------------------
// MultiTableHashed
// ---------------------------------------------------------------------------

TEST(MultiTableHashedTest, BaseFirstPaysTwoSearchesForSuperpages) {
  mem::CacheTouchModel cache(256);
  MultiTableHashed t(cache, {});
  t.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
  t.InsertBase(Vpn{0x9000}, Ppn{0x1}, Attr::ReadWrite());
  cache.Reset();
  {
    mem::WalkScope scope(cache);
    ASSERT_TRUE(t.Lookup(VaOf(Vpn{0x4005})).has_value());
  }
  const auto superpage_lines = cache.total_lines();
  cache.Reset();
  {
    mem::WalkScope scope(cache);
    ASSERT_TRUE(t.Lookup(VaOf(Vpn{0x9000})).has_value());
  }
  const auto base_lines = cache.total_lines();
  EXPECT_EQ(base_lines, 1u) << "base PTE found in the first table";
  EXPECT_EQ(superpage_lines, 2u) << "superpage PTE pays the empty 4KB search first";
}

TEST(MultiTableHashedTest, BlockFirstReversesTheCost) {
  mem::CacheTouchModel cache(256);
  MultiTableHashed t(cache, {.order = MultiTableHashed::SearchOrder::kBlockFirst});
  t.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
  t.InsertBase(Vpn{0x9000}, Ppn{0x1}, Attr::ReadWrite());
  cache.Reset();
  {
    mem::WalkScope scope(cache);
    ASSERT_TRUE(t.Lookup(VaOf(Vpn{0x4005})).has_value());
  }
  EXPECT_EQ(cache.total_lines(), 1u);
  cache.Reset();
  {
    mem::WalkScope scope(cache);
    ASSERT_TRUE(t.Lookup(VaOf(Vpn{0x9000})).has_value());
  }
  EXPECT_EQ(cache.total_lines(), 2u);
}

TEST(MultiTableHashedTest, SizeSumsBothTables) {
  mem::CacheTouchModel cache(256);
  MultiTableHashed t(cache, {});
  t.InsertBase(Vpn{0x9000}, Ppn{0x1}, Attr::ReadWrite());
  t.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
  EXPECT_EQ(t.SizeBytesPaperModel(), 48u);
  EXPECT_EQ(t.live_translations(), 17u);
}

TEST(MultiTableHashedTest, ProtectRangeCoversBothTables) {
  mem::CacheTouchModel cache(256);
  MultiTableHashed t(cache, {});
  t.InsertBase(Vpn{0x4010}, Ppn{0x1}, Attr::ReadWrite());
  t.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
  t.ProtectRange(Vpn{0x4000}, 32, Attr::ReadOnly());
  mem::WalkScope scope(cache);
  EXPECT_EQ(t.Lookup(VaOf(Vpn{0x4005}))->word.attr(), Attr::ReadOnly());
  EXPECT_EQ(t.Lookup(VaOf(Vpn{0x4010}))->word.attr(), Attr::ReadOnly());
}

// ---------------------------------------------------------------------------
// Superpage-index hashed: one block-keyed table holds every PTE.
// ---------------------------------------------------------------------------

HashedPageTable::Options SuperpageIndex(std::uint32_t num_buckets = kDefaultHashBuckets) {
  return {.num_buckets = num_buckets, .tag_shift = 4};
}

TEST(SuperpageIndexTest, OneProbeButLongerChains) {
  mem::CacheTouchModel cache(256);
  HashedPageTable t(cache, SuperpageIndex());
  // Sixteen base pages of one block all chain into one bucket.
  for (unsigned i = 0; i < 16; ++i) {
    t.InsertBase(Vpn{0x100} + i, Ppn{i}, Attr::ReadWrite());
  }
  const Histogram chains = t.ChainLengthHistogram();
  EXPECT_EQ(chains.max_value(), 16u) << "the whole block shares a bucket";
  // A lookup still needs only one bucket search, but may visit many nodes.
  cache.Reset();
  {
    mem::WalkScope scope(cache);
    ASSERT_TRUE(t.Lookup(VaOf(Vpn{0x100})).has_value());
  }
  EXPECT_GE(cache.total_lines(), 1u);
}

TEST(SuperpageIndexTest, PsbPteShortensChains) {
  mem::CacheTouchModel cache(256);
  HashedPageTable t(cache, SuperpageIndex());
  t.UpsertPartialSubblock(Vpn{0x100}, 16, Ppn{0x40}, Attr::ReadWrite(), 0xFFFF);
  EXPECT_EQ(t.ChainLengthHistogram().max_value(), 1u)
      << "one PSB PTE replaces sixteen chained base PTEs (Section 4.3)";
  for (unsigned i = 0; i < 16; ++i) {
    mem::WalkScope scope(cache);
    EXPECT_TRUE(t.Lookup(VaOf(Vpn{0x100} + i)).has_value());
  }
}

TEST(SuperpageIndexTest, SmallerSuperpagesCoResideInBucket) {
  mem::CacheTouchModel cache(256);
  HashedPageTable t(cache, SuperpageIndex());
  t.InsertSuperpage(Vpn{0x100}, kPage16K, Ppn{0x20}, Attr::ReadWrite());   // Pages 0-3.
  t.InsertSuperpage(Vpn{0x104}, kPage16K, Ppn{0x60}, Attr::ReadWrite());   // Pages 4-7.
  t.InsertBase(Vpn{0x108}, Ppn{0x99}, Attr::ReadWrite());
  mem::WalkScope scope(cache);
  EXPECT_EQ(t.Lookup(VaOf(Vpn{0x102}))->Translate(Vpn{0x102}), Ppn{0x22});
  EXPECT_EQ(t.Lookup(VaOf(Vpn{0x105}))->Translate(Vpn{0x105}), Ppn{0x61});
  EXPECT_EQ(t.Lookup(VaOf(Vpn{0x108}))->Translate(Vpn{0x108}), Ppn{0x99});
  EXPECT_FALSE(t.Lookup(VaOf(Vpn{0x109})).has_value());
}

TEST(SuperpageIndexTest, RejectsSuperpagesLargerThanIndex) {
  // A 64KB superpage equals the index size and is fine; larger must be
  // "handled another way" (Section 4.2) and is rejected by contract, in the
  // superpage-index table and in the two-table organization's block table.
  mem::CacheTouchModel cache(256);
  HashedPageTable spindex(cache, SuperpageIndex());
  MultiTableHashed multi(cache, {});
  for (PageTable* t : std::initializer_list<PageTable*>{&spindex, &multi}) {
    t->InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
    EXPECT_EQ(t->live_translations(), 16u);
    EXPECT_DEBUG_DEATH(t->InsertSuperpage(Vpn{0x8000}, PageSize{5}, Ppn{0x200}, Attr::ReadWrite()),
                       "key span");
  }
}

// ---------------------------------------------------------------------------
// Translation accounting: every write adjusts live_translations() by the
// words it replaced, and the auditor's recount must agree after each one.
// ---------------------------------------------------------------------------

// The two-table organization keeps superpage and PSB words in its
// block-keyed table; the superpage-index one chains every word by its page
// block.
TEST(TranslationAccountingTest, MultiTableHashedMatchesAuditInBothTables) {
  mem::CacheTouchModel cache(256);
  MultiTableHashed t(cache, {.num_buckets = 64});
  testutil::RunAccountingSequence(t, 16, {1, 2, 3, 4}, 59, 2000);
  EXPECT_GT(t.base_table().live_translations(), 0u);
  EXPECT_GT(t.block_table().live_translations(), 0u);
}

TEST(TranslationAccountingTest, SuperpageIndexMatchesAuditAfterEveryWrite) {
  mem::CacheTouchModel cache(256);
  HashedPageTable t(cache, SuperpageIndex(64));
  testutil::RunAccountingSequence(t, 16, {1, 2, 3, 4}, 61, 2000);
  EXPECT_GT(t.live_translations(), 0u);
}

}  // namespace
}  // namespace cpt::pt
