// Unit tests specific to the tree-structured page tables: multi-level
// linear (level accounting, virtual-array semantics) and forward-mapped
// (seven-level walks, intermediate-node superpages).
#include <gtest/gtest.h>

#include <numeric>
#include <type_traits>
#include <vector>

#include "accounting_sequence.h"
#include "check/auditor.h"
#include "mem/cache_model.h"
#include "obs/trace.h"
#include "pt/forward.h"
#include "pt/linear.h"

namespace cpt::pt {
namespace {

// ---------------------------------------------------------------------------
// LinearPageTable
// ---------------------------------------------------------------------------

class LinearTest : public ::testing::Test {
 protected:
  LinearTest() : cache_(256), table_(cache_, {}) {}

  std::optional<TlbFill> Lookup(Vpn vpn) {
    mem::WalkScope scope(cache_);
    return table_.Lookup(VaOf(vpn));
  }

  mem::CacheTouchModel cache_;
  LinearPageTable table_;
};

TEST_F(LinearTest, OneLeafPagePer512Vpns) {
  table_.InsertBase(Vpn{0}, Ppn{1}, Attr::ReadWrite());
  table_.InsertBase(Vpn{511}, Ppn{2}, Attr::ReadWrite());
  const auto counts = table_.ActiveNodesPerLevel();
  EXPECT_EQ(counts[0], 1u) << "both PTEs share one leaf page";
  table_.InsertBase(Vpn{512}, Ppn{3}, Attr::ReadWrite());
  EXPECT_EQ(table_.ActiveNodesPerLevel()[0], 2u);
}

TEST_F(LinearTest, SixLevelSizeChargesAllLevels) {
  table_.InsertBase(Vpn{0x100}, Ppn{1}, Attr::ReadWrite());
  // One page per level: 6 * 4KB.
  EXPECT_EQ(table_.SizeBytesPaperModel(), 6u * kBasePageSize);
  const auto counts = table_.ActiveNodesPerLevel();
  for (unsigned level = 0; level < LinearPageTable::kNumLevels; ++level) {
    EXPECT_EQ(counts[level], 1u) << "level " << level + 1;
  }
}

TEST_F(LinearTest, DistantRegionsShareOnlyUpperLevels) {
  table_.InsertBase(Vpn{0x100}, Ppn{1}, Attr::ReadWrite());
  table_.InsertBase(Vpn{1ull << 30}, Ppn{2}, Attr::ReadWrite());
  const auto counts = table_.ActiveNodesPerLevel();
  EXPECT_EQ(counts[0], 2u);  // Distinct leaves (level 1 covers 2^9 pages).
  EXPECT_EQ(counts[1], 2u);  // Level 2 covers 2^18 pages: still distinct.
  EXPECT_EQ(counts[2], 2u);  // Level 3 covers 2^27 pages: still distinct.
  EXPECT_EQ(counts[3], 1u);  // Level 4 covers 2^36 pages: shared from here up.
  EXPECT_EQ(counts[4], 1u);
  EXPECT_EQ(counts[5], 1u);
}

TEST_F(LinearTest, OneLevelModeChargesLeavesOnly) {
  mem::CacheTouchModel cache(256);
  LinearPageTable one(cache, {.size_model = LinearPageTable::SizeModel::kOneLevel});
  one.InsertBase(Vpn{0x100}, Ppn{1}, Attr::ReadWrite());
  one.InsertBase(Vpn{1ull << 40}, Ppn{2}, Attr::ReadWrite());
  EXPECT_EQ(one.SizeBytesPaperModel(), 2u * kBasePageSize);
}

TEST_F(LinearTest, LookupTouchesExactlyOneLine) {
  table_.InsertBase(Vpn{0x1234}, Ppn{0x9}, Attr::ReadWrite());
  cache_.Reset();
  Lookup(Vpn{0x1234});
  EXPECT_EQ(cache_.total_lines(), 1u) << "a linear walk reads one PTE slot";
}

TEST_F(LinearTest, EmptyLeafIsFreedAndLevelsUnwind) {
  table_.InsertBase(Vpn{0x100}, Ppn{1}, Attr::ReadWrite());
  EXPECT_TRUE(table_.RemoveBase(Vpn{0x100}));
  EXPECT_EQ(table_.SizeBytesPaperModel(), 0u);
  for (const auto count : table_.ActiveNodesPerLevel()) {
    EXPECT_EQ(count, 0u);
  }
}

TEST_F(LinearTest, ReplicatedSuperpageFillsSixteenSlots) {
  table_.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
  // All replicas live in one leaf: size is one page (+ upper levels).
  EXPECT_EQ(table_.ActiveNodesPerLevel()[0], 1u);
  EXPECT_EQ(table_.live_translations(), 16u);
  // Each slot returns the full superpage fill.
  const auto fill = Lookup(Vpn{0x400B});
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->kind, MappingKind::kSuperpage);
  EXPECT_EQ(fill->base_vpn, Vpn{0x4000});
}

TEST_F(LinearTest, SuperpageReplicasCannotShrinkTable) {
  // The paper's point: replication supports superpage TLBs but the linear
  // table stays the same size as with base PTEs.
  mem::CacheTouchModel cache(256);
  LinearPageTable base_only(cache, {});
  for (unsigned i = 0; i < 16; ++i) {
    base_only.InsertBase(Vpn{0x4000} + i, Ppn{0x100} + i, Attr::ReadWrite());
  }
  table_.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
  EXPECT_EQ(table_.SizeBytesPaperModel(), base_only.SizeBytesPaperModel());
}

// ---------------------------------------------------------------------------
// ForwardMappedPageTable
// ---------------------------------------------------------------------------

class ForwardTest : public ::testing::Test {
 protected:
  ForwardTest() : cache_(256), table_(cache_, {}) {}

  std::optional<TlbFill> Lookup(Vpn vpn) {
    mem::WalkScope scope(cache_);
    return table_.Lookup(VaOf(vpn));
  }

  mem::CacheTouchModel cache_;
  ForwardMappedPageTable table_;
};

TEST_F(ForwardTest, WalkTouchesSevenLines) {
  table_.InsertBase(Vpn{0x1234}, Ppn{0x9}, Attr::ReadWrite());
  cache_.Reset();
  Lookup(Vpn{0x1234});
  EXPECT_EQ(cache_.total_lines(), 7u) << "one PTP/PTE read per level";
}

TEST_F(ForwardTest, NodeSizesFollowLevelSplit) {
  table_.InsertBase(Vpn{0}, Ppn{1}, Attr::ReadWrite());
  // Leaf 256*8 + five 256*8 inner + one 16*8 root.
  EXPECT_EQ(table_.SizeBytesPaperModel(), 6u * 2048 + 128);
}

TEST_F(ForwardTest, LeavesCover256Pages) {
  table_.InsertBase(Vpn{0}, Ppn{1}, Attr::ReadWrite());
  table_.InsertBase(Vpn{255}, Ppn{2}, Attr::ReadWrite());
  EXPECT_EQ(table_.ActiveNodesPerLevel()[0], 1u);
  table_.InsertBase(Vpn{256}, Ppn{3}, Attr::ReadWrite());
  EXPECT_EQ(table_.ActiveNodesPerLevel()[0], 2u);
}

TEST_F(ForwardTest, TreeUnwindsOnRemoval) {
  table_.InsertBase(Vpn{0x1234}, Ppn{1}, Attr::ReadWrite());
  table_.InsertBase(Vpn{(1ull << 50) + 5}, Ppn{2}, Attr::ReadWrite());
  EXPECT_TRUE(table_.RemoveBase(Vpn{0x1234}));
  EXPECT_TRUE(table_.RemoveBase(Vpn{(1ull << 50) + 5}));
  EXPECT_EQ(table_.SizeBytesPaperModel(), 0u);
  for (const auto count : table_.ActiveNodesPerLevel()) {
    EXPECT_EQ(count, 0u);
  }
}

TEST_F(ForwardTest, IntermediateSuperpageShortCircuitsWalk) {
  mem::CacheTouchModel cache(256);
  ForwardMappedPageTable t(cache, {.intermediate_superpages = true});
  // A 1MB superpage (2^8 pages) matches a full leaf's coverage, so it can
  // live in the level-2 PTP slot.
  t.InsertSuperpage(Vpn{0x4000}, PageSize{8}, Ppn{0x1000}, Attr::ReadWrite());
  cache.Reset();
  {
    mem::WalkScope scope(cache);
    const auto fill = t.Lookup(VaOf(Vpn{0x4055}));
    ASSERT_TRUE(fill.has_value());
    EXPECT_EQ(fill->kind, MappingKind::kSuperpage);
    EXPECT_EQ(fill->Translate(Vpn{0x4055}), Ppn{0x1055});
  }
  EXPECT_EQ(cache.total_lines(), 6u) << "the walk stops one level early";
  EXPECT_EQ(t.ActiveNodesPerLevel()[0], 0u) << "no leaf node allocated";
  EXPECT_TRUE(t.RemoveSuperpage(Vpn{0x4000}, PageSize{8}));
  EXPECT_EQ(t.SizeBytesPaperModel(), 0u);
}

TEST_F(ForwardTest, NonLevelAlignedSuperpageStillReplicates) {
  mem::CacheTouchModel cache(256);
  ForwardMappedPageTable t(cache, {.intermediate_superpages = true});
  // 64KB (2^4 pages) matches no level boundary: falls back to replication.
  t.InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x100}, Attr::ReadWrite());
  EXPECT_EQ(t.ActiveNodesPerLevel()[0], 1u);
  mem::WalkScope scope(cache);
  EXPECT_TRUE(t.Lookup(VaOf(Vpn{0x4005})).has_value());
}

TEST_F(ForwardTest, LevelSplitCoversFiftyTwoBits) {
  unsigned total = 0;
  for (const unsigned bits : ForwardMappedPageTable::kLevelBits) {
    total += bits;
  }
  EXPECT_EQ(total, 52u);
}

// ---------------------------------------------------------------------------
// Replicate-PTEs block writes, on both replicated tables
// ---------------------------------------------------------------------------

template <typename Table>
class ReplicatedTableTest : public ::testing::Test {
 protected:
  static constexpr bool kLinear = std::is_same_v<Table, LinearPageTable>;
  static constexpr unsigned kLeafPages =
      kLinear ? LinearPageTable::kPtesPerPage : ForwardMappedPageTable::kLeafEntries;
  // Lines a base-page walk reads: the leaf PTE, after forward-mapped's six
  // inner levels.
  static constexpr unsigned kWalkLines = kLinear ? 1 : ForwardMappedPageTable::kNumLevels;

  ReplicatedTableTest() : cache_(256), table_(cache_, {}) {}

  std::optional<TlbFill> Lookup(Vpn vpn) {
    mem::WalkScope scope(cache_);
    return table_.Lookup(VaOf(vpn));
  }

  std::string Audit() const {
    return check::StructuralAuditor::Audit(table_).Summary();
  }

  mem::CacheTouchModel cache_;
  Table table_;
};

using ReplicatedTables = ::testing::Types<LinearPageTable, ForwardMappedPageTable>;
TYPED_TEST_SUITE(ReplicatedTableTest, ReplicatedTables);

// Random writes of every kind, superpages of 2 to 64 pages: the leaf
// counters and live_translations() match the recount after every write.
TYPED_TEST(ReplicatedTableTest, AccountingMatchesAuditAfterEveryWrite) {
  testutil::RunAccountingSequence(this->table_, 16, {1, 2, 3, 4, 5, 6}, 53, 2000);
  EXPECT_GT(this->table_.live_translations(), 0u);
}

// Emptying a leaf frees it; the next write to the same leaf index must
// build a new leaf, not reuse the remembered one (asan-ubsan reports a
// stale pointer as a use after free; the audit sees a missing leaf).
TYPED_TEST(ReplicatedTableTest, LeafMemoIsDroppedWhenItsLeafIsFreed) {
  auto& t = this->table_;
  const Vpn block{0x4000};
  t.InsertBase(block + 3, Ppn{0x77}, Attr::ReadWrite());
  EXPECT_TRUE(t.RemoveBase(block + 3));
  EXPECT_EQ(t.ActiveNodesPerLevel()[0], 0u);
  t.InsertBase(block + 5, Ppn{0x78}, Attr::ReadWrite());
  auto fill = this->Lookup(block + 5);
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->Translate(block + 5), Ppn{0x78});
  EXPECT_EQ(t.ActiveNodesPerLevel()[0], 1u);
  EXPECT_TRUE(this->Audit().empty()) << this->Audit();

  // The same through the block writer: remove frees, insert rebuilds.
  EXPECT_TRUE(t.RemoveBase(block + 5));
  t.UpsertPartialSubblock(block, 16, Ppn{0x100}, Attr::ReadWrite(), 0x00F0);
  EXPECT_TRUE(t.RemovePartialSubblock(block, 16));
  EXPECT_EQ(t.ActiveNodesPerLevel()[0], 0u);
  t.InsertSuperpage(block, kPage64K, Ppn{0x200}, Attr::ReadWrite());
  fill = this->Lookup(block + 9);
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->Translate(block + 9), Ppn{0x209});
  EXPECT_EQ(t.live_translations(), 16u);
  EXPECT_TRUE(this->Audit().empty()) << this->Audit();
  EXPECT_TRUE(t.RemoveSuperpage(block, kPage64K));
  EXPECT_EQ(t.ActiveNodesPerLevel()[0], 0u);
  EXPECT_EQ(t.live_translations(), 0u);
}

// A base PTE in a PSB block (an unplaced page) keeps its site through every
// PSB upsert and removal; removal clears only the PSB replicas.
TYPED_TEST(ReplicatedTableTest, PsbWritesSkipBasePtes) {
  auto& t = this->table_;
  const Vpn block{0x4000};
  t.InsertBase(block + 1, Ppn{0x9}, Attr::ReadWrite());
  t.UpsertPartialSubblock(block, 16, Ppn{0x100}, Attr::ReadWrite(), 0x8001);
  EXPECT_EQ(t.live_translations(), 3u);
  auto fill = this->Lookup(block + 1);
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->kind, MappingKind::kBase);
  EXPECT_EQ(this->Lookup(block + 15)->Translate(block + 15), Ppn{0x10F});
  t.UpsertPartialSubblock(block, 16, Ppn{0x100}, Attr::ReadWrite(), 0x8000);
  EXPECT_EQ(t.live_translations(), 2u);
  EXPECT_FALSE(this->Lookup(block).has_value());
  EXPECT_TRUE(t.RemovePartialSubblock(block, 16));
  EXPECT_FALSE(t.RemovePartialSubblock(block, 16)) << "no PSB replica is left";
  EXPECT_EQ(t.live_translations(), 1u);
  fill = this->Lookup(block + 1);
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->Translate(block + 1), Ppn{0x9});
  EXPECT_TRUE(this->Audit().empty()) << this->Audit();
}

// A superpage larger than a leaf writes one run per leaf it spans.
TYPED_TEST(ReplicatedTableTest, SuperpageSpanningLeavesFillsEachLeaf) {
  auto& t = this->table_;
  const unsigned leaf_pages = TestFixture::kLeafPages;
  const PageSize size{Log2(4 * leaf_pages)};
  const Vpn base{std::uint64_t{1} << 20};
  t.InsertBase(base + leaf_pages + 7, Ppn{0x5}, Attr::ReadWrite());
  t.InsertSuperpage(base, size, Ppn{std::uint64_t{1} << 24}, Attr::ReadWrite());
  EXPECT_EQ(t.ActiveNodesPerLevel()[0], 4u);
  EXPECT_EQ(t.live_translations(), size.pages());
  const Vpn last = base + (size.pages() - 1);
  const auto fill = this->Lookup(last);
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->Translate(last), Ppn{std::uint64_t{1} << 24} + (size.pages() - 1));
  EXPECT_EQ(this->Lookup(base + leaf_pages + 7)->kind, MappingKind::kSuperpage)
      << "a superpage insert replaces base PTEs it covers";
  EXPECT_TRUE(this->Audit().empty()) << this->Audit();
  EXPECT_TRUE(t.RemoveSuperpage(base, size));
  EXPECT_EQ(t.ActiveNodesPerLevel()[0], 0u);
  EXPECT_EQ(t.live_translations(), 0u);
  EXPECT_FALSE(t.RemoveSuperpage(base, size));
}

// A base-page walk records one kWalkStep per line it reads, the leaf PTE
// read included, numbered 1..n with the lines so far, and hits at step n.
TYPED_TEST(ReplicatedTableTest, WalkRecordsOneStepPerLineAndHitsAtTheLast) {
  const Vpn vpn{0x4005};
  this->table_.InsertBase(vpn, Ppn{0x77}, Attr::ReadWrite());
  obs::RingBufferTracer ring;
  this->cache_.set_tracer(&ring);
  ASSERT_TRUE(this->Lookup(vpn).has_value());
  this->cache_.set_tracer(nullptr);
  std::vector<std::uint32_t> steps;
  std::vector<std::uint32_t> hit_steps;
  for (const obs::WalkEvent& e : ring.Events()) {
    if (e.kind == obs::EventKind::kWalkStep) {
      steps.push_back(e.step);
      EXPECT_EQ(e.lines, e.step) << "each step reads one new line";
    } else if (e.kind == obs::EventKind::kWalkHit) {
      hit_steps.push_back(e.step);
    }
  }
  std::vector<std::uint32_t> want(TestFixture::kWalkLines);
  std::iota(want.begin(), want.end(), 1u);
  EXPECT_EQ(steps, want);
  EXPECT_EQ(hit_steps, std::vector<std::uint32_t>{TestFixture::kWalkLines});
}

// R/M-bit and protect writes reach every replica of a superpage spanning
// four leaves, across each leaf boundary.
TYPED_TEST(ReplicatedTableTest, AttrWritesReachEveryReplicaAcrossLeaves) {
  auto& t = this->table_;
  const PageSize size{Log2(4 * TestFixture::kLeafPages)};
  const Vpn base{std::uint64_t{1} << 20};
  t.InsertSuperpage(base, size, Ppn{std::uint64_t{1} << 24}, Attr::ReadWrite());
  ASSERT_EQ(t.ActiveNodesPerLevel()[0], 4u);
  const auto attr_at = [&t](Vpn vpn) { return t.PeekAttr(vpn).value_or(Attr{}); };

  ASSERT_TRUE(t.UpdateAttrFlags(base + (size.pages() - 1), Attr::kReferenced, 0));
  for (std::uint64_t i = 0; i < size.pages(); ++i) {
    ASSERT_TRUE(attr_at(base + i).test(Attr::kReferenced)) << "replica " << i;
  }
  EXPECT_EQ(t.ScanAndClearReferenced(base, size.pages()), 1u)
      << "one word, one referenced bit";
  for (std::uint64_t i = 0; i < size.pages(); ++i) {
    ASSERT_FALSE(attr_at(base + i).test(Attr::kReferenced)) << "replica " << i;
  }

  EXPECT_EQ(t.ProtectRange(base, size.pages(), Attr::ReadOnly()), size.pages());
  for (std::uint64_t i = 0; i < size.pages(); ++i) {
    ASSERT_EQ(attr_at(base + i), Attr::ReadOnly()) << "replica " << i;
  }
  EXPECT_EQ(t.live_translations(), size.pages());
  EXPECT_TRUE(this->Audit().empty()) << this->Audit();
}

}  // namespace
}  // namespace cpt::pt
