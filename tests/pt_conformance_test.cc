// Conformance and property tests run against EVERY page-table organization
// through the common pt::PageTable interface: all must implement identical
// translation semantics, whatever their internal structure.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "mem/cache_model.h"
#include "sim/machine.h"

namespace cpt {
namespace {

using sim::PtKind;

class PtConformanceTest : public ::testing::TestWithParam<PtKind> {
 protected:
  PtConformanceTest() : cache_(256) {
    sim::MachineOptions opts;
    table_ = sim::MakePageTable(GetParam(), cache_, opts);
  }

  std::optional<pt::TlbFill> Lookup(Vpn vpn) {
    mem::WalkScope scope(cache_);
    return table_->Lookup(VaOf(vpn));
  }

  mem::CacheTouchModel cache_;
  std::unique_ptr<pt::PageTable> table_;
};

TEST_P(PtConformanceTest, EmptyTableFaultsEverywhere) {
  EXPECT_FALSE(Lookup(Vpn{0}).has_value());
  EXPECT_FALSE(Lookup(Vpn{0x12345}).has_value());
  EXPECT_FALSE(Lookup(Vpn{(1ull << 51) + 17}).has_value());
  EXPECT_EQ(table_->live_translations(), 0u);
}

TEST_P(PtConformanceTest, InsertThenLookupTranslates) {
  table_->InsertBase(Vpn{0x1234}, Ppn{0x777}, Attr::ReadWrite());
  const auto fill = Lookup(Vpn{0x1234});
  ASSERT_TRUE(fill.has_value());
  EXPECT_TRUE(fill->Covers(Vpn{0x1234}));
  EXPECT_EQ(fill->Translate(Vpn{0x1234}), Ppn{0x777});
  EXPECT_EQ(fill->kind, MappingKind::kBase);
  EXPECT_EQ(table_->live_translations(), 1u);
}

TEST_P(PtConformanceTest, LookupUsesFullVaNotJustVpn) {
  table_->InsertBase(Vpn{0x1234}, Ppn{0x777}, Attr::ReadWrite());
  mem::WalkScope scope(cache_);
  const auto fill = table_->Lookup(VaOf(Vpn{0x1234}) + 0xABC);  // Offset within page.
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->Translate(Vpn{0x1234}), Ppn{0x777});
}

TEST_P(PtConformanceTest, NeighborPagesAreIndependent) {
  table_->InsertBase(Vpn{0x1000}, Ppn{0x10}, Attr::ReadWrite());
  EXPECT_TRUE(Lookup(Vpn{0x1000}).has_value());
  EXPECT_FALSE(Lookup(Vpn{0x1001}).has_value());
  EXPECT_FALSE(Lookup(Vpn{0xFFF}).has_value());
}

TEST_P(PtConformanceTest, ReinsertOverwritesMapping) {
  table_->InsertBase(Vpn{0x99}, Ppn{0x1}, Attr::ReadWrite());
  table_->InsertBase(Vpn{0x99}, Ppn{0x2}, Attr::ReadOnly());
  const auto fill = Lookup(Vpn{0x99});
  ASSERT_TRUE(fill.has_value());
  EXPECT_EQ(fill->Translate(Vpn{0x99}), Ppn{0x2});
  EXPECT_EQ(table_->live_translations(), 1u);
}

TEST_P(PtConformanceTest, RemoveBaseMakesPageFault) {
  table_->InsertBase(Vpn{0x55}, Ppn{0x5}, Attr::ReadWrite());
  EXPECT_TRUE(table_->RemoveBase(Vpn{0x55}));
  EXPECT_FALSE(Lookup(Vpn{0x55}).has_value());
  EXPECT_EQ(table_->live_translations(), 0u);
  EXPECT_FALSE(table_->RemoveBase(Vpn{0x55})) << "double remove must report false";
}

TEST_P(PtConformanceTest, SizeReturnsToZeroAfterRemovingAll) {
  for (Vpn vpn{0x4000}; vpn < Vpn{0x4040}; ++vpn) {
    table_->InsertBase(vpn, Ppn{vpn.raw() & kPpnMask}, Attr::ReadWrite());
  }
  EXPECT_GT(table_->SizeBytesPaperModel(), 0u);
  for (Vpn vpn{0x4000}; vpn < Vpn{0x4040}; ++vpn) {
    EXPECT_TRUE(table_->RemoveBase(vpn));
  }
  EXPECT_EQ(table_->SizeBytesPaperModel(), 0u)
      << table_->name() << " must free all structure memory";
  EXPECT_EQ(table_->live_translations(), 0u);
}

TEST_P(PtConformanceTest, SparseHighAddressesWork) {
  // Exercise 64-bit sparsity: pages scattered across the full VPN space.
  const Vpn vpns[] = {Vpn{0x1},
                      Vpn{0xFFFF},
                      Vpn{(1ull << 30) + 3},
                      Vpn{(1ull << 40) + 12345},
                      Vpn{(1ull << 51) + 7},
                      Vpn{(1ull << 52) - 1}};
  Ppn next{100};
  for (const Vpn vpn : vpns) {
    table_->InsertBase(vpn, next++, Attr::ReadWrite());
  }
  next = Ppn{100};
  for (const Vpn vpn : vpns) {
    const auto fill = Lookup(vpn);
    ASSERT_TRUE(fill.has_value()) << "vpn 0x" << std::hex << vpn;
    EXPECT_EQ(fill->Translate(vpn), next++);
  }
  EXPECT_EQ(table_->live_translations(), 6u);
}

TEST_P(PtConformanceTest, ProtectRangeRewritesAttributes) {
  for (Vpn vpn{0x800}; vpn < Vpn{0x810}; ++vpn) {
    table_->InsertBase(vpn, Ppn{vpn.raw()}, Attr::ReadWrite());
  }
  const std::uint64_t searches = table_->ProtectRange(Vpn{0x800}, 16, Attr::ReadOnly());
  EXPECT_GT(searches, 0u);
  for (Vpn vpn{0x800}; vpn < Vpn{0x810}; ++vpn) {
    const auto fill = Lookup(vpn);
    ASSERT_TRUE(fill.has_value());
    EXPECT_EQ(fill->word.attr(), Attr::ReadOnly()) << "vpn 0x" << std::hex << vpn;
  }
}

TEST_P(PtConformanceTest, ProtectRangeTouchesOnlyTheRange) {
  for (Vpn vpn{0x100}; vpn < Vpn{0x130}; ++vpn) {
    table_->InsertBase(vpn, Ppn{vpn.raw()}, Attr::ReadWrite());
  }
  // Three pages of a sparse block.
  for (const Vpn vpn : {Vpn{0x201}, Vpn{0x203}, Vpn{0x205}}) {
    table_->InsertBase(vpn, Ppn{vpn.raw()}, Attr::ReadWrite());
  }
  // Protect a range that starts and ends mid-block, and one sparse page.
  table_->ProtectRange(Vpn{0x108}, 0x18, Attr::ReadOnly());
  table_->ProtectRange(Vpn{0x203}, 1, Attr::ReadOnly());
  EXPECT_EQ(Lookup(Vpn{0x107})->word.attr(), Attr::ReadWrite());
  EXPECT_EQ(Lookup(Vpn{0x108})->word.attr(), Attr::ReadOnly());
  EXPECT_EQ(Lookup(Vpn{0x11F})->word.attr(), Attr::ReadOnly());
  EXPECT_EQ(Lookup(Vpn{0x120})->word.attr(), Attr::ReadWrite());
  EXPECT_EQ(Lookup(Vpn{0x201})->word.attr(), Attr::ReadWrite());
  EXPECT_EQ(Lookup(Vpn{0x203})->word.attr(), Attr::ReadOnly());
  EXPECT_EQ(Lookup(Vpn{0x205})->word.attr(), Attr::ReadWrite());
}

// Changing a page's protection keeps the R/M history the miss handler and
// the page daemon rely on (Section 3.1).
TEST_P(PtConformanceTest, ProtectRangeKeepsReferencedAndModifiedBits) {
  constexpr std::uint16_t kRefMod = Attr::kReferenced | Attr::kModified;
  table_->InsertBase(Vpn{0x1234}, Ppn{0x777}, Attr::ReadWrite());
  ASSERT_TRUE(table_->UpdateAttrFlags(Vpn{0x1234}, kRefMod, 0).has_value());
  table_->ProtectRange(Vpn{0x1234}, 1, Attr::ReadOnly());
  EXPECT_EQ(table_->PeekAttr(Vpn{0x1234}), Attr::ReadOnly().with(kRefMod));
}

TEST_P(PtConformanceTest, WalksAlwaysTouchAtLeastOneLineWhenMapped) {
  table_->InsertBase(Vpn{0x3210}, Ppn{0x99}, Attr::ReadWrite());
  cache_.Reset();
  Lookup(Vpn{0x3210});
  EXPECT_GE(cache_.total_lines(), 1u);
  EXPECT_EQ(cache_.total_walks(), 1u);
}

// Randomized differential test against a std::map reference model.
TEST_P(PtConformanceTest, RandomOpsMatchReferenceModel) {
  Rng rng(2024);
  std::map<Vpn, Ppn> ref;
  // Two clusters of VPNs: one dense window, one sparse high region.
  auto random_vpn = [&]() -> Vpn {
    if (rng.Chance(0.7)) {
      return Vpn{0x10000 + rng.Below(512)};
    }
    return Vpn{(1ull << 44) + rng.Below(100000) * 16};
  };
  for (int step = 0; step < 4000; ++step) {
    const Vpn vpn = random_vpn();
    const double dice = rng.NextDouble();
    if (dice < 0.5) {
      const Ppn ppn{rng.Below(kPpnMask)};
      table_->InsertBase(vpn, ppn, Attr::ReadWrite());
      ref[vpn] = ppn;
    } else if (dice < 0.75) {
      const bool removed = table_->RemoveBase(vpn);
      EXPECT_EQ(removed, ref.erase(vpn) > 0) << "step " << step;
    } else {
      const auto fill = Lookup(vpn);
      const auto it = ref.find(vpn);
      ASSERT_EQ(fill.has_value(), it != ref.end()) << "step " << step;
      if (fill.has_value()) {
        EXPECT_EQ(fill->Translate(vpn), it->second) << "step " << step;
      }
    }
  }
  EXPECT_EQ(table_->live_translations(), ref.size());
  // Full differential sweep at the end.
  for (const auto& [vpn, ppn] : ref) {
    const auto fill = Lookup(vpn);
    ASSERT_TRUE(fill.has_value()) << "vpn 0x" << std::hex << vpn;
    EXPECT_EQ(fill->Translate(vpn), ppn);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPageTables, PtConformanceTest,
                         ::testing::Values(PtKind::kLinear6, PtKind::kLinear1, PtKind::kForward,
                                           PtKind::kHashed, PtKind::kHashedMulti,
                                           PtKind::kHashedSpIndex, PtKind::kClustered,
                                           PtKind::kClusteredAdaptive, PtKind::kHashedInverted),
                         [](const ::testing::TestParamInfo<PtKind>& param_info) {
                           std::string n = sim::ToString(param_info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Superpage / partial-subblock conformance for the tables that support them.
// ---------------------------------------------------------------------------

class PtSpPsbConformanceTest : public PtConformanceTest {};

TEST_P(PtSpPsbConformanceTest, SuperpageCoversAllBasePages) {
  ASSERT_TRUE(table_->features().superpages);
  table_->InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x1000}, Attr::ReadWrite());
  for (unsigned i = 0; i < 16; ++i) {
    const auto fill = Lookup(Vpn{0x4000} + i);
    ASSERT_TRUE(fill.has_value()) << "page " << i;
    EXPECT_EQ(fill->kind, MappingKind::kSuperpage);
    EXPECT_EQ(fill->Translate(Vpn{0x4000} + i), Ppn{0x1000} + i);
    EXPECT_EQ(fill->base_vpn, Vpn{0x4000});
    EXPECT_EQ(fill->pages_log2, 4u);
  }
  EXPECT_FALSE(Lookup(Vpn{0x3FFF}).has_value());
  EXPECT_FALSE(Lookup(Vpn{0x4010}).has_value());
  EXPECT_EQ(table_->live_translations(), 16u);
}

TEST_P(PtSpPsbConformanceTest, RemoveSuperpageClearsAllPages) {
  table_->InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x1000}, Attr::ReadWrite());
  EXPECT_TRUE(table_->RemoveSuperpage(Vpn{0x4000}, kPage64K));
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_FALSE(Lookup(Vpn{0x4000} + i).has_value());
  }
  EXPECT_EQ(table_->live_translations(), 0u);
  EXPECT_EQ(table_->SizeBytesPaperModel(), 0u);
}

TEST_P(PtSpPsbConformanceTest, PartialSubblockHonorsValidVector) {
  ASSERT_TRUE(table_->features().partial_subblock);
  const std::uint16_t vector = 0b0101'0000'1111'0011;
  table_->UpsertPartialSubblock(Vpn{0x8000}, 16, Ppn{0x2000}, Attr::ReadWrite(), vector);
  for (unsigned i = 0; i < 16; ++i) {
    const auto fill = Lookup(Vpn{0x8000} + i);
    const bool expected = (vector >> i) & 1;
    ASSERT_EQ(fill.has_value(), expected) << "page " << i;
    if (expected) {
      EXPECT_EQ(fill->kind, MappingKind::kPartialSubblock);
      EXPECT_EQ(fill->Translate(Vpn{0x8000} + i), Ppn{0x2000} + i);
    }
  }
  EXPECT_EQ(table_->live_translations(), 8u);
}

TEST_P(PtSpPsbConformanceTest, PsbVectorGrowsIncrementally) {
  table_->UpsertPartialSubblock(Vpn{0x8000}, 16, Ppn{0x2000}, Attr::ReadWrite(), 0x0001);
  EXPECT_TRUE(Lookup(Vpn{0x8000}).has_value());
  EXPECT_FALSE(Lookup(Vpn{0x8001}).has_value());
  table_->UpsertPartialSubblock(Vpn{0x8000}, 16, Ppn{0x2000}, Attr::ReadWrite(), 0x0003);
  EXPECT_TRUE(Lookup(Vpn{0x8001}).has_value());
  EXPECT_EQ(table_->live_translations(), 2u);
}

TEST_P(PtSpPsbConformanceTest, RemovePartialSubblockClearsBlock) {
  table_->UpsertPartialSubblock(Vpn{0x8000}, 16, Ppn{0x2000}, Attr::ReadWrite(), 0xFFFF);
  EXPECT_TRUE(table_->RemovePartialSubblock(Vpn{0x8000}, 16));
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_FALSE(Lookup(Vpn{0x8000} + i).has_value());
  }
  EXPECT_EQ(table_->SizeBytesPaperModel(), 0u);
}

TEST_P(PtSpPsbConformanceTest, SuperpagesAndBasePagesCoexist) {
  table_->InsertSuperpage(Vpn{0x4000}, kPage64K, Ppn{0x1000}, Attr::ReadWrite());
  table_->InsertBase(Vpn{0x4010}, Ppn{0x555}, Attr::ReadWrite());  // Next block over.
  const auto sp = Lookup(Vpn{0x4007});
  const auto base = Lookup(Vpn{0x4010});
  ASSERT_TRUE(sp && base);
  EXPECT_EQ(sp->Translate(Vpn{0x4007}), Ppn{0x1007});
  EXPECT_EQ(base->Translate(Vpn{0x4010}), Ppn{0x555});
  EXPECT_EQ(table_->live_translations(), 17u);
}

TEST_P(PtSpPsbConformanceTest, MixedPsbAndBaseWithinOneBlock) {
  // Properly-placed pages in the PSB PTE; a straggler page (placement
  // failed) as a base PTE in the same block.
  table_->UpsertPartialSubblock(Vpn{0x8000}, 16, Ppn{0x2000}, Attr::ReadWrite(), 0x00FF);
  table_->InsertBase(Vpn{0x800A}, Ppn{0x12345}, Attr::ReadWrite());
  const auto psb = Lookup(Vpn{0x8003});
  const auto straggler = Lookup(Vpn{0x800A});
  ASSERT_TRUE(psb && straggler);
  EXPECT_EQ(psb->Translate(Vpn{0x8003}), Ppn{0x2003});
  EXPECT_EQ(straggler->Translate(Vpn{0x800A}), Ppn{0x12345});
  EXPECT_FALSE(Lookup(Vpn{0x800C}).has_value()) << "neither PTE covers page 12";
}

// A range that starts inside a superpage or PSB PTE still protects its pages.
// Pages outside the range are left unchecked: replicated tables rewrite each
// page's site, chained tables the whole word.
TEST_P(PtSpPsbConformanceTest, ProtectRangeInsideAPteProtectsEveryPageInRange) {
  table_->InsertSuperpage(Vpn{0x1000}, kPage64K, Ppn{0x1000}, Attr::ReadWrite());
  table_->UpsertPartialSubblock(Vpn{0x1010}, 16, Ppn{0x2000}, Attr::ReadWrite(), 0x00FF);
  table_->ProtectRange(Vpn{0x1004}, 4, Attr::ReadOnly());
  table_->ProtectRange(Vpn{0x1014}, 2, Attr::ReadOnly());
  for (const Vpn first : {Vpn{0x1004}, Vpn{0x1014}}) {
    const unsigned npages = first == Vpn{0x1004} ? 4 : 2;
    for (Vpn vpn = first; vpn < first + npages; ++vpn) {
      const auto attr = table_->PeekAttr(vpn);
      ASSERT_TRUE(attr.has_value()) << "vpn 0x" << std::hex << vpn;
      EXPECT_EQ(*attr, Attr::ReadOnly()) << "vpn 0x" << std::hex << vpn;
    }
  }
}

// Removing one superpage leaves a sibling superpage of the same page block.
TEST_P(PtSpPsbConformanceTest, RemoveSuperpageKeepsItsSiblingInTheBlock) {
  if (GetParam() == PtKind::kClusteredAdaptive) {
    GTEST_SKIP() << "the adaptive table stores only block-sized or larger superpages";
  }
  table_->InsertSuperpage(Vpn{0x1000}, kPage8K, Ppn{0x3000}, Attr::ReadWrite());
  table_->InsertSuperpage(Vpn{0x1002}, kPage8K, Ppn{0x3002}, Attr::ReadWrite());
  EXPECT_TRUE(table_->RemoveSuperpage(Vpn{0x1000}, kPage8K));
  EXPECT_FALSE(Lookup(Vpn{0x1000}).has_value());
  const auto sibling = Lookup(Vpn{0x1003});
  ASSERT_TRUE(sibling.has_value());
  EXPECT_EQ(sibling->Translate(Vpn{0x1003}), Ppn{0x3003});
  EXPECT_EQ(table_->live_translations(), 2u);
}

INSTANTIATE_TEST_SUITE_P(SpPsbTables, PtSpPsbConformanceTest,
                         ::testing::Values(PtKind::kLinear6, PtKind::kLinear1, PtKind::kForward,
                                           PtKind::kHashedMulti, PtKind::kHashedSpIndex,
                                           PtKind::kClustered, PtKind::kClusteredAdaptive),
                         [](const ::testing::TestParamInfo<PtKind>& param_info) {
                           std::string n = sim::ToString(param_info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

// ---------------------------------------------------------------------------
// Block-fetch (complete-subblock prefetch) conformance.
// ---------------------------------------------------------------------------

class PtBlockFetchTest : public PtConformanceTest {};

TEST_P(PtBlockFetchTest, LookupBlockReturnsAllResidentPages) {
  // Map 10 of 16 pages of one block.
  const std::uint16_t mask = 0b0011'1111'1100'0001;
  for (unsigned i = 0; i < 16; ++i) {
    if ((mask >> i) & 1) {
      table_->InsertBase(Vpn{0x6000} + i, Ppn{0x100} + i, Attr::ReadWrite());
    }
  }
  std::vector<pt::TlbFill> fills;
  {
    mem::WalkScope scope(cache_);
    table_->LookupBlock(VaOf(Vpn{0x6005}), 16, fills);
  }
  // Every resident page must be covered by some fill; no absent page may be.
  for (unsigned i = 0; i < 16; ++i) {
    bool covered = false;
    for (const auto& f : fills) {
      covered |= f.Covers(Vpn{0x6000} + i);
    }
    EXPECT_EQ(covered, ((mask >> i) & 1) != 0) << "page " << i;
  }
  for (const auto& f : fills) {
    for (unsigned i = 0; i < 16; ++i) {
      if (f.Covers(Vpn{0x6000} + i)) {
        EXPECT_EQ(f.Translate(Vpn{0x6000} + i), Ppn{0x100} + i);
      }
    }
  }
}

TEST_P(PtBlockFetchTest, AdjacentTablesFetchBlocksCheaperThanHashed) {
  // The paper's Section 4.4 point: block prefetch costs ~1 line for tables
  // with adjacent PTEs and ~s probes for hashed tables.
  for (unsigned i = 0; i < 16; ++i) {
    table_->InsertBase(Vpn{0x6000} + i, Ppn{0x100} + i, Attr::ReadWrite());
  }
  cache_.Reset();
  std::vector<pt::TlbFill> fills;
  {
    mem::WalkScope scope(cache_);
    table_->LookupBlock(VaOf(Vpn{0x6000}), 16, fills);
  }
  if (GetParam() == PtKind::kForward) {
    // Adjacent at the leaf, but the descent itself costs one line per level.
    EXPECT_LE(cache_.total_lines(), 8u) << table_->name();
  } else if (table_->features().adjacent_block_fetch) {
    EXPECT_LE(cache_.total_lines(), 2u) << table_->name();
  } else {
    EXPECT_GE(cache_.total_lines(), 16u) << table_->name();
  }
}

INSTANTIATE_TEST_SUITE_P(BlockFetch, PtBlockFetchTest,
                         ::testing::Values(PtKind::kLinear1, PtKind::kForward, PtKind::kHashed,
                                           PtKind::kClustered, PtKind::kClusteredAdaptive),
                         [](const ::testing::TestParamInfo<PtKind>& param_info) {
                           std::string n = sim::ToString(param_info.param);
                           for (char& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

}  // namespace
}  // namespace cpt
