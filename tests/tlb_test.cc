// Tests for the four TLB simulators: hit/miss semantics, LRU replacement,
// asid isolation, superpage coverage, PSB vectors, complete-subblock
// block/subblock miss classification with prefetch, and the exactness of
// the base class's memo: each design against a scan-only model of its
// replacement policy, after every step of a random stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "check/audit_visitor.h"
#include "common/rng.h"
#include "tlb/complete_subblock.h"
#include "tlb/partial_subblock.h"
#include "tlb/single_page.h"
#include "tlb/superpage.h"

namespace cpt::tlb {
namespace {

pt::TlbFill BaseFill(Vpn vpn, Ppn ppn) {
  return pt::TlbFill{.kind = MappingKind::kBase,
                     .base_vpn = vpn,
                     .pages_log2 = 0,
                     .word = MappingWord::Base(ppn, Attr::ReadWrite())};
}

pt::TlbFill SuperFill(Vpn base_vpn, Ppn base_ppn, PageSize size) {
  return pt::TlbFill{.kind = MappingKind::kSuperpage,
                     .base_vpn = base_vpn,
                     .pages_log2 = size.size_log2,
                     .word = MappingWord::Superpage(base_ppn, Attr::ReadWrite(), size)};
}

pt::TlbFill PsbFill(Vpn block_base, Ppn block_ppn, std::uint16_t vector) {
  return pt::TlbFill{
      .kind = MappingKind::kPartialSubblock,
      .base_vpn = block_base,
      .pages_log2 = 4,
      .word = MappingWord::PartialSubblock(block_ppn, Attr::ReadWrite(), vector)};
}

// ---------------------------------------------------------------------------
// SinglePageTlb
// ---------------------------------------------------------------------------

TEST(SinglePageTlbTest, MissThenHit) {
  SinglePageTlb tlb(4);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x100}), LookupOutcome::kMiss);
  tlb.Insert(0, Vpn{0x100}, BaseFill(Vpn{0x100}, Ppn{1}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x100}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.stats().accesses, 2u);
  EXPECT_EQ(tlb.stats().hits, 1u);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(SinglePageTlbTest, LruEvictsLeastRecentlyUsed) {
  SinglePageTlb tlb(2);
  tlb.Insert(0, Vpn{1}, BaseFill(Vpn{1}, Ppn{1}));
  tlb.Insert(0, Vpn{2}, BaseFill(Vpn{2}, Ppn{2}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{1}), LookupOutcome::kHit);  // 2 becomes LRU.
  tlb.Insert(0, Vpn{3}, BaseFill(Vpn{3}, Ppn{3}));                   // Evicts 2.
  EXPECT_EQ(tlb.Lookup(0, Vpn{1}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{3}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{2}), LookupOutcome::kMiss);
}

TEST(SinglePageTlbTest, AsidsDoNotAlias) {
  SinglePageTlb tlb(4);
  tlb.Insert(0, Vpn{0x100}, BaseFill(Vpn{0x100}, Ppn{1}));
  EXPECT_EQ(tlb.Lookup(1, Vpn{0x100}), LookupOutcome::kMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x100}), LookupOutcome::kHit);
}

TEST(SinglePageTlbTest, SuperpageFillInstallsOnlyFaultingPage) {
  SinglePageTlb tlb(4);
  tlb.Insert(0, Vpn{0x4005}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4005}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4006}), LookupOutcome::kMiss);
}

TEST(SinglePageTlbTest, FlushInvalidatesEverything) {
  SinglePageTlb tlb(4);
  tlb.Insert(0, Vpn{1}, BaseFill(Vpn{1}, Ppn{1}));
  tlb.Flush();
  EXPECT_EQ(tlb.Lookup(0, Vpn{1}), LookupOutcome::kMiss);
}

TEST(SinglePageTlbTest, ReinsertDoesNotDuplicate) {
  SinglePageTlb tlb(2);
  tlb.Insert(0, Vpn{1}, BaseFill(Vpn{1}, Ppn{1}));
  tlb.Insert(0, Vpn{1}, BaseFill(Vpn{1}, Ppn{9}));
  tlb.Insert(0, Vpn{2}, BaseFill(Vpn{2}, Ppn{2}));
  // Both entries must still fit: the re-insert reused 1's slot.
  EXPECT_EQ(tlb.Lookup(0, Vpn{1}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{2}), LookupOutcome::kHit);
}

// ---------------------------------------------------------------------------
// SuperpageTlb
// ---------------------------------------------------------------------------

TEST(SuperpageTlbTest, SuperpageEntryCoversWholeRange) {
  SuperpageTlb tlb(4);
  tlb.Insert(0, Vpn{0x4003}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(tlb.Lookup(0, Vpn{0x4000} + i), LookupOutcome::kHit) << i;
  }
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x3FFF}), LookupOutcome::kMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4010}), LookupOutcome::kMiss);
  EXPECT_GT(tlb.SuperpageHitFraction(), 0.9);
}

TEST(SuperpageTlbTest, MixedSizesCoexist) {
  SuperpageTlb tlb(4);
  tlb.Insert(0, Vpn{0x4000}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  tlb.Insert(0, Vpn{0x9000}, BaseFill(Vpn{0x9000}, Ppn{0x7}));
  tlb.Insert(0, Vpn{0x8002}, SuperFill(Vpn{0x8002}, Ppn{0x52}, kPage8K));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x400F}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x9000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8003}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8004}), LookupOutcome::kMiss);
}

TEST(SuperpageTlbTest, PsbFillDegradesToBaseEntry) {
  SuperpageTlb tlb(4);
  tlb.Insert(0, Vpn{0x8005}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0xFFFF));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8005}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8006}), LookupOutcome::kMiss);
}

TEST(SuperpageTlbTest, LruAcrossMixedSizes) {
  SuperpageTlb tlb(2);
  tlb.Insert(0, Vpn{0x4000}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  tlb.Insert(0, Vpn{0x9000}, BaseFill(Vpn{0x9000}, Ppn{0x7}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4001}), LookupOutcome::kHit);
  tlb.Insert(0, Vpn{0xA000}, BaseFill(Vpn{0xA000}, Ppn{0x8}));  // Evicts 0x9000.
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x9000}), LookupOutcome::kMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x4002}), LookupOutcome::kHit);
}

// ---------------------------------------------------------------------------
// PartialSubblockTlb
// ---------------------------------------------------------------------------

TEST(PartialSubblockTlbTest, VectorControlsHits) {
  PartialSubblockTlb tlb(4, 16);
  tlb.Insert(0, Vpn{0x8000}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0b0000'0000'1010'0001));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8005}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8007}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x800F}), LookupOutcome::kMiss);
}

TEST(PartialSubblockTlbTest, VectorRefreshGrowsCoverage) {
  PartialSubblockTlb tlb(4, 16);
  tlb.Insert(0, Vpn{0x8000}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0x0001));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kMiss);
  tlb.Insert(0, Vpn{0x8001}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0x0003));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kHit);
}

TEST(PartialSubblockTlbTest, NotProperlyPlacedPagesUseSingleEntries) {
  PartialSubblockTlb tlb(4, 16);
  tlb.Insert(0, Vpn{0x8003}, BaseFill(Vpn{0x8003}, Ppn{0x123}));  // Unplaced page.
  tlb.Insert(0, Vpn{0x8000}, PsbFill(Vpn{0x8000}, Ppn{0x40}, 0x0001));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8003}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8004}), LookupOutcome::kMiss);
}

TEST(PartialSubblockTlbTest, BlockSizedSuperpageBecomesFullVector) {
  PartialSubblockTlb tlb(4, 16);
  tlb.Insert(0, Vpn{0x4000}, SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K));
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(tlb.Lookup(0, Vpn{0x4000} + i), LookupOutcome::kHit) << i;
  }
  EXPECT_GT(tlb.SubblockHitFraction(), 0.9);
}

TEST(PartialSubblockTlbTest, SmallerFactorMasksVector) {
  PartialSubblockTlb tlb(4, 4);
  tlb.Insert(0, Vpn{0x8000}, pt::TlbFill{.kind = MappingKind::kPartialSubblock,
                                    .base_vpn = Vpn{0x8000},
                                    .pages_log2 = 2,
                                    .word = MappingWord::PartialSubblock(
                                        Ppn{0x40}, Attr::ReadWrite(), 0b0101)});
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8002}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8004}), LookupOutcome::kMiss) << "next block over";
}

// ---------------------------------------------------------------------------
// CompleteSubblockTlb
// ---------------------------------------------------------------------------

TEST(CompleteSubblockTlbTest, DistinguishesBlockAndSubblockMisses) {
  CompleteSubblockTlb tlb(4, 16);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kBlockMiss);
  tlb.Insert(0, Vpn{0x8000}, BaseFill(Vpn{0x8000}, Ppn{1}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kSubblockMiss);
  tlb.Insert(0, Vpn{0x8001}, BaseFill(Vpn{0x8001}, Ppn{2}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.stats().block_misses, 1u);
  EXPECT_EQ(tlb.stats().subblock_misses, 1u);
}

TEST(CompleteSubblockTlbTest, SubblockMissDoesNotEvict) {
  CompleteSubblockTlb tlb(2, 16);
  tlb.Insert(0, Vpn{0x8000}, BaseFill(Vpn{0x8000}, Ppn{1}));
  tlb.Insert(0, Vpn{0x9000}, BaseFill(Vpn{0x9000}, Ppn{2}));
  // Subblock insert into the 0x8000 block must not displace 0x9000's entry.
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kSubblockMiss);
  tlb.Insert(0, Vpn{0x8001}, BaseFill(Vpn{0x8001}, Ppn{3}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x9000}), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8001}), LookupOutcome::kHit);
}

TEST(CompleteSubblockTlbTest, PrefetchLoadsWholeBlock) {
  CompleteSubblockTlb tlb(4, 16);
  std::vector<pt::TlbFill> fills;
  for (unsigned i = 0; i < 16; i += 2) {  // Even pages resident.
    fills.push_back(BaseFill(Vpn{0x8000} + i, Ppn{0x100} + i));
  }
  tlb.InsertBlock(0, Vpn{0x8005}, fills);
  for (unsigned i = 0; i < 16; ++i) {
    const auto expect = (i % 2 == 0) ? LookupOutcome::kHit : LookupOutcome::kSubblockMiss;
    EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000} + i), expect) << "page " << i;
  }
}

TEST(CompleteSubblockTlbTest, PrefetchExpandsSuperpageFills) {
  CompleteSubblockTlb tlb(4, 16);
  const pt::TlbFill fill = SuperFill(Vpn{0x4000}, Ppn{0x100}, kPage64K);
  tlb.InsertBlock(0, Vpn{0x4000}, std::span<const pt::TlbFill>(&fill, 1));
  for (unsigned i = 0; i < 16; ++i) {
    EXPECT_EQ(tlb.Lookup(0, Vpn{0x4000} + i), LookupOutcome::kHit) << i;
  }
}

TEST(CompleteSubblockTlbTest, BlockMissEvictsLruEntry) {
  CompleteSubblockTlb tlb(2, 16);
  tlb.Insert(0, Vpn{0x1000}, BaseFill(Vpn{0x1000}, Ppn{1}));
  tlb.Insert(0, Vpn{0x2000}, BaseFill(Vpn{0x2000}, Ppn{2}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x1000}), LookupOutcome::kHit);  // 0x2000 is LRU.
  tlb.Insert(0, Vpn{0x3000}, BaseFill(Vpn{0x3000}, Ppn{3}));
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x2000}), LookupOutcome::kBlockMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x1000}), LookupOutcome::kHit);
}

// Property: a single-page TLB with N entries and a complete-subblock TLB
// with N entries never disagree on a hit for the complete-subblock's favor
// when accesses stay within one page block (the subblock TLB maps a superset
// per tag).
TEST(TlbPropertyTest, SubblockTlbDominatesSinglePageWithinOneBlock) {
  SinglePageTlb single(4);
  CompleteSubblockTlb subblock(4, 16);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Vpn vpn = Vpn{0x8000} + rng.Below(16);  // One block.
    const bool single_hit = single.Lookup(0, vpn) == LookupOutcome::kHit;
    const bool sub_hit = subblock.Lookup(0, vpn) == LookupOutcome::kHit;
    if (single_hit) {
      EXPECT_TRUE(sub_hit) << "iteration " << i;
    }
    if (!single_hit) {
      single.Insert(0, vpn, BaseFill(vpn, Ppn{vpn.raw()}));
    }
    if (!sub_hit) {
      subblock.Insert(0, vpn, BaseFill(vpn, Ppn{vpn.raw()}));
    }
  }
  EXPECT_LE(subblock.stats().misses, single.stats().misses);
}

// Property: LRU inclusion — a bigger single-page TLB's contents include a
// smaller one's under the same access stream, so misses(64) <= misses(56).
TEST(TlbPropertyTest, LruInclusionAcrossSizes) {
  SinglePageTlb small(8);
  SinglePageTlb big(16);
  Rng rng(6);
  for (int i = 0; i < 5000; ++i) {
    const Vpn vpn{rng.Below(40)};
    const bool small_hit = small.Lookup(0, vpn) == LookupOutcome::kHit;
    const bool big_hit = big.Lookup(0, vpn) == LookupOutcome::kHit;
    if (small_hit) {
      EXPECT_TRUE(big_hit) << "inclusion violated at " << i;
    }
    if (!small_hit) {
      small.Insert(0, vpn, BaseFill(vpn, Ppn{vpn.raw()}));
    }
    if (!big_hit) {
      big.Insert(0, vpn, BaseFill(vpn, Ppn{vpn.raw()}));
    }
  }
  EXPECT_LE(big.stats().misses, small.stats().misses);
}

// ---------------------------------------------------------------------------
// Last-hit memo (tlb::Tlb::Lookup)
// ---------------------------------------------------------------------------

class ViewCollector final : public check::TlbAuditVisitor {
 public:
  void OnEntry(const check::TlbEntryView& entry) override { views.push_back(entry); }
  std::vector<check::TlbEntryView> views;
};

std::vector<check::TlbEntryView> ViewsOf(const tlb::Tlb& tlb) {
  ViewCollector c;
  tlb.AuditVisit(c);
  return std::move(c.views);
}

// Whether an entry view serves (asid, vpn): it lists vpn among its
// translations.
bool ViewCovers(const check::TlbEntryView& v, Asid asid, Vpn vpn) {
  return v.valid && v.asid == asid &&
         std::any_of(v.translations.begin(), v.translations.end(),
                     [vpn](const std::pair<Vpn, Ppn>& t) { return t.first == vpn; });
}

struct MemoStreamResult {
  std::uint64_t hits = 0;
  std::uint64_t class_hits = 0;  // Hits served by views larger than a page.
};

// Drives `tlb` with a seeded mix of repeated probes (the memo's case),
// fresh probes, refills, unrelated inserts and flushes.  After every probe
// it checks the outcome against the scan's definition: a hit stamps the
// first entry, in array order, that covers (asid, vpn); a miss means no
// entry covers it.  `install` inserts a fill covering (asid, vpn).
template <class T>
MemoStreamResult RunMemoStream(T& tlb, std::uint64_t seed,
                               const std::function<void(Rng&, Asid, Vpn)>& install) {
  Rng rng(seed);
  MemoStreamResult r;
  Asid asid = 0;
  Vpn vpn{0x8000};
  Asid hit_asid = 0;
  Vpn hit_vpn{0x8000};
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t roll = rng.Below(100);
    if (roll < 1) {
      tlb.Flush();
      continue;
    }
    if (roll < 5) {
      install(rng, static_cast<Asid>(rng.Below(2)), Vpn{0x8000} + rng.Below(96));
      continue;
    }
    if (roll < 15) {  // The memo's key, even after misses and refills since.
      asid = hit_asid;
      vpn = hit_vpn;
    } else if (roll >= 55) {  // Otherwise repeat the previous probe.
      asid = static_cast<Asid>(rng.Below(2));
      vpn = Vpn{0x8000} + rng.Below(96);
    }
    const LookupOutcome out = tlb.Lookup(asid, vpn);
    const std::vector<check::TlbEntryView> views = ViewsOf(tlb);
    std::size_t first = views.size();
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (ViewCovers(views[i], asid, vpn)) {
        first = i;
        break;
      }
    }
    if (IsMiss(out)) {
      EXPECT_EQ(first, views.size()) << "step " << step << ": miss on a covered page";
      if (rng.Below(10) != 0) {
        install(rng, asid, vpn);
      }
      continue;
    }
    if (first == views.size()) {
      ADD_FAILURE() << "step " << step << ": hit on an uncovered page";
      return r;
    }
    std::size_t newest = 0;
    for (std::size_t i = 1; i < views.size(); ++i) {
      if (views[i].stamp > views[newest].stamp) {
        newest = i;
      }
    }
    if (newest != first) {
      ADD_FAILURE() << "step " << step << ": the hit stamped entry " << newest << ", not "
                    << first;
      return r;
    }
    ++r.hits;
    hit_asid = asid;
    hit_vpn = vpn;
    if (views[first].pages_log2 > 0) {
      ++r.class_hits;
    }
  }
  const TlbStats& s = tlb.stats();
  EXPECT_EQ(s.hits + s.misses, s.accesses);
  EXPECT_EQ(s.hits, r.hits);
  return r;
}

TEST(TlbMemoTest, SinglePageStreamMatchesScan) {
  SinglePageTlb tlb(8);
  const MemoStreamResult r = RunMemoStream(tlb, 11, [&](Rng&, Asid asid, Vpn vpn) {
    tlb.Insert(asid, vpn, BaseFill(vpn, Ppn{vpn.raw() + 0x100000}));
  });
  EXPECT_GT(r.hits, 5000u);
}

TEST(TlbMemoTest, SuperpageStreamMatchesScan) {
  SuperpageTlb tlb(8);
  const MemoStreamResult r = RunMemoStream(tlb, 12, [&](Rng& rng, Asid asid, Vpn vpn) {
    const std::uint64_t kind = rng.Below(4);
    if (kind == 0) {
      tlb.Insert(asid, vpn, BaseFill(vpn, Ppn{vpn.raw() + 0x100000}));
    } else if (kind == 3) {
      const Vpn block = SuperpageBaseVpn(vpn, kPage64K);
      tlb.Insert(asid, vpn, PsbFill(block, Ppn{block.raw() + 0x100000}, 0xFFFF));
    } else {
      const PageSize size = kind == 1 ? kPage8K : kPage64K;
      const Vpn base = SuperpageBaseVpn(vpn, size);
      tlb.Insert(asid, vpn, SuperFill(base, Ppn{base.raw() + 0x100000}, size));
    }
  });
  EXPECT_GT(r.class_hits, 0u);
  EXPECT_EQ(tlb.superpage_hits(), r.class_hits);
}

TEST(TlbMemoTest, PartialSubblockStreamMatchesScan) {
  PartialSubblockTlb tlb(8, 16);
  const MemoStreamResult r = RunMemoStream(tlb, 13, [&](Rng& rng, Asid asid, Vpn vpn) {
    const Vpn block = SuperpageBaseVpn(vpn, kPage64K);
    const Ppn block_ppn{block.raw() + 0x100000};
    switch (rng.Below(3)) {
      case 0:
        tlb.Insert(asid, vpn, BaseFill(vpn, Ppn{vpn.raw() + 0x200000}));
        break;
      case 1:
        tlb.Insert(asid, vpn, SuperFill(block, block_ppn, kPage64K));
        break;
      default: {
        const auto vector = static_cast<std::uint16_t>(rng.Below(0x10000) |
                                                       (1u << (vpn - block)));
        tlb.Insert(asid, vpn, PsbFill(block, block_ppn, vector));
        break;
      }
    }
  });
  EXPECT_GT(r.class_hits, 0u);
  EXPECT_EQ(tlb.subblock_hits(), r.class_hits);
}

TEST(TlbMemoTest, CompleteSubblockStreamMatchesScan) {
  CompleteSubblockTlb tlb(2, 16);  // Small, so refills often evict the memo's entry.
  const MemoStreamResult r = RunMemoStream(tlb, 14, [&](Rng& rng, Asid asid, Vpn vpn) {
    if (rng.Below(2) == 0) {
      tlb.Insert(asid, vpn, BaseFill(vpn, Ppn{vpn.raw() + 0x100000}));
      return;
    }
    // Block prefetch of the faulting page plus a random subset of its block.
    const Vpn block = SuperpageBaseVpn(vpn, kPage64K);
    std::vector<pt::TlbFill> fills{BaseFill(vpn, Ppn{vpn.raw() + 0x100000})};
    for (unsigned i = 0; i < 16; ++i) {
      if (rng.Below(3) == 0) {
        fills.push_back(BaseFill(block + i, Ppn{block.raw() + i + 0x100000}));
      }
    }
    tlb.InsertBlock(asid, vpn, fills);
  });
  EXPECT_GT(r.hits, 5000u);
}

template <class T>
std::unique_ptr<T> MakeTlb(unsigned entries) {
  if constexpr (std::is_constructible_v<T, unsigned, unsigned>) {
    return std::make_unique<T>(entries, 16);
  } else {
    return std::make_unique<T>(entries);
  }
}

template <class T>
class TlbMemoTypedTest : public ::testing::Test {};
using FullyAssociativeTlbs =
    ::testing::Types<SinglePageTlb, SuperpageTlb, PartialSubblockTlb, CompleteSubblockTlb>;
TYPED_TEST_SUITE(TlbMemoTypedTest, FullyAssociativeTlbs);

TYPED_TEST(TlbMemoTypedTest, MemoizedEntryEvictedByInsertsMisses) {
  auto tlb = MakeTlb<TypeParam>(64);
  const Vpn vpn{0x8000};
  tlb->Insert(0, vpn, BaseFill(vpn, Ppn{1}));
  ASSERT_EQ(tlb->Lookup(0, vpn), LookupOutcome::kHit);
  ASSERT_EQ(tlb->Lookup(0, vpn), LookupOutcome::kHit);  // Answered by the memo.
  for (unsigned i = 1; i <= 64; ++i) {  // One fresh block each: evicts vpn last.
    const Vpn other = vpn + 16ull * i;
    tlb->Insert(0, other, BaseFill(other, Ppn{i + 1}));
  }
  EXPECT_TRUE(IsMiss(tlb->Lookup(0, vpn)));
  EXPECT_EQ(tlb->stats().hits, 2u);
  EXPECT_EQ(tlb->stats().misses, 1u);
}

TYPED_TEST(TlbMemoTypedTest, FlushForgetsMemoizedEntry) {
  auto tlb = MakeTlb<TypeParam>(64);
  const Vpn vpn{0x8000};
  tlb->Insert(0, vpn, BaseFill(vpn, Ppn{1}));
  ASSERT_EQ(tlb->Lookup(0, vpn), LookupOutcome::kHit);
  tlb->Flush();
  EXPECT_TRUE(IsMiss(tlb->Lookup(0, vpn)));
}

TYPED_TEST(TlbMemoTypedTest, SameVpnUnderOtherAsidMisses) {
  auto tlb = MakeTlb<TypeParam>(64);
  const Vpn vpn{0x8000};
  tlb->Insert(0, vpn, BaseFill(vpn, Ppn{1}));
  ASSERT_EQ(tlb->Lookup(0, vpn), LookupOutcome::kHit);
  EXPECT_TRUE(IsMiss(tlb->Lookup(1, vpn)));
  EXPECT_EQ(tlb->Lookup(0, vpn), LookupOutcome::kHit);
  EXPECT_EQ(tlb->stats().hits, 2u);
  EXPECT_EQ(tlb->stats().misses, 1u);
}

TEST(TlbMemoTest, InsertBlockGrowingTheVectorKeepsHitsExact) {
  CompleteSubblockTlb tlb(4, 16);
  const Vpn block{0x8000};
  const pt::TlbFill page0 = BaseFill(block, Ppn{0x100});
  tlb.InsertBlock(0, block, std::span<const pt::TlbFill>(&page0, 1));
  ASSERT_EQ(tlb.Lookup(0, block), LookupOutcome::kHit);
  ASSERT_EQ(tlb.Lookup(0, block + 1), LookupOutcome::kSubblockMiss);
  const pt::TlbFill whole = SuperFill(block, Ppn{0x100}, kPage64K);
  tlb.InsertBlock(0, block + 1, std::span<const pt::TlbFill>(&whole, 1));
  EXPECT_EQ(tlb.Lookup(0, block + 1), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, block), LookupOutcome::kHit);
  EXPECT_EQ(tlb.Lookup(0, block), LookupOutcome::kHit);
  EXPECT_EQ(tlb.stats().hits, 4u);
  EXPECT_EQ(tlb.stats().subblock_misses, 1u);
}

TEST(TlbMemoTest, InsertBlockReusingTheMemoizedSlotMisses) {
  CompleteSubblockTlb tlb(1, 16);
  const pt::TlbFill a = BaseFill(Vpn{0x8000}, Ppn{0x100});
  const pt::TlbFill b = BaseFill(Vpn{0x9000}, Ppn{0x200});
  tlb.InsertBlock(0, Vpn{0x8000}, std::span<const pt::TlbFill>(&a, 1));
  ASSERT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kHit);
  tlb.InsertBlock(0, Vpn{0x9000}, std::span<const pt::TlbFill>(&b, 1));  // Same slot.
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x8000}), LookupOutcome::kBlockMiss);
  EXPECT_EQ(tlb.Lookup(0, Vpn{0x9000}), LookupOutcome::kHit);
}

// ---------------------------------------------------------------------------
// Policy model: each design against a scan-only model of its policy
// ---------------------------------------------------------------------------

enum class Design : std::uint8_t { kSinglePage, kSuperpage, kPartialSubblock, kCompleteSubblock };

// The replacement and coverage policy of one Figure 11 design, written as
// the plainest scan over entry views: no memo, no packed tags.  A hit stamps
// the first covering entry in array order.  A fill refreshes the live entry
// of the same slot, else takes the last invalid entry, else the oldest
// stamp; a complete-subblock entry is allocated in the first invalid entry,
// else the oldest.  Its views use the same conventions as AuditVisit.
class PolicyModel {
 public:
  PolicyModel(Design design, unsigned entries, unsigned factor)
      : design_(design), factor_(factor), entries_(entries) {
    for (Entry& e : entries_) {
      e.ppns.resize(factor);
    }
  }

  LookupOutcome Lookup(Asid asid, Vpn vpn) {
    ++stats_.accesses;
    for (Entry& e : entries_) {
      if (ViewCovers(ViewOf(e), asid, vpn)) {
        e.view.stamp = ++clock_;
        ++stats_.hits;
        if (design_ != Design::kCompleteSubblock && e.view.pages_log2 > 0) {
          ++class_hits_;
        }
        return LookupOutcome::kHit;
      }
    }
    ++stats_.misses;
    if (design_ != Design::kCompleteSubblock) {
      return LookupOutcome::kMiss;
    }
    for (const Entry& e : entries_) {
      if (HoldsBlock(e, asid, vpn)) {
        ++stats_.subblock_misses;
        return LookupOutcome::kSubblockMiss;
      }
    }
    ++stats_.block_misses;
    return LookupOutcome::kBlockMiss;
  }

  void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
    if (design_ == Design::kCompleteSubblock) {
      Entry& e = BlockEntry(asid, vpn);
      const unsigned boff = BoffOf(vpn, factor_);
      e.view.valid_vector |= std::uint64_t{1} << boff;
      e.ppns[boff] = fill.Translate(vpn);
      e.view.stamp = ++clock_;
      return;
    }
    check::TlbEntryView in;
    in.valid = true;
    in.asid = asid;
    in.base_vpn = vpn;
    switch (design_) {
      case Design::kSinglePage:
        in.base_ppn = fill.Translate(vpn);
        break;
      case Design::kSuperpage:
        if (fill.kind == MappingKind::kPartialSubblock) {
          in.base_ppn = fill.Translate(vpn);
        } else {
          in.base_vpn = fill.base_vpn;
          in.base_ppn = fill.word.ppn();
          in.pages_log2 = fill.pages_log2;
        }
        break;
      case Design::kPartialSubblock:
        if (fill.kind == MappingKind::kPartialSubblock ||
            (fill.kind == MappingKind::kSuperpage && fill.pages_log2 == Log2(factor_))) {
          in.base_vpn = FirstVpnOfBlock(VpbnOf(fill.base_vpn, factor_), factor_);
          in.base_ppn = fill.word.ppn();
          in.pages_log2 = Log2(factor_);
          in.valid_vector = fill.kind == MappingKind::kPartialSubblock
                                ? fill.word.valid_vector()
                                : (std::uint64_t{1} << factor_) - 1;
        } else {
          in.base_ppn = fill.Translate(vpn);
        }
        break;
      case Design::kCompleteSubblock:
        break;
    }
    Entry* victim = nullptr;
    for (Entry& e : entries_) {
      if (e.view.valid && e.view.asid == asid && e.view.base_vpn == in.base_vpn &&
          e.view.pages_log2 == in.pages_log2) {
        victim = &e;
        break;
      }
    }
    if (victim == nullptr) {
      victim = &Victim(/*last_invalid=*/true);
    }
    in.stamp = ++clock_;
    victim->view = in;
  }

  void InsertBlock(Asid asid, Vpn vpn, std::span<const pt::TlbFill> fills) {
    Entry& e = BlockEntry(asid, vpn);
    for (const pt::TlbFill& fill : fills) {
      for (unsigned i = 0; i < factor_; ++i) {
        if (fill.Covers(e.view.base_vpn + i)) {
          e.view.valid_vector |= std::uint64_t{1} << i;
          e.ppns[i] = fill.Translate(e.view.base_vpn + i);
        }
      }
    }
    e.view.stamp = ++clock_;
  }

  void Flush() {
    for (Entry& e : entries_) {
      e.view.valid = false;
    }
  }

  // The entry views AuditVisit would report.
  std::vector<check::TlbEntryView> Views() const {
    std::vector<check::TlbEntryView> views;
    for (const Entry& e : entries_) {
      views.push_back(ViewOf(e));
    }
    return views;
  }
  const TlbStats& stats() const { return stats_; }
  std::uint64_t class_hits() const { return class_hits_; }

 private:
  struct Entry {
    check::TlbEntryView view;
    std::vector<Ppn> ppns;  // Complete-subblock PPN per page of the block.
  };

  // An entry's view with its translations: a complete-subblock entry's
  // pages map to their own frames, every other entry's to one frame run.
  check::TlbEntryView ViewOf(const Entry& e) const {
    check::TlbEntryView view = e.view;
    if (design_ != Design::kCompleteSubblock) {
      view.TranslateRun(/*by_vector=*/design_ == Design::kPartialSubblock && view.pages_log2 > 0);
      return view;
    }
    for (unsigned i = 0; view.valid && i < factor_; ++i) {
      if ((view.valid_vector >> i) & 1u) {
        view.translations.emplace_back(view.base_vpn + i, e.ppns[i]);
      }
    }
    return view;
  }

  bool HoldsBlock(const Entry& e, Asid asid, Vpn vpn) const {
    return e.view.valid && e.view.asid == asid &&
           e.view.base_vpn == FirstVpnOfBlock(VpbnOf(vpn, factor_), factor_);
  }
  Entry& Victim(bool last_invalid) {
    Entry* victim = nullptr;
    for (Entry& e : entries_) {
      if (!e.view.valid && (last_invalid || victim == nullptr || victim->view.valid)) {
        victim = &e;
      }
    }
    if (victim != nullptr) {
      return *victim;
    }
    victim = &entries_[0];
    for (Entry& e : entries_) {
      if (e.view.stamp < victim->view.stamp) {
        victim = &e;
      }
    }
    return *victim;
  }
  // The complete-subblock entry of vpn's block, allocated if absent.
  Entry& BlockEntry(Asid asid, Vpn vpn) {
    for (Entry& e : entries_) {
      if (HoldsBlock(e, asid, vpn)) {
        return e;
      }
    }
    Entry& e = Victim(/*last_invalid=*/false);
    e.view = check::TlbEntryView{};
    e.view.valid = true;
    e.view.asid = asid;
    e.view.base_vpn = FirstVpnOfBlock(VpbnOf(vpn, factor_), factor_);
    e.view.pages_log2 = Log2(factor_);
    e.view.stamp = ++clock_;
    return e;
  }

  Design design_;
  unsigned factor_;
  std::vector<Entry> entries_;
  TlbStats stats_;
  std::uint64_t class_hits_ = 0;
  std::uint64_t clock_ = 0;
};

// Compares every entry view and the statistics with the model's.  Invalid
// entries are compared only by validity and stamp: nothing reads the rest.
template <class T>
::testing::AssertionResult MatchesModel(const T& tlb, const PolicyModel& model) {
  const std::vector<check::TlbEntryView> got = ViewsOf(tlb);
  const std::vector<check::TlbEntryView> want = model.Views();
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << got.size() << " entries, model has " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const check::TlbEntryView& g = got[i];
    const check::TlbEntryView& w = want[i];
    if (g.valid != w.valid || g.stamp != w.stamp ||
        (w.valid && (g.asid != w.asid || g.base_vpn != w.base_vpn || g.base_ppn != w.base_ppn ||
                     g.pages_log2 != w.pages_log2 || g.valid_vector != w.valid_vector ||
                     g.translations != w.translations))) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": valid " << g.valid << " stamp " << g.stamp << " base "
             << g.base_vpn << " vector " << g.valid_vector << "; model: valid " << w.valid
             << " stamp " << w.stamp << " base " << w.base_vpn << " vector " << w.valid_vector;
    }
  }
  const TlbStats& a = tlb.stats();
  const TlbStats& b = model.stats();
  if (a.accesses != b.accesses || a.hits != b.hits || a.misses != b.misses ||
      a.block_misses != b.block_misses || a.subblock_misses != b.subblock_misses) {
    return ::testing::AssertionFailure() << "stats differ: hits " << a.hits << " vs " << b.hits
                                         << ", misses " << a.misses << " vs " << b.misses;
  }
  std::uint64_t class_hits = 0;
  if constexpr (std::is_same_v<T, SuperpageTlb>) {
    class_hits = tlb.superpage_hits();
  } else if constexpr (std::is_same_v<T, PartialSubblockTlb>) {
    class_hits = tlb.subblock_hits();
  }
  if (class_hits != model.class_hits()) {
    return ::testing::AssertionFailure() << "class hits " << class_hits << " vs "
                                         << model.class_hits();
  }
  return ::testing::AssertionSuccess();
}

constexpr Vpn kModelFirstVpn{0x8000};
constexpr unsigned kModelPages = 96;

// A fill for a page of (asid, vpn), chosen from the kinds `design` meets:
// most cover vpn, some on purpose do not (a PSB vector without vpn's bit,
// a superpage of the next block).  Each is valid for its design.
pt::TlbFill RandomFill(Design design, Rng& rng, Vpn vpn) {
  const Vpn block = SuperpageBaseVpn(vpn, kPage64K);
  const Ppn block_ppn{block.raw() + 0x100000};
  const auto psb_vector = [&] {
    auto vector = static_cast<std::uint16_t>(rng.Below(0x10000));
    if (rng.Below(4) != 0) {
      vector |= static_cast<std::uint16_t>(1u << (vpn - block));
    }
    return vector;
  };
  switch (rng.Below(5)) {
    case 0:
      return BaseFill(vpn, Ppn{vpn.raw() + 0x200000});
    case 1: {
      const Vpn base = SuperpageBaseVpn(vpn, kPage8K);
      return SuperFill(base, Ppn{base.raw() + 0x100000}, kPage8K);
    }
    case 2:
      return SuperFill(block, block_ppn, kPage64K);
    case 3:
      if (design == Design::kSuperpage || design == Design::kPartialSubblock) {
        return SuperFill(block + 16, block_ppn + 16, kPage64K);  // Covers the next block.
      }
      return BaseFill(vpn, Ppn{vpn.raw() + 0x200000});
    default:
      return PsbFill(block, block_ppn, psb_vector());
  }
}

// Installs a fill for (asid, vpn) in both: an Insert, or for the
// complete-subblock design often a block prefetch, whose fills sometimes
// leave vpn itself out.
template <class T>
void InstallBoth(T& tlb, PolicyModel& model, Design design, Rng& rng, Asid asid, Vpn vpn) {
  if constexpr (std::is_same_v<T, CompleteSubblockTlb>) {
    if (rng.Below(2) == 0) {
      const Vpn block = SuperpageBaseVpn(vpn, kPage64K);
      std::vector<pt::TlbFill> fills;
      if (rng.Below(5) != 0) {
        fills.push_back(BaseFill(vpn, Ppn{vpn.raw() + 0x100000}));
      }
      for (unsigned i = 0; i < 16; ++i) {
        if (block + i != vpn && rng.Below(3) == 0) {
          fills.push_back(BaseFill(block + i, Ppn{block.raw() + i + 0x300000}));
        }
      }
      if (rng.Below(4) == 0) {
        const Vpn base = SuperpageBaseVpn(block + rng.Below(16), kPage8K);
        fills.push_back(SuperFill(base, Ppn{base.raw() + 0x100000}, kPage8K));
      }
      tlb.InsertBlock(asid, vpn, fills);
      model.InsertBlock(asid, vpn, fills);
      return;
    }
  }
  const pt::TlbFill fill = RandomFill(design, rng, vpn);
  tlb.Insert(asid, vpn, fill);
  model.Insert(asid, vpn, fill);
}

// A seeded mix of probes (mostly repeats, the memo's case), refills after
// misses, inserts that no miss preceded and flushes, checked against the
// model after every step.
template <class T>
void RunAgainstModel(T& tlb, Design design, unsigned factor, std::uint64_t seed) {
  PolicyModel model(design, tlb.num_entries(), factor);
  Rng rng(seed);
  Asid asid = 0;
  Vpn vpn = kModelFirstVpn;
  std::uint64_t hits = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t roll = rng.Below(100);
    if (roll < 1) {
      tlb.Flush();
      model.Flush();
    } else if (roll < 6) {  // An insert with no miss before it; often probed next.
      asid = static_cast<Asid>(rng.Below(2));
      vpn = kModelFirstVpn + rng.Below(kModelPages);
      InstallBoth(tlb, model, design, rng, asid, vpn);
    } else {
      if (roll >= 55) {
        asid = static_cast<Asid>(rng.Below(2));
        vpn = kModelFirstVpn + rng.Below(kModelPages);
      }
      const LookupOutcome out = tlb.Lookup(asid, vpn);
      ASSERT_EQ(out, model.Lookup(asid, vpn)) << "step " << step;
      hits += out == LookupOutcome::kHit;
      if (IsMiss(out) && rng.Below(10) != 0) {
        InstallBoth(tlb, model, design, rng, asid, vpn);
      }
    }
    ASSERT_TRUE(MatchesModel(tlb, model)) << "step " << step;
  }
  EXPECT_GT(hits, 5000u);
  EXPECT_GT(tlb.stats().misses, 500u);
}

TEST(TlbMemoModelTest, SinglePageMatchesPolicyModel) {
  SinglePageTlb tlb(8);
  RunAgainstModel(tlb, Design::kSinglePage, 16, 21);
}

TEST(TlbMemoModelTest, SuperpageMatchesPolicyModel) {
  SuperpageTlb tlb(8);
  RunAgainstModel(tlb, Design::kSuperpage, 16, 22);
  EXPECT_GT(tlb.SuperpageHitFraction(), 0.0);
}

TEST(TlbMemoModelTest, PartialSubblockMatchesPolicyModel) {
  PartialSubblockTlb tlb(8, 16);
  RunAgainstModel(tlb, Design::kPartialSubblock, 16, 23);
  EXPECT_GT(tlb.SubblockHitFraction(), 0.0);
}

TEST(TlbMemoModelTest, CompleteSubblockMatchesPolicyModel) {
  CompleteSubblockTlb tlb(4, 16);
  RunAgainstModel(tlb, Design::kCompleteSubblock, 16, 24);
  EXPECT_GT(tlb.stats().subblock_misses, 0u);
}

// An Insert that serves no miss must not memoize its entry, even when the
// entry covers the page: an older entry earlier in the array may cover it
// too, and the scan hits that one.
TEST(TlbMemoModelTest, InsertWithoutMissUnderCoveringSuperpageDoesNotMemoize) {
  SuperpageTlb tlb(2);
  const Vpn block{0x8000};
  const Vpn other{0x9000};
  tlb.Insert(0, other, BaseFill(other, Ppn{0x300}));                // Entry 1.
  tlb.Insert(0, block + 3, SuperFill(block, Ppn{0x100}, kPage64K));  // Entry 0.
  ASSERT_EQ(tlb.Lookup(0, block + 3), LookupOutcome::kHit);  // Entry 1 is now the oldest.
  ASSERT_TRUE(IsMiss(tlb.Lookup(0, Vpn{0xA000})));  // A pending miss on another page.
  tlb.Insert(0, block + 5, BaseFill(block + 5, Ppn{0x105}));  // Replaces entry 1.
  EXPECT_FALSE(tlb.Memoizes(0, block + 5));
  ASSERT_EQ(tlb.Lookup(0, block + 5), LookupOutcome::kHit);
  const std::vector<check::TlbEntryView> views = ViewsOf(tlb);
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[1].base_vpn, block + 5);
  EXPECT_GT(views[0].stamp, views[1].stamp) << "the hit must stamp the superpage entry";
  EXPECT_EQ(tlb.superpage_hits(), tlb.stats().hits);
}

// The fill that serves a miss memoizes its entry when that entry covers the
// page, and the memo lasts until the next Insert, Flush or InsertBlock.
TYPED_TEST(TlbMemoTypedTest, FillServingAMissMemoizesUntilTheNextChange) {
  const Vpn vpn{0x8000};
  const Vpn other{0x9000};
  for (int change = 0; change < 3; ++change) {
    auto tlb = MakeTlb<TypeParam>(64);
    ASSERT_TRUE(IsMiss(tlb->Lookup(0, vpn)));
    tlb->Insert(0, vpn, BaseFill(vpn, Ppn{1}));
    ASSERT_TRUE(tlb->Memoizes(0, vpn));
    if (change == 0) {
      tlb->Insert(0, other, BaseFill(other, Ppn{2}));
    } else if (change == 1) {
      tlb->Flush();
    } else if constexpr (std::is_same_v<TypeParam, CompleteSubblockTlb>) {
      const pt::TlbFill fill = BaseFill(other, Ppn{2});
      tlb->InsertBlock(0, other, std::span<const pt::TlbFill>(&fill, 1));
    } else {
      continue;
    }
    EXPECT_FALSE(tlb->Memoizes(0, vpn)) << "change " << change;
    EXPECT_EQ(IsMiss(tlb->Lookup(0, vpn)), change == 1) << "change " << change;
  }
}

TYPED_TEST(TlbMemoTypedTest, InsertWithoutAMissDoesNotMemoize) {
  auto tlb = MakeTlb<TypeParam>(64);
  const Vpn vpn{0x8000};
  ASSERT_TRUE(IsMiss(tlb->Lookup(0, vpn + 1)));  // Pending: another page.
  tlb->Insert(0, vpn, BaseFill(vpn, Ppn{1}));
  EXPECT_FALSE(tlb->Memoizes(0, vpn));
  ASSERT_TRUE(IsMiss(tlb->Lookup(1, vpn)));  // Pending: another asid.
  tlb->Insert(0, vpn, BaseFill(vpn, Ppn{1}));
  EXPECT_FALSE(tlb->Memoizes(0, vpn));
}

TEST(TlbMemoTest, PsbFillWithoutThePageDoesNotMemoize) {
  PartialSubblockTlb tlb(8, 16);
  const Vpn block{0x8000};
  ASSERT_TRUE(IsMiss(tlb.Lookup(0, block + 2)));
  tlb.Insert(0, block + 2, PsbFill(block, Ppn{0x100}, 0x0003));  // Pages 0 and 1 only.
  EXPECT_FALSE(tlb.Memoizes(0, block + 2));
  EXPECT_TRUE(IsMiss(tlb.Lookup(0, block + 2)));
}

TEST(TlbMemoTest, InsertBlockWithoutThePageDoesNotMemoize) {
  CompleteSubblockTlb tlb(4, 16);
  const Vpn block{0x8000};
  ASSERT_EQ(tlb.Lookup(0, block + 2), LookupOutcome::kBlockMiss);
  const pt::TlbFill fill = BaseFill(block + 1, Ppn{0x101});
  tlb.InsertBlock(0, block + 2, std::span<const pt::TlbFill>(&fill, 1));
  EXPECT_FALSE(tlb.Memoizes(0, block + 2));
  EXPECT_EQ(tlb.Lookup(0, block + 2), LookupOutcome::kSubblockMiss);
  const pt::TlbFill page2 = BaseFill(block + 2, Ppn{0x102});
  tlb.InsertBlock(0, block + 2, std::span<const pt::TlbFill>(&page2, 1));
  EXPECT_TRUE(tlb.Memoizes(0, block + 2));
  EXPECT_EQ(tlb.Lookup(0, block + 2), LookupOutcome::kHit);
}

}  // namespace
}  // namespace cpt::tlb
