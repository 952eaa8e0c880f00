#include "core/adaptive.h"

#include <bit>

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::core {

using pt::TlbFill;

AdaptiveClusteredPageTable::AdaptiveClusteredPageTable(mem::CacheTouchModel& cache, Options opts)
    : ChainArena(cache, opts.num_buckets, std::bit_ceil(kHeaderBytes + kWordBytes)),
      factor_(opts.subblock_factor),
      block_log2_(Log2(opts.subblock_factor)) {
  CPT_CHECK(IsPowerOfTwo(factor_) && factor_ >= 2 && factor_ <= kMaxFactor);
}

AdaptiveClusteredPageTable::~AdaptiveClusteredPageTable() = default;

std::uint64_t AdaptiveClusteredPageTable::WordTranslations(const MappingWord& w) const {
  switch (w.kind()) {
    case MappingKind::kBase:
      return w.valid() ? 1 : 0;
    case MappingKind::kSuperpage:
      return w.valid() ? factor_ : 0;  // One compact node per covered block.
    case MappingKind::kPartialSubblock: {
      const std::uint32_t mask = factor_ >= 16 ? 0xFFFFu : ((1u << factor_) - 1);
      return std::popcount(w.valid_vector() & mask);
    }
  }
  return 0;
}

std::uint64_t AdaptiveClusteredPageTable::NodeTranslations(const AdaptiveNode& n) const {
  if (n.kind == NodeKind::kSingle) {
    return n.words[0].load().valid() ? 1 : 0;
  }
  if (n.kind == NodeKind::kArray) {
    std::uint64_t total = 0;
    for (const AtomicMappingWord& cell : n.words) {
      total += cell.load().valid() ? 1 : 0;
    }
    return total;
  }
  return WordTranslations(n.words[0].load());
}

void AdaptiveClusteredPageTable::StoreWord(AtomicMappingWord& slot, MappingWord w) {
  live_translations_ -= WordTranslations(slot.load());
  live_translations_ += WordTranslations(w);
  slot.store(w);
}

AdaptiveNode& AdaptiveClusteredPageTable::NewNode(std::uint32_t b, Vpbn tag, NodeKind kind,
                                                  unsigned nwords) {
  AdaptiveNode& n = Alloc(b, NodeBytes(kind));
  n.tag = tag;
  n.kind = kind;
  n.words.assign(nwords, AtomicMappingWord{MappingWord::Invalid()});
  return n;
}

void AdaptiveClusteredPageTable::RemoveNode(std::int32_t* link) {
  const AdaptiveNode& n = NodeAt(link);
  live_translations_ -= NodeTranslations(n);
  UnlinkAndFree(link, NodeBytes(n.kind));
}

TlbFill AdaptiveClusteredPageTable::FillFromWord(const AdaptiveNode& n, unsigned boff) const {
  const Vpn block_first = FirstVpnOfBlock(n.tag, factor_);
  TlbFill fill;
  switch (n.kind) {
    case NodeKind::kSingle:
      fill.kind = MappingKind::kBase;
      fill.base_vpn = block_first + n.boff;
      fill.pages_log2 = 0;
      fill.word = n.words[0].load();
      break;
    case NodeKind::kArray:
      fill.kind = MappingKind::kBase;
      fill.base_vpn = block_first + boff;
      fill.pages_log2 = 0;
      fill.word = n.words[boff].load();
      break;
    case NodeKind::kSuperpage: {
      const MappingWord w = n.words[0].load();
      fill.kind = MappingKind::kSuperpage;
      fill.pages_log2 = w.page_size().size_log2;
      fill.base_vpn = SuperpageBaseVpn(block_first, w.page_size());
      fill.word = w;
      break;
    }
    case NodeKind::kPsb:
      fill.kind = MappingKind::kPartialSubblock;
      fill.base_vpn = block_first;
      fill.pages_log2 = block_log2_;
      fill.word = n.words[0].load();
      break;
  }
  return fill;
}

std::optional<TlbFill> AdaptiveClusteredPageTable::Match(const AdaptiveNode& n, Vpbn vpbn,
                                                         unsigned boff) const {
  if (n.tag != vpbn) {
    return std::nullopt;
  }
  // A single-page node of another page decodes to a fill that does not
  // cover this one, so the search goes on.
  return FillFromWord(n, boff);
}

std::optional<TlbFill> AdaptiveClusteredPageTable::Lookup(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  return Probe(BucketOf(vpbn), vpn, kHeaderBytes, [&](const AdaptiveNode& n, PhysAddr addr) {
    const std::optional<TlbFill> fill = Match(n, vpbn, boff);
    if (fill) {
      // Read word 0 (the S/format check), then the selected word for arrays.
      cache_.Touch(addr + kHeaderBytes, kWordBytes);
      if (n.kind == NodeKind::kArray && boff != 0) {
        cache_.Touch(addr + kHeaderBytes + boff * kWordBytes, kWordBytes);
      }
    }
    return fill;
  });
}

void AdaptiveClusteredPageTable::LookupBlock(VirtAddr va, unsigned subblock_factor,
                                             std::vector<TlbFill>& out) {
  CPT_DCHECK(subblock_factor == factor_);
  const Vpbn vpbn = VpbnOf(VpnOf(va), factor_);
  const std::uint32_t b = BucketOf(vpbn);
  cache_.Touch(HeadAddr(b), 16);
  for (const auto [n, addr] : Walk(b)) {
    cache_.Touch(addr, 16);
    if (n.tag != vpbn) {
      continue;
    }
    cache_.Touch(addr + 16, 8ull * n.words.size());
    if (n.kind == NodeKind::kArray) {
      for (unsigned i = 0; i < factor_; ++i) {
        if (n.words[i].load().valid()) {
          out.push_back(FillFromWord(n, i));
        }
      }
    } else if (n.words[0].load().valid()) {
      out.push_back(FillFromWord(n, n.boff));
    }
  }
}

unsigned AdaptiveClusteredPageTable::BlockBaseOccupancy(Vpbn tag) const {
  unsigned occupancy = 0;
  for (const AdaptiveNode& n : Nodes(BucketOf(tag))) {
    if (n.tag == tag && (n.kind == NodeKind::kSingle || n.kind == NodeKind::kArray)) {
      occupancy += static_cast<unsigned>(NodeTranslations(n));
    }
  }
  return occupancy;
}

void AdaptiveClusteredPageTable::PromoteToArray(Vpbn tag) {
  // Gather the singles, free them in chain order, and only then allocate
  // the array node (the simulated allocator sees the frees first).
  MappingWord words[kMaxFactor];
  for (unsigned i = 0; i < factor_; ++i) {
    words[i] = MappingWord::Invalid();
  }
  const std::uint32_t b = BucketOf(tag);
  while (std::int32_t* link = FindLink(b, KindMatch(tag, NodeKind::kSingle))) {
    const AdaptiveNode& n = NodeAt(link);
    words[n.boff] = n.words[0].load();
    RemoveNode(link);
  }
  AdaptiveNode& array = NewNode(b, tag, NodeKind::kArray, factor_);
  for (unsigned i = 0; i < factor_; ++i) {
    array.words[i].store(words[i]);
  }
  live_translations_ += NodeTranslations(array);
  ++promotions_;
}

void AdaptiveClusteredPageTable::DemoteToSingles(Vpbn tag) {
  const std::uint32_t b = BucketOf(tag);
  std::int32_t* link = FindLink(b, KindMatch(tag, NodeKind::kArray));
  if (link == nullptr) {
    return;
  }
  MappingWord words[kMaxFactor];
  for (unsigned i = 0; i < factor_; ++i) {
    words[i] = NodeAt(link).words[i].load();
  }
  RemoveNode(link);
  for (unsigned i = 0; i < factor_; ++i) {
    if (words[i].valid()) {
      AdaptiveNode& single = NewNode(b, tag, NodeKind::kSingle, 1);
      single.boff = static_cast<std::uint8_t>(i);
      single.words[0].store(words[i]);
      ++live_translations_;
    }
  }
  ++demotions_;
}

void AdaptiveClusteredPageTable::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  const Vpbn tag = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  const MappingWord word = MappingWord::Base(ppn, attr);
  // Upsert into an existing array or single node for this page.
  const std::uint32_t b = BucketOf(tag);
  AdaptiveNode* n = Find(b, [&](const AdaptiveNode& node) {
    return node.tag == tag &&
           (node.kind == NodeKind::kArray || (node.kind == NodeKind::kSingle && node.boff == boff));
  });
  if (n != nullptr) {
    StoreWord(n->words[n->kind == NodeKind::kArray ? boff : 0], word);
    return;
  }
  // New single-page node; promote the block if it crossed the threshold.
  AdaptiveNode& single = NewNode(b, tag, NodeKind::kSingle, 1);
  single.boff = static_cast<std::uint8_t>(boff);
  StoreWord(single.words[0], word);
  if (BlockBaseOccupancy(tag) >= kPromoteOccupancy) {
    PromoteToArray(tag);
  }
}

bool AdaptiveClusteredPageTable::RemoveBase(Vpn vpn) {
  const Vpbn tag = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  std::int32_t* link = FindLink(BucketOf(tag), [&](const AdaptiveNode& n) {
    return n.tag == tag &&
           ((n.kind == NodeKind::kSingle && n.boff == boff && n.words[0].load().valid()) ||
            (n.kind == NodeKind::kArray && n.words[boff].load().valid()));
  });
  if (link == nullptr) {
    return false;
  }
  AdaptiveNode& n = NodeAt(link);
  if (n.kind == NodeKind::kSingle) {
    RemoveNode(link);
    return true;
  }
  StoreWord(n.words[boff], MappingWord::Invalid());
  const unsigned occupancy = BlockBaseOccupancy(tag);
  if (occupancy == 0) {
    RemoveNode(link);
  } else if (occupancy <= kDemoteOccupancy) {
    DemoteToSingles(tag);
  }
  return true;
}

void AdaptiveClusteredPageTable::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn,
                                                 Attr attr) {
  CPT_DCHECK(size.pages() >= factor_, "sub-block superpages use the fixed-factor table");
  CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
  const MappingWord word = MappingWord::Superpage(base_ppn, attr, size);
  const unsigned blocks = size.pages() / factor_;
  const Vpbn first = VpbnOf(base_vpn, factor_);
  for (unsigned blk = 0; blk < blocks; ++blk) {
    const Vpbn tag = first + blk;
    const std::uint32_t b = BucketOf(tag);
    AdaptiveNode* n = Find(b, KindMatch(tag, NodeKind::kSuperpage));
    StoreWord((n != nullptr ? *n : NewNode(b, tag, NodeKind::kSuperpage, 1)).words[0], word);
  }
}

bool AdaptiveClusteredPageTable::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  bool any = false;
  const unsigned blocks = size.pages() >= factor_ ? size.pages() / factor_ : 1;
  const Vpbn first = VpbnOf(base_vpn, factor_);
  for (unsigned blk = 0; blk < blocks; ++blk) {
    const Vpbn tag = first + blk;
    if (std::int32_t* link = FindLink(BucketOf(tag), KindMatch(tag, NodeKind::kSuperpage))) {
      RemoveNode(link);
      any = true;
    }
  }
  return any;
}

void AdaptiveClusteredPageTable::UpsertPartialSubblock(Vpn block_base_vpn,
                                                       unsigned subblock_factor,
                                                       Ppn block_base_ppn, Attr attr,
                                                       std::uint16_t valid_vector) {
  CPT_DCHECK(subblock_factor == factor_ && factor_ <= MappingWord::kMaxPsbFactor);
  const Vpbn tag = VpbnOf(block_base_vpn, factor_);
  const MappingWord word = MappingWord::PartialSubblock(block_base_ppn, attr, valid_vector);
  const std::uint32_t b = BucketOf(tag);
  AdaptiveNode* n = Find(b, KindMatch(tag, NodeKind::kPsb));
  StoreWord((n != nullptr ? *n : NewNode(b, tag, NodeKind::kPsb, 1)).words[0], word);
}

bool AdaptiveClusteredPageTable::RemovePartialSubblock(Vpn block_base_vpn,
                                                       unsigned /*subblock_factor*/) {
  const Vpbn tag = VpbnOf(block_base_vpn, factor_);
  std::int32_t* link = FindLink(BucketOf(tag), KindMatch(tag, NodeKind::kPsb));
  if (link == nullptr) {
    return false;
  }
  RemoveNode(link);
  return true;
}

std::optional<Attr> AdaptiveClusteredPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                                                std::uint16_t clear_mask) {
  // Multi-block superpages replicate one compact node per covered block; the
  // update must hit every replica or a later scan at a sibling block would
  // read stale bits.
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  const auto hit = FindCovering(BucketOf(vpbn), vpn,
                                [&](const AdaptiveNode& n) { return Match(n, vpbn, boff); });
  if (!hit) {
    return std::nullopt;
  }
  const auto& [n, fill] = *hit;
  const Attr was =
      ApplyAttrUpdate(n.words[n.kind == NodeKind::kArray ? boff : 0], set_mask, clear_mask);
  if (n.kind == NodeKind::kSuperpage && fill.pages_log2 > block_log2_) {
    const unsigned blocks = 1u << (fill.pages_log2 - block_log2_);
    const Vpbn first_block = VpbnOf(fill.base_vpn, factor_);
    for (unsigned blk = 0; blk < blocks; ++blk) {
      const Vpbn tag = first_block + blk;
      if (tag == vpbn) {
        continue;
      }
      if (AdaptiveNode* sibling = Find(BucketOf(tag), KindMatch(tag, NodeKind::kSuperpage))) {
        ApplyAttrUpdate(sibling->words[0], set_mask, clear_mask);
      }
    }
  }
  return was;
}

std::uint64_t AdaptiveClusteredPageTable::ProtectRange(Vpn first_vpn, std::uint64_t npages,
                                                       Attr attr) {
  if (npages == 0) {
    return 0;
  }
  // One hash search per page block; each word is rewritten only if its own
  // range (its page, or the block for a compact node) overlaps the range.
  std::uint64_t searches = 0;
  const Vpn last_vpn = first_vpn + npages - 1;
  for (Vpbn tag = VpbnOf(first_vpn, factor_); tag <= VpbnOf(last_vpn, factor_); ++tag) {
    ++searches;
    for (AdaptiveNode& n : Nodes(BucketOf(tag))) {
      if (n.tag != tag) {
        continue;
      }
      for (unsigned i = 0; i < n.words.size(); ++i) {
        const TlbFill fill = FillFromWord(n, i);
        if (fill.word.valid() && fill.Overlaps(first_vpn, last_vpn)) {
          ProtectWord(n.words[i], attr);
        }
      }
    }
  }
  return searches;
}

std::string AdaptiveClusteredPageTable::name() const {
  return "clustered-adaptive-s" + std::to_string(factor_);
}

void AdaptiveClusteredPageTable::AuditVisit(check::PtAuditVisitor& visitor) const {
  // Keyed by VPBN, one format per node.  (A single-page node's base VPN
  // carries its block offset, which the tag shift drops.)
  const check::PtTableView table{.name = name(),
                                 .tag_shift = block_log2_,
                                 .psb_factor = factor_,
                                 .uniform_kind = true,
                                 .check_nonempty = true};
  VisitChains(visitor, table, [this](const AdaptiveNode& n, check::PtNodeView& view) {
    view.tag = n.tag.raw();  // PtNodeView tags are deliberately domain-erased chain keys.
    view.words = n.words.data();
    view.num_words = static_cast<unsigned>(n.words.size());
    view.base_vpn = FirstVpnOfBlock(n.tag, factor_);
    switch (n.kind) {
      case NodeKind::kSingle:
        view.base_vpn += n.boff;
        view.sub_log2 = 0;
        break;
      case NodeKind::kArray:
        view.sub_log2 = 0;
        break;
      case NodeKind::kSuperpage:
      case NodeKind::kPsb:
        // One compact word covering the whole block.
        view.sub_log2 = block_log2_;
        break;
    }
  });
}

}  // namespace cpt::core
