#include "core/clustered.h"

#include <bit>

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::core {

using pt::TlbFill;

// Bucket heads are embedded base-size nodes: probing an empty bucket still
// reads one line, as in the hashed table.
ClusteredPageTable::ClusteredPageTable(mem::CacheTouchModel& cache, Options opts)
    : ChainArena(cache, opts.num_buckets,
                 std::bit_ceil(kHeaderBytes + kWordBytes * opts.subblock_factor)),
      factor_(opts.subblock_factor),
      block_log2_(Log2(opts.subblock_factor)) {
  CPT_CHECK(IsPowerOfTwo(factor_) && factor_ >= 2 && factor_ <= kMaxClusteredFactor);
}

ClusteredPageTable::~ClusteredPageTable() = default;

std::uint64_t ClusteredPageTable::WordTranslations(MappingWord w, unsigned sub_log2) const {
  switch (w.kind()) {
    case MappingKind::kBase:
      return w.valid() ? 1 : 0;
    case MappingKind::kSuperpage:
      // A replica of a larger superpage still only covers this node's
      // slice; each word accounts for 2^sub_log2 base pages.
      return w.valid() ? (std::uint64_t{1} << sub_log2) : 0;
    case MappingKind::kPartialSubblock: {
      const std::uint32_t mask = factor_ >= 16 ? 0xFFFFu : ((1u << factor_) - 1);
      return std::popcount(w.valid_vector() & mask);
    }
  }
  return 0;
}

std::uint64_t ClusteredPageTable::NodeTranslations(const ClusteredNode& n) const {
  std::uint64_t total = 0;
  const unsigned words = WordsInNode(n.sub_log2);
  for (unsigned i = 0; i < words; ++i) {
    total += WordTranslations(n.words[i].load(), n.sub_log2);
  }
  return total;
}

void ClusteredPageTable::StoreWord(ClusteredNode& n, unsigned word_idx, MappingWord w) {
  AtomicMappingWord& slot = n.words[word_idx];
  live_translations_ -= WordTranslations(slot.load(), n.sub_log2);
  live_translations_ += WordTranslations(w, n.sub_log2);
  slot.store(w);
}

bool ClusteredPageTable::NodeEmpty(const ClusteredNode& n) const {
  const unsigned words = WordsInNode(n.sub_log2);
  for (unsigned i = 0; i < words; ++i) {
    if (n.words[i].load().valid()) {
      return false;
    }
  }
  return true;
}

ClusteredNode& ClusteredPageTable::GetOrCreateNode(Vpbn tag, unsigned sub_log2,
                                                   MappingKind kind0) {
  const std::uint32_t b = BucketOf(tag);
  if (ClusteredNode* n = Find(b, NodeMatch(tag, sub_log2, kind0))) {
    return *n;
  }
  ClusteredNode& n = Alloc(b, NodeBytes(sub_log2));
  n.tag = tag;
  n.sub_log2 = static_cast<std::uint8_t>(sub_log2);
  // Empty slots stay self-describing: sub-size superpage nodes carry the SZ
  // field even in invalid words; PSB nodes carry a zero valid vector.
  const unsigned words = WordsInNode(sub_log2);
  for (unsigned i = 0; i < words; ++i) {
    switch (kind0) {
      case MappingKind::kBase:
        n.words[i].store(MappingWord::Invalid());
        break;
      case MappingKind::kSuperpage:
        n.words[i].store(MappingWord::InvalidSuperpage(PageSize{sub_log2}));
        break;
      case MappingKind::kPartialSubblock:
        n.words[i].store(MappingWord::PartialSubblock(Ppn{0}, Attr{}, 0));
        break;
    }
  }
  return n;
}

void ClusteredPageTable::RemoveNode(std::int32_t* link) {
  const ClusteredNode& n = NodeAt(link);
  live_translations_ -= NodeTranslations(n);
  UnlinkAndFree(link, NodeBytes(n.sub_log2));
}

TlbFill ClusteredPageTable::FillFromNode(const ClusteredNode& n, unsigned word_idx) const {
  const MappingWord w = n.words[word_idx].load();
  const Vpn block_first = FirstVpnOfBlock(n.tag, factor_);
  TlbFill fill;
  fill.kind = w.kind();
  fill.word = w;
  switch (w.kind()) {
    case MappingKind::kBase:
      fill.base_vpn = block_first + word_idx;
      fill.pages_log2 = 0;
      break;
    case MappingKind::kSuperpage: {
      fill.pages_log2 = w.page_size().size_log2;
      const Vpn slot_vpn = block_first + (std::uint64_t{word_idx} << n.sub_log2);
      fill.base_vpn = SuperpageBaseVpn(slot_vpn, w.page_size());
      break;
    }
    case MappingKind::kPartialSubblock:
      fill.base_vpn = block_first;
      fill.pages_log2 = block_log2_;
      break;
  }
  return fill;
}

std::optional<TlbFill> ClusteredPageTable::Match(const ClusteredNode& n, Vpbn vpbn,
                                                 unsigned boff) const {
  if (n.tag != vpbn) {
    return std::nullopt;
  }
  return FillFromNode(n, boff >> n.sub_log2);
}

std::optional<TlbFill> ClusteredPageTable::Lookup(VirtAddr va) {
  // Chain traversal is identical to a hashed table's; the bucket head is an
  // embedded node, so even an empty bucket costs one line.
  const Vpn vpn = VpnOf(va);
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  return Probe(BucketOf(vpbn), vpn, kHeaderBytes, [&](const ClusteredNode& n, PhysAddr addr) {
    const std::optional<TlbFill> fill = Match(n, vpbn, boff);
    if (fill) {
      // Tag matched: read mapping[0] to consult the S field (Figure 8),
      // then the block-offset-selected word.
      cache_.Touch(addr + kHeaderBytes, kWordBytes);
      if (const unsigned word_idx = boff >> n.sub_log2; word_idx != 0) {
        cache_.Touch(addr + kHeaderBytes + word_idx * kWordBytes, kWordBytes);
      }
    }
    return fill;
  });
}

void ClusteredPageTable::LookupBlock(VirtAddr va, unsigned subblock_factor,
                                     std::vector<TlbFill>& out) {
  CPT_DCHECK(subblock_factor == factor_);
  const Vpn vpn = VpnOf(va);
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const std::uint32_t b = BucketOf(vpbn);
  cache_.Touch(HeadAddr(b), 16);
  for (const auto [n, addr] : Walk(b)) {
    cache_.Touch(addr, 16);
    if (n.tag != vpbn) {
      continue;
    }
    // All of the block's mappings are adjacent in this node; a clustered PTE
    // mirrors a complete-subblock TLB entry (Section 4.4).
    const unsigned words = WordsInNode(n.sub_log2);
    cache_.Touch(addr + 16, 8ull * words);
    for (unsigned i = 0; i < words; ++i) {
      if (n.words[i].load().valid()) {
        out.push_back(FillFromNode(n, i));
      }
    }
  }
}

void ClusteredPageTable::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  ClusteredNode& n = GetOrCreateNode(VpbnOf(vpn, factor_), 0, MappingKind::kBase);
  StoreWord(n, BoffOf(vpn, factor_), MappingWord::Base(ppn, attr));
}

bool ClusteredPageTable::RemoveBase(Vpn vpn) {
  const Vpbn tag = VpbnOf(vpn, factor_);
  std::int32_t* link = LinkOf(tag, 0, MappingKind::kBase);
  if (link == nullptr) {
    return false;
  }
  ClusteredNode& n = NodeAt(link);
  const unsigned word_idx = BoffOf(vpn, factor_);
  if (!n.words[word_idx].load().valid()) {
    return false;
  }
  StoreWord(n, word_idx, MappingWord::Invalid());
  if (NodeEmpty(n)) {
    RemoveNode(link);
  }
  return true;
}

void ClusteredPageTable::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
  const MappingWord word = MappingWord::Superpage(base_ppn, attr, size);
  if (size.pages() < factor_) {
    // A sub-size node: slots of 2^SZ pages each within one block.
    ClusteredNode& n =
        GetOrCreateNode(VpbnOf(base_vpn, factor_), size.size_log2, MappingKind::kSuperpage);
    StoreWord(n, BoffOf(base_vpn, factor_) >> size.size_log2, word);
    return;
  }
  // Block-sized or larger: one compact node per covered page block.  Larger
  // superpages replicate once per clustered PTE — a factor of `s` fewer
  // replicas than conventional page tables need (Section 5).
  const unsigned blocks = size.pages() / factor_;
  const Vpbn first_block = VpbnOf(base_vpn, factor_);
  for (unsigned b = 0; b < blocks; ++b) {
    StoreWord(GetOrCreateNode(first_block + b, block_log2_, MappingKind::kSuperpage), 0, word);
  }
}

bool ClusteredPageTable::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  if (size.pages() < factor_) {
    const Vpbn tag = VpbnOf(base_vpn, factor_);
    std::int32_t* link = LinkOf(tag, size.size_log2, MappingKind::kSuperpage);
    if (link == nullptr) {
      return false;
    }
    ClusteredNode& n = NodeAt(link);
    const unsigned word_idx = BoffOf(base_vpn, factor_) >> size.size_log2;
    if (!n.words[word_idx].load().valid()) {
      return false;
    }
    StoreWord(n, word_idx, MappingWord::InvalidSuperpage(size));
    if (NodeEmpty(n)) {
      RemoveNode(link);
    }
    return true;
  }
  bool any = false;
  const unsigned blocks = size.pages() / factor_;
  const Vpbn first_block = VpbnOf(base_vpn, factor_);
  for (unsigned b = 0; b < blocks; ++b) {
    const Vpbn tag = first_block + b;
    if (std::int32_t* link = LinkOf(tag, block_log2_, MappingKind::kSuperpage)) {
      RemoveNode(link);
      any = true;
    }
  }
  return any;
}

void ClusteredPageTable::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                               Ppn block_base_ppn, Attr attr,
                                               std::uint16_t valid_vector) {
  CPT_DCHECK(subblock_factor == factor_ && factor_ <= MappingWord::kMaxPsbFactor);
  CPT_DCHECK(BoffOf(block_base_vpn, factor_) == 0 &&
             IsSuperpageAligned(block_base_ppn, PageSize{block_log2_}));
  ClusteredNode& n =
      GetOrCreateNode(VpbnOf(block_base_vpn, factor_), block_log2_, MappingKind::kPartialSubblock);
  StoreWord(n, 0, MappingWord::PartialSubblock(block_base_ppn, attr, valid_vector));
}

bool ClusteredPageTable::RemovePartialSubblock(Vpn block_base_vpn, unsigned /*subblock_factor*/) {
  const Vpbn tag = VpbnOf(block_base_vpn, factor_);
  std::int32_t* link = LinkOf(tag, block_log2_, MappingKind::kPartialSubblock);
  if (link == nullptr) {
    return false;
  }
  RemoveNode(link);
  return true;
}

std::optional<Attr> ClusteredPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                                        std::uint16_t clear_mask) {
  // Superpages larger than one block replicate one word per covered block;
  // the update must hit every replica or a later scan at a sibling block
  // would read stale bits.
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  const auto hit = FindCovering(BucketOf(vpbn), vpn,
                                [&](const ClusteredNode& n) { return Match(n, vpbn, boff); });
  if (!hit) {
    return std::nullopt;
  }
  const auto& [n, fill] = *hit;
  const Attr was = ApplyAttrUpdate(n.words[boff >> n.sub_log2], set_mask, clear_mask);
  if (fill.kind == MappingKind::kSuperpage && fill.pages_log2 > block_log2_) {
    const unsigned blocks = 1u << (fill.pages_log2 - block_log2_);
    const Vpbn first_block = VpbnOf(fill.base_vpn, factor_);
    for (unsigned b = 0; b < blocks; ++b) {
      const Vpbn tag = first_block + b;
      if (tag == vpbn) {
        continue;
      }
      if (std::int32_t* link = LinkOf(tag, block_log2_, MappingKind::kSuperpage)) {
        ApplyAttrUpdate(NodeAt(link).words[0], set_mask, clear_mask);
      }
    }
  }
  return was;
}

std::uint64_t ClusteredPageTable::ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
  if (npages == 0) {
    return 0;
  }
  // One hash search per page block, not per base page (Section 3.1).
  std::uint64_t searches = 0;
  const Vpn last_vpn = first_vpn + npages - 1;
  for (Vpbn tag = VpbnOf(first_vpn, factor_); tag <= VpbnOf(last_vpn, factor_); ++tag) {
    ++searches;
    for (ClusteredNode& n : Nodes(BucketOf(tag))) {
      if (n.tag != tag) {
        continue;
      }
      const unsigned words = WordsInNode(n.sub_log2);
      for (unsigned i = 0; i < words; ++i) {
        const MappingWord w = n.words[i].load();
        if (!w.valid()) {
          continue;
        }
        const Vpn word_first = FirstVpnOfBlock(tag, factor_) + (std::uint64_t{i} << n.sub_log2);
        const Vpn word_last = word_first + ((std::uint64_t{1} << n.sub_log2) - 1);
        if (word_last >= first_vpn && word_first <= last_vpn) {
          ProtectWord(n.words[i], attr);
        }
      }
    }
  }
  return searches;
}

bool ClusteredPageTable::BlockReadyForPromotion(Vpbn vpbn) const {
  const ClusteredNode* n = NodeOf(vpbn, 0, MappingKind::kBase);
  if (n == nullptr) {
    return false;
  }
  const MappingWord first_word = n->words[0].load();
  const Ppn first_ppn = first_word.ppn();
  if (!first_word.valid() || !IsSuperpageAligned(first_ppn, PageSize{block_log2_})) {
    return false;
  }
  for (unsigned i = 0; i < factor_; ++i) {
    const MappingWord w = n->words[i].load();
    if (!w.valid() || w.kind() != MappingKind::kBase || w.ppn() != first_ppn + i) {
      return false;
    }
  }
  return true;
}

std::string ClusteredPageTable::name() const {
  return "clustered-s" + std::to_string(factor_);
}

void ClusteredPageTable::AuditVisit(check::PtAuditVisitor& visitor) const {
  // Keyed by VPBN, one format per node.
  const check::PtTableView table{.name = name(),
                                 .tag_shift = block_log2_,
                                 .psb_factor = factor_,
                                 .uniform_kind = true,
                                 .check_nonempty = true};
  VisitChains(visitor, table, [this](const ClusteredNode& n, check::PtNodeView& view) {
    view.tag = n.tag.raw();  // PtNodeView tags are deliberately domain-erased chain keys.
    view.base_vpn = FirstVpnOfBlock(n.tag, factor_);
    view.sub_log2 = n.sub_log2;
    view.words = n.words.data();
    view.num_words = WordsInNode(n.sub_log2);
  });
}

Histogram ClusteredPageTable::BlockOccupancyHistogram() const {
  Histogram h;
  for (std::uint32_t b = 0; b < num_buckets(); ++b) {
    for (const ClusteredNode& n : Nodes(b)) {
      if (n.sub_log2 == 0 && n.words[0].load().kind() == MappingKind::kBase) {
        std::size_t occ = 0;
        for (unsigned i = 0; i < factor_; ++i) {
          occ += n.words[i].load().valid() ? 1 : 0;
        }
        h.Add(occ);
      }
    }
  }
  return h;
}

}  // namespace cpt::core
