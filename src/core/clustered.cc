#include "core/clustered.h"

#include <bit>

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::core {

using pt::TlbFill;

ClusteredPageTable::ClusteredPageTable(mem::CacheTouchModel& cache, Options opts)
    : PageTable(cache),
      opts_(opts),
      factor_(opts.subblock_factor),
      block_log2_(Log2(opts.subblock_factor)),
      hasher_(opts.num_buckets, opts.hash_kind),
      alloc_(cache.line_size(), opts.placement),
      buckets_(opts.num_buckets, kNil) {
  CPT_CHECK(IsPowerOfTwo(opts.num_buckets));
  CPT_CHECK(IsPowerOfTwo(factor_) && factor_ >= 2 && factor_ <= kMaxSubblockFactor);
  // Bucket heads are embedded base-size nodes: probing an empty bucket still
  // reads one line, as in the hashed table.
  bucket_stride_ = std::bit_ceil(16 + 8ull * factor_);
  bucket_base_ = alloc_.Allocate(std::uint64_t{opts_.num_buckets} * bucket_stride_);
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

std::uint64_t ClusteredPageTable::NodeTranslations(const Node& n) const {
  std::uint64_t total = 0;
  const unsigned words = WordsInNode(n);
  for (unsigned i = 0; i < words; ++i) {
    total += WordTranslations(n.words[i].load(), n.sub_log2);
  }
  return total;
}

void ClusteredPageTable::StoreWord(Node& n, unsigned word_idx, MappingWord w) {
  AtomicMappingWord& slot = n.words[word_idx];
  live_translations_ -= WordTranslations(slot.load(), n.sub_log2);
  live_translations_ += WordTranslations(w, n.sub_log2);
  slot.store(w);
}

bool ClusteredPageTable::NodeEmpty(const Node& n) const {
  const unsigned words = WordsInNode(n);
  for (unsigned i = 0; i < words; ++i) {
    if (n.words[i].load().valid()) {
      return false;
    }
  }
  return true;
}

std::int32_t* ClusteredPageTable::FindLink(Vpbn tag, unsigned sub_log2, MappingKind kind0) {
  std::int32_t* link = &buckets_[hasher_(tag)];
  while (*link != kNil) {
    Node& n = arena_[*link];
    if (n.tag == tag && n.sub_log2 == sub_log2 && n.words[0].load().kind() == kind0) {
      return link;
    }
    link = &n.next;
  }
  return nullptr;
}

const ClusteredPageTable::Node* ClusteredPageTable::FindNode(Vpbn tag, unsigned sub_log2,
                                                             MappingKind kind0) const {
  for (std::int32_t idx = buckets_[hasher_(tag)]; idx != kNil; idx = arena_[idx].next) {
    const Node& n = arena_[idx];
    if (n.tag == tag && n.sub_log2 == sub_log2 && n.words[0].load().kind() == kind0) {
      return &n;
    }
  }
  return nullptr;
}

ClusteredPageTable::Node& ClusteredPageTable::GetOrCreateNode(Vpbn tag, unsigned sub_log2,
                                                              MappingKind kind0) {
  if (std::int32_t* link = FindLink(tag, sub_log2, kind0)) {
    return arena_[*link];
  }
  std::int32_t idx;
  if (!free_nodes_.empty()) {
    idx = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    // Fault path only: a node is created when a key is first inserted.
    // PageTable::UpdateAttrFlags's rewrite replaces an existing node and
    // never allocates.
    arena_.push_back(Node{});
    idx = static_cast<std::int32_t>(arena_.size() - 1);
  }
  const std::uint32_t b = hasher_(tag);
  Node& n = arena_[idx];
  n.tag = tag;
  n.sub_log2 = static_cast<std::uint8_t>(sub_log2);
  n.next = buckets_[b];
  // Empty slots stay self-describing: sub-size superpage nodes carry the SZ
  // field even in invalid words; PSB nodes carry a zero valid vector.
  const unsigned words = factor_ >> sub_log2;
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
  n.addr = alloc_.Allocate(NodeBytes(n));
  buckets_[b] = idx;
  ++live_nodes_;
  paper_bytes_ += NodeBytes(n);
  return n;
}

void ClusteredPageTable::UnlinkAndFree(std::int32_t* link) {
  const std::int32_t idx = *link;
  Node& n = arena_[idx];
  paper_bytes_ -= NodeBytes(n);
  alloc_.Free(n.addr, NodeBytes(n));
  *link = n.next;
  n = Node{};
  free_nodes_.push_back(idx);
  --live_nodes_;
}

TlbFill ClusteredPageTable::FillFromNode(const Node& n, unsigned word_idx) const {
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

std::optional<TlbFill> ClusteredPageTable::Lookup(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  const std::uint32_t b = hasher_(vpbn);
  // The bucket head is an embedded node: one line even when empty.
  cache_.Touch(BucketAddr(b), 16);
  bool head = true;
  std::uint32_t chain_pos = 0;
  obs::WalkTracer* const tracer = cache_.tracer();
  for (std::int32_t idx = buckets_[b]; idx != kNil; idx = arena_[idx].next) {
    const Node& n = arena_[idx];
    const PhysAddr addr = head ? BucketAddr(b) : n.addr;
    head = false;
    // Chain traversal is identical to a hashed table: read tag and next.
    cache_.Touch(addr, 16);
    if (tracer != nullptr) {
      tracer->Record({.kind = obs::EventKind::kWalkStep,
                      .vpn = vpn,
                      .step = ++chain_pos,
                      .lines = static_cast<std::uint32_t>(cache_.LinesThisWalk())});
    }
    if (n.tag != vpbn) {
      continue;
    }
    // Tag matched: read mapping[0] to consult the S field (Figure 8), then
    // the block-offset-selected word.
    cache_.Touch(addr + 16, 8);
    const unsigned word_idx = boff >> n.sub_log2;
    if (word_idx != 0) {
      cache_.Touch(addr + 16 + word_idx * 8ull, 8);
    }
    TlbFill fill = FillFromNode(n, word_idx);
    if (fill.Covers(vpn)) {
      if (tracer != nullptr) {
        tracer->Record({.kind = obs::EventKind::kWalkHit,
                        .vpn = vpn,
                        .step = chain_pos,
                        .value = pt::WalkHitValue(fill)});
      }
      return fill;
    }
    // Valid-mapping check failed (invalid slot or subblock bit): continue
    // searching the chain — another node may map this page (Section 5).
  }
  return std::nullopt;
}

void ClusteredPageTable::LookupBlock(VirtAddr va, unsigned subblock_factor,
                                     std::vector<TlbFill>& out) {
  CPT_DCHECK(subblock_factor == factor_);
  const Vpn vpn = VpnOf(va);
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const std::uint32_t b = hasher_(vpbn);
  cache_.Touch(BucketAddr(b), 16);
  bool head = true;
  for (std::int32_t idx = buckets_[b]; idx != kNil; idx = arena_[idx].next) {
    const Node& n = arena_[idx];
    const PhysAddr addr = head ? BucketAddr(b) : n.addr;
    head = false;
    cache_.Touch(addr, 16);
    if (n.tag != vpbn) {
      continue;
    }
    // All of the block's mappings are adjacent in this node; a clustered PTE
    // mirrors a complete-subblock TLB entry (Section 4.4).
    const unsigned words = WordsInNode(n);
    cache_.Touch(addr + 16, 8ull * words);
    for (unsigned i = 0; i < words; ++i) {
      if (n.words[i].load().valid()) {
        out.push_back(FillFromNode(n, i));
      }
    }
  }
}

void ClusteredPageTable::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  Node& n = GetOrCreateNode(VpbnOf(vpn, factor_), 0, MappingKind::kBase);
  StoreWord(n, BoffOf(vpn, factor_), MappingWord::Base(ppn, attr));
}

bool ClusteredPageTable::RemoveBase(Vpn vpn) {
  std::int32_t* link = FindLink(VpbnOf(vpn, factor_), 0, MappingKind::kBase);
  if (link == nullptr) {
    return false;
  }
  Node& n = arena_[*link];
  const unsigned word_idx = BoffOf(vpn, factor_);
  if (!n.words[word_idx].load().valid()) {
    return false;
  }
  StoreWord(n, word_idx, MappingWord::Invalid());
  if (NodeEmpty(n)) {
    UnlinkAndFree(link);
  }
  return true;
}

void ClusteredPageTable::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
  const MappingWord word = MappingWord::Superpage(base_ppn, attr, size);
  if (size.pages() < factor_) {
    // A sub-size node: slots of 2^SZ pages each within one block.
    Node& n = GetOrCreateNode(VpbnOf(base_vpn, factor_), size.size_log2, MappingKind::kSuperpage);
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
    std::int32_t* link =
        FindLink(VpbnOf(base_vpn, factor_), size.size_log2, MappingKind::kSuperpage);
    if (link == nullptr) {
      return false;
    }
    Node& n = arena_[*link];
    const unsigned word_idx = BoffOf(base_vpn, factor_) >> size.size_log2;
    if (!n.words[word_idx].load().valid()) {
      return false;
    }
    StoreWord(n, word_idx, MappingWord::InvalidSuperpage(size));
    if (NodeEmpty(n)) {
      UnlinkAndFree(link);
    }
    return true;
  }
  bool any = false;
  const unsigned blocks = size.pages() / factor_;
  const Vpbn first_block = VpbnOf(base_vpn, factor_);
  for (unsigned b = 0; b < blocks; ++b) {
    if (std::int32_t* link = FindLink(first_block + b, block_log2_, MappingKind::kSuperpage)) {
      live_translations_ -= NodeTranslations(arena_[*link]);
      UnlinkAndFree(link);
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
  Node& n =
      GetOrCreateNode(VpbnOf(block_base_vpn, factor_), block_log2_, MappingKind::kPartialSubblock);
  StoreWord(n, 0, MappingWord::PartialSubblock(block_base_ppn, attr, valid_vector));
}

bool ClusteredPageTable::RemovePartialSubblock(Vpn block_base_vpn, unsigned /*subblock_factor*/) {
  std::int32_t* link =
      FindLink(VpbnOf(block_base_vpn, factor_), block_log2_, MappingKind::kPartialSubblock);
  if (link == nullptr) {
    return false;
  }
  live_translations_ -= NodeTranslations(arena_[*link]);
  UnlinkAndFree(link);
  return true;
}

bool ClusteredPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                         std::uint16_t clear_mask) {
  // Uncounted structural update: R/M-bit maintenance rides on the walk the
  // miss already paid for (Section 3.1), so it models no memory traffic.
  // Superpages larger than one block replicate one word per covered block;
  // the update must hit every replica or a later scan at a sibling block
  // would read stale bits.
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  for (std::int32_t idx = buckets_[hasher_(vpbn)]; idx != kNil; idx = arena_[idx].next) {
    Node& n = arena_[idx];
    if (n.tag != vpbn) {
      continue;
    }
    const unsigned word_idx = boff >> n.sub_log2;
    const TlbFill fill = FillFromNode(n, word_idx);
    if (!fill.Covers(vpn)) {
      continue;
    }
    ApplyAttrUpdate(n.words[word_idx], set_mask, clear_mask);
    if (fill.kind == MappingKind::kSuperpage && fill.pages_log2 > block_log2_) {
      const unsigned blocks = 1u << (fill.pages_log2 - block_log2_);
      const Vpbn first_block = VpbnOf(fill.base_vpn, factor_);
      for (unsigned b = 0; b < blocks; ++b) {
        if (first_block + b == vpbn) {
          continue;
        }
        if (std::int32_t* link = FindLink(first_block + b, block_log2_, MappingKind::kSuperpage)) {
          ApplyAttrUpdate(arena_[*link].words[0], set_mask, clear_mask);
        }
      }
    }
    return true;
  }
  return false;
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
    for (std::int32_t idx = buckets_[hasher_(tag)]; idx != kNil; idx = arena_[idx].next) {
      Node& n = arena_[idx];
      if (n.tag != tag) {
        continue;
      }
      const unsigned words = WordsInNode(n);
      for (unsigned i = 0; i < words; ++i) {
        const MappingWord w = n.words[i].load();
        if (!w.valid()) {
          continue;
        }
        const Vpn word_first = FirstVpnOfBlock(tag, factor_) + (std::uint64_t{i} << n.sub_log2);
        const Vpn word_last = word_first + ((std::uint64_t{1} << n.sub_log2) - 1);
        if (word_last >= first_vpn && word_first <= last_vpn) {
          n.words[i].store(w.with_attr(attr));
        }
      }
    }
  }
  return searches;
}

bool ClusteredPageTable::BlockReadyForPromotion(Vpbn vpbn) const {
  const Node* n = FindNode(vpbn, 0, MappingKind::kBase);
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

std::optional<MappingWord> ClusteredPageTable::PeekBase(Vpn vpn) const {
  const Node* n = FindNode(VpbnOf(vpn, factor_), 0, MappingKind::kBase);
  if (n == nullptr) {
    return std::nullopt;
  }
  const MappingWord w = n->words[BoffOf(vpn, factor_)].load();
  return w.valid() ? std::optional<MappingWord>(w) : std::nullopt;
}

std::uint64_t ClusteredPageTable::SizeBytesPaperModel() const { return paper_bytes_; }

std::uint64_t ClusteredPageTable::SizeBytesActual() const {
  // bytes_live already includes the embedded-head bucket array.
  return alloc_.bytes_live();
}

std::uint64_t ClusteredPageTable::live_translations() const { return live_translations_; }

std::string ClusteredPageTable::name() const {
  return "clustered-s" + std::to_string(factor_);
}

void ClusteredPageTable::AuditVisit(check::PtAuditVisitor& visitor) const {
  const std::uint64_t step_limit = live_nodes_ + 1;
  for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
    std::uint64_t steps = 0;
    for (std::int32_t idx = buckets_[b]; idx != kNil; idx = arena_[idx].next) {
      if (++steps > step_limit || idx < 0 ||
          static_cast<std::size_t>(idx) >= arena_.size()) {
        visitor.OnChainCycle(b);
        break;
      }
      const Node& n = arena_[idx];
      check::PtNodeView view;
      view.bucket = b;
      view.tag = n.tag.raw();  // PtNodeView tags are deliberately domain-erased chain keys.
      view.base_vpn = FirstVpnOfBlock(n.tag, factor_);
      view.sub_log2 = n.sub_log2;
      view.words = n.words.data();
      view.num_words = WordsInNode(n);
      view.index = idx;
      view.addr = n.addr;
      visitor.OnNode(view);
    }
  }
}

Histogram ClusteredPageTable::ChainLengthHistogram() const {
  Histogram h;
  for (const std::int32_t head : buckets_) {
    std::size_t len = 0;
    for (std::int32_t idx = head; idx != kNil; idx = arena_[idx].next) {
      ++len;
    }
    h.Add(len);
  }
  return h;
}

Histogram ClusteredPageTable::BlockOccupancyHistogram() const {
  Histogram h;
  for (std::uint32_t b = 0; b < buckets_.size(); ++b) {
    for (std::int32_t idx = buckets_[b]; idx != kNil; idx = arena_[idx].next) {
      const Node& n = arena_[idx];
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
