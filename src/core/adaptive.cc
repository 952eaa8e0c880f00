#include "core/adaptive.h"

#include <bit>

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::core {

using pt::TlbFill;

AdaptiveClusteredPageTable::AdaptiveClusteredPageTable(mem::CacheTouchModel& cache, Options opts)
    : PageTable(cache),
      opts_(opts),
      factor_(opts.subblock_factor),
      block_log2_(Log2(opts.subblock_factor)),
      hasher_(opts.num_buckets, opts.hash_kind),
      alloc_(cache.line_size(), opts.placement),
      buckets_(opts.num_buckets, kNil) {
  CPT_CHECK(IsPowerOfTwo(opts.num_buckets));
  CPT_CHECK(IsPowerOfTwo(factor_) && factor_ >= 2 && factor_ <= kMaxFactor);
  CPT_CHECK(opts.demote_occupancy < opts.promote_occupancy);
  bucket_stride_ = std::bit_ceil(std::uint64_t{24});
  bucket_base_ = alloc_.Allocate(std::uint64_t{opts_.num_buckets} * bucket_stride_);
  // Hot-path hygiene: UnlinkNode recycles through this free list during
  // reclustering, so give it slack up front (common/hotpath.h discipline).
  free_nodes_.reserve(64);
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

std::uint64_t AdaptiveClusteredPageTable::NodeTranslations(const Node& n) const {
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

std::int32_t AdaptiveClusteredPageTable::AllocNode(Vpbn tag, NodeKind kind, unsigned nwords) {
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
  n.kind = kind;
  n.boff = 0;
  n.words.assign(nwords, AtomicMappingWord{MappingWord::Invalid()});
  n.next = buckets_[b];
  buckets_[b] = idx;
  n.addr = alloc_.Allocate(NodeBytes(n));
  ++live_nodes_;
  paper_bytes_ += NodeBytes(n);
  return idx;
}

std::int32_t* AdaptiveClusteredPageTable::LinkOf(std::int32_t idx) {
  const std::uint32_t b = hasher_(arena_[idx].tag);
  std::int32_t* link = &buckets_[b];
  while (*link != idx) {
    CPT_DCHECK(*link != kNil);
    link = &arena_[*link].next;
  }
  return link;
}

void AdaptiveClusteredPageTable::UnlinkNode(std::int32_t idx) {
  Node& n = arena_[idx];
  paper_bytes_ -= NodeBytes(n);
  alloc_.Free(n.addr, NodeBytes(n));
  *LinkOf(idx) = n.next;
  n = Node{};
  free_nodes_.push_back(idx);
  --live_nodes_;
}

TlbFill AdaptiveClusteredPageTable::FillFromWord(const Node& n, unsigned boff) const {
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

std::optional<TlbFill> AdaptiveClusteredPageTable::Lookup(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  const std::uint32_t b = hasher_(vpbn);
  cache_.Touch(BucketAddr(b), 16);
  bool head = true;
  std::uint32_t chain_pos = 0;
  obs::WalkTracer* const tracer = cache_.tracer();
  for (std::int32_t idx = buckets_[b]; idx != kNil; idx = arena_[idx].next) {
    const Node& n = arena_[idx];
    const PhysAddr addr = head ? BucketAddr(b) : n.addr;
    head = false;
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
    // Read word 0 (the S/format check), then the selected word for arrays.
    cache_.Touch(addr + 16, 8);
    if (n.kind == NodeKind::kArray && boff != 0) {
      cache_.Touch(addr + 16 + boff * 8ull, 8);
    }
    if (n.kind == NodeKind::kSingle && n.boff != boff) {
      continue;
    }
    TlbFill fill = FillFromWord(n, boff);
    if (fill.Covers(vpn)) {
      if (tracer != nullptr) {
        tracer->Record({.kind = obs::EventKind::kWalkHit,
                        .vpn = vpn,
                        .step = chain_pos,
                        .value = pt::WalkHitValue(fill)});
      }
      return fill;
    }
  }
  return std::nullopt;
}

void AdaptiveClusteredPageTable::LookupBlock(VirtAddr va, unsigned subblock_factor,
                                             std::vector<TlbFill>& out) {
  CPT_DCHECK(subblock_factor == factor_);
  const Vpbn vpbn = VpbnOf(VpnOf(va), factor_);
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
  for (std::int32_t idx = buckets_[hasher_(tag)]; idx != kNil; idx = arena_[idx].next) {
    const Node& n = arena_[idx];
    if (n.tag != tag) {
      continue;
    }
    if (n.kind == NodeKind::kSingle) {
      occupancy += n.words[0].load().valid() ? 1 : 0;
    } else if (n.kind == NodeKind::kArray) {
      for (const AtomicMappingWord& cell : n.words) {
        occupancy += cell.load().valid() ? 1 : 0;
      }
    }
  }
  return occupancy;
}

void AdaptiveClusteredPageTable::PromoteToArray(Vpbn tag) {
  // Gather the singles, free them, and build one array node.
  MappingWord words[kMaxFactor];
  for (unsigned i = 0; i < factor_; ++i) {
    words[i] = MappingWord::Invalid();
  }
  const std::uint32_t b = hasher_(tag);
  std::int32_t idx = buckets_[b];
  while (idx != kNil) {
    const std::int32_t next = arena_[idx].next;
    Node& n = arena_[idx];
    if (n.tag == tag && n.kind == NodeKind::kSingle) {
      words[n.boff] = n.words[0].load();
      live_translations_ -= NodeTranslations(n);
      UnlinkNode(idx);
    }
    idx = next;
  }
  const std::int32_t array_idx = AllocNode(tag, NodeKind::kArray, factor_);
  Node& array = arena_[array_idx];
  for (unsigned i = 0; i < factor_; ++i) {
    array.words[i].store(words[i]);
  }
  live_translations_ += NodeTranslations(array);
  ++promotions_;
}

void AdaptiveClusteredPageTable::DemoteToSingles(Vpbn tag) {
  std::int32_t array_idx = kNil;
  for (std::int32_t idx = buckets_[hasher_(tag)]; idx != kNil; idx = arena_[idx].next) {
    if (arena_[idx].tag == tag && arena_[idx].kind == NodeKind::kArray) {
      array_idx = idx;
      break;
    }
  }
  if (array_idx == kNil) {
    return;
  }
  MappingWord words[kMaxFactor];
  for (unsigned i = 0; i < factor_; ++i) {
    words[i] = arena_[array_idx].words[i].load();
  }
  live_translations_ -= NodeTranslations(arena_[array_idx]);
  UnlinkNode(array_idx);
  for (unsigned i = 0; i < factor_; ++i) {
    if (words[i].valid()) {
      const std::int32_t idx = AllocNode(tag, NodeKind::kSingle, 1);
      arena_[idx].boff = static_cast<std::uint8_t>(i);
      arena_[idx].words[0].store(words[i]);
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
  for (std::int32_t idx = buckets_[hasher_(tag)]; idx != kNil; idx = arena_[idx].next) {
    Node& n = arena_[idx];
    if (n.tag != tag) {
      continue;
    }
    if (n.kind == NodeKind::kArray) {
      StoreWord(n.words[boff], word);
      return;
    }
    if (n.kind == NodeKind::kSingle && n.boff == boff) {
      StoreWord(n.words[0], word);
      return;
    }
  }
  // New single-page node; promote the block if it crossed the threshold.
  const std::int32_t idx = AllocNode(tag, NodeKind::kSingle, 1);
  arena_[idx].boff = static_cast<std::uint8_t>(boff);
  StoreWord(arena_[idx].words[0], word);
  if (BlockBaseOccupancy(tag) >= opts_.promote_occupancy) {
    PromoteToArray(tag);
  }
}

bool AdaptiveClusteredPageTable::RemoveBase(Vpn vpn) {
  const Vpbn tag = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  for (std::int32_t idx = buckets_[hasher_(tag)]; idx != kNil; idx = arena_[idx].next) {
    Node& n = arena_[idx];
    if (n.tag != tag) {
      continue;
    }
    if (n.kind == NodeKind::kSingle && n.boff == boff && n.words[0].load().valid()) {
      --live_translations_;
      UnlinkNode(idx);
      return true;
    }
    if (n.kind == NodeKind::kArray && n.words[boff].load().valid()) {
      StoreWord(n.words[boff], MappingWord::Invalid());
      const unsigned occupancy = BlockBaseOccupancy(tag);
      if (occupancy == 0) {
        UnlinkNode(idx);
      } else if (occupancy <= opts_.demote_occupancy) {
        DemoteToSingles(tag);
      }
      return true;
    }
  }
  return false;
}

void AdaptiveClusteredPageTable::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn,
                                                 Attr attr) {
  CPT_DCHECK(size.pages() >= factor_, "sub-block superpages use the fixed-factor table");
  CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
  const MappingWord word = MappingWord::Superpage(base_ppn, attr, size);
  const unsigned blocks = size.pages() / factor_;
  const Vpbn first = VpbnOf(base_vpn, factor_);
  for (unsigned blk = 0; blk < blocks; ++blk) {
    bool found = false;
    for (std::int32_t idx = buckets_[hasher_(first + blk)]; idx != kNil;
         idx = arena_[idx].next) {
      Node& n = arena_[idx];
      if (n.tag == first + blk && n.kind == NodeKind::kSuperpage) {
        StoreWord(n.words[0], word);
        found = true;
        break;
      }
    }
    if (!found) {
      const std::int32_t idx = AllocNode(first + blk, NodeKind::kSuperpage, 1);
      StoreWord(arena_[idx].words[0], word);
    }
  }
}

bool AdaptiveClusteredPageTable::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  bool any = false;
  const unsigned blocks = size.pages() >= factor_ ? size.pages() / factor_ : 1;
  const Vpbn first = VpbnOf(base_vpn, factor_);
  for (unsigned blk = 0; blk < blocks; ++blk) {
    for (std::int32_t idx = buckets_[hasher_(first + blk)]; idx != kNil;
         idx = arena_[idx].next) {
      Node& n = arena_[idx];
      if (n.tag == first + blk && n.kind == NodeKind::kSuperpage) {
        live_translations_ -= NodeTranslations(n);
        UnlinkNode(idx);
        any = true;
        break;
      }
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
  for (std::int32_t idx = buckets_[hasher_(tag)]; idx != kNil; idx = arena_[idx].next) {
    Node& n = arena_[idx];
    if (n.tag == tag && n.kind == NodeKind::kPsb) {
      StoreWord(n.words[0], word);
      return;
    }
  }
  const std::int32_t idx = AllocNode(tag, NodeKind::kPsb, 1);
  StoreWord(arena_[idx].words[0], word);
}

bool AdaptiveClusteredPageTable::RemovePartialSubblock(Vpn block_base_vpn,
                                                       unsigned /*subblock_factor*/) {
  const Vpbn tag = VpbnOf(block_base_vpn, factor_);
  for (std::int32_t idx = buckets_[hasher_(tag)]; idx != kNil; idx = arena_[idx].next) {
    Node& n = arena_[idx];
    if (n.tag == tag && n.kind == NodeKind::kPsb) {
      live_translations_ -= NodeTranslations(n);
      UnlinkNode(idx);
      return true;
    }
  }
  return false;
}

bool AdaptiveClusteredPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                                 std::uint16_t clear_mask) {
  // Uncounted structural update: R/M-bit maintenance rides on the walk the
  // miss already paid for (Section 3.1), so it models no memory traffic.
  // Multi-block superpages replicate one compact node per covered block; the
  // update must hit every replica or a later scan at a sibling block would
  // read stale bits.
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  const unsigned boff = BoffOf(vpn, factor_);
  for (std::int32_t idx = buckets_[hasher_(vpbn)]; idx != kNil; idx = arena_[idx].next) {
    Node& n = arena_[idx];
    if (n.tag != vpbn) {
      continue;
    }
    if (n.kind == NodeKind::kSingle && n.boff != boff) {
      continue;
    }
    const TlbFill fill = FillFromWord(n, boff);
    if (!fill.Covers(vpn)) {
      continue;
    }
    const unsigned word_idx = n.kind == NodeKind::kArray ? boff : 0;
    ApplyAttrUpdate(n.words[word_idx], set_mask, clear_mask);
    if (n.kind == NodeKind::kSuperpage && fill.pages_log2 > block_log2_) {
      const unsigned blocks = 1u << (fill.pages_log2 - block_log2_);
      const Vpbn first_block = VpbnOf(fill.base_vpn, factor_);
      for (unsigned blk = 0; blk < blocks; ++blk) {
        if (first_block + blk == vpbn) {
          continue;
        }
        for (std::int32_t sidx = buckets_[hasher_(first_block + blk)]; sidx != kNil;
             sidx = arena_[sidx].next) {
          Node& sibling = arena_[sidx];
          if (sibling.tag == first_block + blk && sibling.kind == NodeKind::kSuperpage) {
            ApplyAttrUpdate(sibling.words[0], set_mask, clear_mask);
            break;
          }
        }
      }
    }
    return true;
  }
  return false;
}

std::uint64_t AdaptiveClusteredPageTable::ProtectRange(Vpn first_vpn, std::uint64_t npages,
                                                       Attr attr) {
  if (npages == 0) {
    return 0;
  }
  std::uint64_t searches = 0;
  const Vpn last_vpn = first_vpn + npages - 1;
  for (Vpbn tag = VpbnOf(first_vpn, factor_); tag <= VpbnOf(last_vpn, factor_); ++tag) {
    ++searches;
    for (std::int32_t idx = buckets_[hasher_(tag)]; idx != kNil; idx = arena_[idx].next) {
      Node& n = arena_[idx];
      if (n.tag != tag) {
        continue;
      }
      for (std::size_t i = 0; i < n.words.size(); ++i) {
        const MappingWord w = n.words[i].load();
        if (w.valid()) {
          n.words[i].store(w.with_attr(attr));
        }
      }
    }
  }
  return searches;
}

std::uint64_t AdaptiveClusteredPageTable::SizeBytesActual() const { return alloc_.bytes_live(); }

std::string AdaptiveClusteredPageTable::name() const {
  return "clustered-adaptive-s" + std::to_string(factor_);
}

void AdaptiveClusteredPageTable::AuditVisit(check::PtAuditVisitor& visitor) const {
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
      view.index = idx;
      view.addr = n.addr;
      view.words = n.words.data();
      view.num_words = static_cast<unsigned>(n.words.size());
      switch (n.kind) {
        case NodeKind::kSingle:
          view.base_vpn = FirstVpnOfBlock(n.tag, factor_) + n.boff;
          view.sub_log2 = 0;
          break;
        case NodeKind::kArray:
          view.base_vpn = FirstVpnOfBlock(n.tag, factor_);
          view.sub_log2 = 0;
          break;
        case NodeKind::kSuperpage:
        case NodeKind::kPsb:
          // One compact word covering the whole block.
          view.base_vpn = FirstVpnOfBlock(n.tag, factor_);
          view.sub_log2 = block_log2_;
          break;
      }
      visitor.OnNode(view);
    }
  }
}

Histogram AdaptiveClusteredPageTable::ChainLengthHistogram() const {
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

}  // namespace cpt::core
