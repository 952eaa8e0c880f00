#include "pt/forward.h"

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::pt {

ForwardMappedPageTable::ForwardMappedPageTable(mem::CacheTouchModel& cache, Options opts)
    : PageTable(cache), opts_(opts), alloc_(cache.line_size(), opts.placement) {}

ForwardMappedPageTable::~ForwardMappedPageTable() = default;

TlbFill ForwardMappedPageTable::FillFromWord(Vpn vpn, MappingWord word) const {
  TlbFill fill;
  fill.kind = word.kind();
  fill.word = word;
  switch (word.kind()) {
    case MappingKind::kBase:
      fill.base_vpn = vpn;
      fill.pages_log2 = 0;
      break;
    case MappingKind::kSuperpage:
      fill.pages_log2 = word.page_size().size_log2;
      fill.base_vpn = SuperpageBaseVpn(vpn, word.page_size());
      break;
    case MappingKind::kPartialSubblock:
      fill.pages_log2 = kReplicatedPsbPagesLog2;
      fill.base_vpn = SuperpageBaseVpn(vpn, PageSize{kReplicatedPsbPagesLog2});
      break;
  }
  return fill;
}

void ForwardMappedPageTable::AddPath(Vpn vpn) {
  // Ensure every intermediate node along the path exists, bumping child
  // counts bottom-up.  A node's count is the number of its active children.
  bool child_was_new = true;
  for (unsigned level = 2; level <= kNumLevels && child_was_new; ++level) {
    auto [it, inserted] = inner_[level].try_emplace(PrefixAt(vpn, level));
    if (inserted) {
      it->second.addr = alloc_.Allocate(NodeBytesOfLevel(level));
    }
    ++it->second.children;
    child_was_new = inserted;
  }
}

void ForwardMappedPageTable::RemovePath(Vpn vpn) {
  bool child_died = true;
  for (unsigned level = 2; level <= kNumLevels && child_died; ++level) {
    auto it = inner_[level].find(PrefixAt(vpn, level));
    CPT_DCHECK(it != inner_[level].end() && it->second.children > 0);
    child_died = --it->second.children == 0 && it->second.super_slots.empty();
    if (child_died) {
      alloc_.Free(it->second.addr, NodeBytesOfLevel(level));
      inner_[level].erase(it);
    }
  }
}

void ForwardMappedPageTable::AddIntermediateSuper(Vpn vpn, unsigned level, MappingWord word) {
  auto [it, inserted] = inner_[level].try_emplace(PrefixAt(vpn, level));
  if (inserted) {
    it->second.addr = alloc_.Allocate(NodeBytesOfLevel(level));
  }
  bool child_was_new = inserted;
  for (unsigned l = level + 1; l <= kNumLevels && child_was_new; ++l) {
    auto [pit, pinserted] = inner_[l].try_emplace(PrefixAt(vpn, l));
    if (pinserted) {
      pit->second.addr = alloc_.Allocate(NodeBytesOfLevel(l));
    }
    ++pit->second.children;
    child_was_new = pinserted;
  }
  const unsigned idx = IndexAt(vpn, level);
  auto& slots = it->second.super_slots;
  auto [slot_it, slot_inserted] = slots.try_emplace(idx, AtomicMappingWord{word});
  if (slot_inserted) {
    live_translations_ += word.page_size().pages();
  } else {
    slot_it->second.store(word);
  }
}

void ForwardMappedPageTable::MaybeFreeInner(Vpn vpn, unsigned level) {
  auto it = inner_[level].find(PrefixAt(vpn, level));
  if (it == inner_[level].end() || it->second.children != 0 || !it->second.super_slots.empty()) {
    return;
  }
  alloc_.Free(it->second.addr, NodeBytesOfLevel(level));
  inner_[level].erase(it);
  bool child_died = true;
  for (unsigned l = level + 1; l <= kNumLevels && child_died; ++l) {
    auto pit = inner_[l].find(PrefixAt(vpn, l));
    CPT_DCHECK(pit != inner_[l].end() && pit->second.children > 0);
    child_died = --pit->second.children == 0 && pit->second.super_slots.empty();
    if (child_died) {
      alloc_.Free(pit->second.addr, NodeBytesOfLevel(l));
      inner_[l].erase(pit);
    }
  }
}

ForwardMappedPageTable::Leaf& ForwardMappedPageTable::LeafFor(Vpn vpn) {
  const std::uint64_t prefix = PrefixAt(vpn, 1);
  if (memo_leaf_ != nullptr && memo_prefix_ == prefix) {
    return *memo_leaf_;
  }
  auto [it, inserted] = leaves_.try_emplace(prefix);
  if (inserted) {
    it->second.addr = alloc_.Allocate(NodeBytesOfLevel(1));
    AddPath(vpn);
  }
  memo_prefix_ = prefix;
  memo_leaf_ = &it->second;
  return it->second;
}

ForwardMappedPageTable::Leaf* ForwardMappedPageTable::FindLeaf(Vpn vpn) {
  const std::uint64_t prefix = PrefixAt(vpn, 1);
  if (memo_leaf_ != nullptr && memo_prefix_ == prefix) {
    return memo_leaf_;
  }
  auto it = leaves_.find(prefix);
  return it == leaves_.end() ? nullptr : &it->second;
}

void ForwardMappedPageTable::FreeLeaf(Vpn vpn, Leaf& leaf) {
  alloc_.Free(leaf.addr, NodeBytesOfLevel(1));
  memo_leaf_ = nullptr;
  leaves_.erase(PrefixAt(vpn, 1));
  RemovePath(vpn);
}

void ForwardMappedPageTable::SetSlot(Vpn vpn, MappingWord word) {
  Leaf& leaf = LeafFor(vpn);
  AtomicMappingWord& slot = leaf.slots[IndexAt(vpn, 1)];
  const MappingWord old = slot.load();
  const bool was_occupied = old != MappingWord::Invalid();
  const bool now_occupied = word != MappingWord::Invalid();
  leaf.live += static_cast<unsigned>(now_occupied) - static_cast<unsigned>(was_occupied);
  live_translations_ += static_cast<std::uint64_t>(TranslatesSite(word, vpn)) -
                        static_cast<std::uint64_t>(TranslatesSite(old, vpn));
  slot.store(word);
}

MappingWord ForwardMappedPageTable::ClearSlot(Vpn vpn) {
  Leaf* leaf = FindLeaf(vpn);
  if (leaf == nullptr) {
    return MappingWord::Invalid();
  }
  AtomicMappingWord& slot = leaf->slots[IndexAt(vpn, 1)];
  const MappingWord old = slot.load();
  if (old != MappingWord::Invalid()) {
    live_translations_ -= static_cast<std::uint64_t>(TranslatesSite(old, vpn));
    slot.store(MappingWord::Invalid());
    if (--leaf->live == 0) {
      FreeLeaf(vpn, *leaf);
    }
  }
  return old;
}

bool ForwardMappedPageTable::WriteReplicas(Vpn first, std::uint64_t npages, MappingWord word,
                                           ReplicaSites sites) {
  return WriteReplicaRuns<kLeafEntries>(
      first, npages, word, sites, live_translations_,
      [&](Vpn vpn) { return word != MappingWord::Invalid() ? &LeafFor(vpn) : FindLeaf(vpn); },
      [&](Vpn vpn, Leaf& leaf) { FreeLeaf(vpn, leaf); });
}

std::optional<TlbFill> ForwardMappedPageTable::Lookup(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  obs::WalkTracer* const tracer = cache_.tracer();
  // Top-down walk: one PTP read per intermediate level, then the leaf PTE.
  // Walk-step events use tree depth as the chain position (root = step 1).
  for (unsigned level = kNumLevels; level >= 2; --level) {
    auto it = inner_[level].find(PrefixAt(vpn, level));
    if (it == inner_[level].end()) {
      return std::nullopt;
    }
    const unsigned idx = IndexAt(vpn, level);
    cache_.Touch(it->second.addr + idx * 8, 8);
    if (tracer != nullptr) {
      tracer->Record({.kind = obs::EventKind::kWalkStep,
                      .vpn = vpn,
                      .step = kNumLevels - level + 1,
                      .lines = static_cast<std::uint32_t>(cache_.LinesThisWalk())});
    }
    if (opts_.intermediate_superpages) {
      auto slot_it = it->second.super_slots.find(idx);
      if (slot_it != it->second.super_slots.end()) {
        TlbFill fill = FillFromWord(vpn, slot_it->second.load());
        if (fill.Covers(vpn)) {
          if (tracer != nullptr) {
            tracer->Record({.kind = obs::EventKind::kWalkHit,
                            .vpn = vpn,
                            .step = kNumLevels - level + 1,
                            .value = WalkHitValue(fill)});
          }
          return fill;  // Short-circuit: the PTP slot held a superpage PTE.
        }
        return std::nullopt;
      }
    }
  }
  Leaf* leaf = FindLeaf(vpn);
  if (leaf == nullptr) {
    return std::nullopt;
  }
  cache_.Touch(leaf->addr + IndexAt(vpn, 1) * 8, 8);
  const MappingWord word = leaf->slots[IndexAt(vpn, 1)].load();
  if (word == MappingWord::Invalid()) {
    return std::nullopt;
  }
  TlbFill fill = FillFromWord(vpn, word);
  if (!fill.Covers(vpn)) {
    return std::nullopt;
  }
  if (tracer != nullptr) {
    // The leaf PTE read is the final level of the tree walk.
    tracer->Record({.kind = obs::EventKind::kWalkHit,
                    .vpn = vpn,
                    .step = kNumLevels,
                    .value = WalkHitValue(fill)});
  }
  return fill;
}

void ForwardMappedPageTable::LookupBlock(VirtAddr va, unsigned subblock_factor,
                                         std::vector<TlbFill>& out) {
  // One tree descent, then the block's PTEs are adjacent in the leaf node.
  const Vpn vpn = VpnOf(va);
  const Vpn first = FirstVpnOfBlock(VpbnOf(vpn, subblock_factor), subblock_factor);
  for (unsigned level = kNumLevels; level >= 2; --level) {
    auto it = inner_[level].find(PrefixAt(first, level));
    if (it == inner_[level].end()) {
      return;
    }
    cache_.Touch(it->second.addr + IndexAt(first, level) * 8, 8);
  }
  Leaf* leaf = FindLeaf(first);
  if (leaf == nullptr) {
    return;
  }
  const unsigned slot0 = IndexAt(first, 1);
  cache_.Touch(leaf->addr + slot0 * 8, std::uint64_t{subblock_factor} * 8);
  for (unsigned i = 0; i < subblock_factor; ++i) {
    const MappingWord word = leaf->slots[slot0 + i].load();
    if (word == MappingWord::Invalid()) {
      continue;
    }
    TlbFill fill = FillFromWord(first + i, word);
    if (fill.Covers(first + i)) {
      out.push_back(fill);
    }
  }
}

void ForwardMappedPageTable::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  SetSlot(vpn, MappingWord::Base(ppn, attr));
}

bool ForwardMappedPageTable::RemoveBase(Vpn vpn) {
  return ClearSlot(vpn) != MappingWord::Invalid();
}

void ForwardMappedPageTable::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn,
                                             Attr attr) {
  CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
  const MappingWord word = MappingWord::Superpage(base_ppn, attr, size);
  if (opts_.intermediate_superpages) {
    // Find the level whose subtree coverage equals the superpage size.
    for (unsigned level = 2; level <= kNumLevels; ++level) {
      if (ShiftOfLevel(level) == size.size_log2) {
        AddIntermediateSuper(base_vpn, level, word);
        return;
      }
    }
  }
  WriteReplicas(base_vpn, size.pages(), word, ReplicaSites::kAll);
}

bool ForwardMappedPageTable::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  if (opts_.intermediate_superpages) {
    for (unsigned level = 2; level <= kNumLevels; ++level) {
      if (ShiftOfLevel(level) == size.size_log2) {
        auto it = inner_[level].find(PrefixAt(base_vpn, level));
        if (it == inner_[level].end()) {
          return false;
        }
        const bool erased = it->second.super_slots.erase(IndexAt(base_vpn, level)) > 0;
        if (erased) {
          live_translations_ -= size.pages();
          MaybeFreeInner(base_vpn, level);
        }
        return erased;
      }
    }
  }
  return WriteReplicas(base_vpn, size.pages(), MappingWord::Invalid(), ReplicaSites::kAll);
}

void ForwardMappedPageTable::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                                   Ppn block_base_ppn, Attr attr,
                                                   std::uint16_t valid_vector) {
  // Replicated like the linear table's PSB words: base PTEs of unplaced
  // pages in the block keep their sites.
  CPT_DCHECK(subblock_factor == (1u << kReplicatedPsbPagesLog2));
  CPT_DCHECK(BoffOf(block_base_vpn, subblock_factor) == 0 &&
             IsSuperpageAligned(block_base_ppn, PageSize{kReplicatedPsbPagesLog2}));
  WriteReplicas(block_base_vpn, subblock_factor,
                MappingWord::PartialSubblock(block_base_ppn, attr, valid_vector),
                ReplicaSites::kAllButBase);
}

bool ForwardMappedPageTable::RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) {
  return WriteReplicas(block_base_vpn, subblock_factor, MappingWord::Invalid(),
                       ReplicaSites::kPsbOnly);
}

bool ForwardMappedPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                             std::uint16_t clear_mask) {
  // Uncounted structural update: R/M-bit maintenance rides on the walk the
  // miss already paid for (Section 3.1), so it models no memory traffic.
  if (opts_.intermediate_superpages) {
    for (unsigned level = kNumLevels; level >= 2; --level) {
      auto it = inner_[level].find(PrefixAt(vpn, level));
      if (it == inner_[level].end()) {
        return false;
      }
      auto slot_it = it->second.super_slots.find(IndexAt(vpn, level));
      if (slot_it != it->second.super_slots.end()) {
        const TlbFill fill = FillFromWord(vpn, slot_it->second.load());
        if (!fill.Covers(vpn)) {
          return false;
        }
        // Intermediate superpage PTEs are single-site: one word, no replicas.
        ApplyAttrUpdate(slot_it->second, set_mask, clear_mask);
        return true;
      }
    }
  }
  // Leaf words use Replicate-PTEs: the update must hit every covered site or
  // a later scan at a sibling site would read stale bits.
  Leaf* leaf = FindLeaf(vpn);
  if (leaf == nullptr) {
    return false;
  }
  const MappingWord word = leaf->slots[IndexAt(vpn, 1)].load();
  if (word == MappingWord::Invalid()) {
    return false;
  }
  const TlbFill fill = FillFromWord(vpn, word);
  if (!fill.Covers(vpn)) {
    return false;
  }
  const std::uint64_t npages = std::uint64_t{1} << fill.pages_log2;
  for (std::uint64_t i = 0; i < npages; ++i) {
    const Vpn site = fill.base_vpn + i;
    Leaf* site_leaf = PrefixAt(site, 1) == PrefixAt(vpn, 1) ? leaf : FindLeaf(site);
    if (site_leaf == nullptr) {
      continue;
    }
    AtomicMappingWord& slot = site_leaf->slots[IndexAt(site, 1)];
    const MappingWord replica = slot.load();
    if (replica == MappingWord::Invalid() || replica.kind() != fill.kind) {
      continue;
    }
    ApplyAttrUpdate(slot, set_mask, clear_mask);
  }
  return true;
}

std::uint64_t ForwardMappedPageTable::ProtectRange(Vpn first_vpn, std::uint64_t npages,
                                                   Attr attr) {
  for (std::uint64_t i = 0; i < npages; ++i) {
    Leaf* leaf = FindLeaf(first_vpn + i);
    if (leaf == nullptr) {
      continue;
    }
    AtomicMappingWord& slot = leaf->slots[IndexAt(first_vpn + i, 1)];
    const MappingWord word = slot.load();
    if (word != MappingWord::Invalid()) {
      slot.store(word.with_attr(attr));
    }
  }
  return npages;
}

void ForwardMappedPageTable::AuditVisit(check::PtAuditVisitor& visitor) const {
  // Leaves: one view per leaf node; `index` carries the live-slot counter,
  // `bucket` the tree level (1 = leaf).
  for (const auto& [prefix, leaf] : leaves_) {
    check::PtNodeView view;
    view.bucket = 1;
    view.tag = prefix;
    view.base_vpn = Vpn{prefix << kLevelBits[0]};
    view.sub_log2 = 0;
    view.words = leaf.slots.data();
    view.num_words = kLeafEntries;
    view.index = static_cast<std::int32_t>(leaf.live);
    view.addr = leaf.addr;
    visitor.OnNode(view);
  }
  // Intermediate-superpage words: one single-word view each, sub_log2 set to
  // the subtree coverage of that level.
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    for (const auto& [prefix, inner] : inner_[level]) {
      for (const auto& [idx, word] : inner.super_slots) {
        check::PtNodeView view;
        view.bucket = level;
        view.tag = prefix;
        view.base_vpn = Vpn{((prefix << kLevelBits[level - 1]) | idx) << ShiftOfLevel(level)};
        view.sub_log2 = ShiftOfLevel(level);
        view.words = &word;
        view.num_words = 1;
        view.index = static_cast<std::int32_t>(inner.children);
        view.addr = inner.addr;
        visitor.OnNode(view);
      }
    }
  }
}

std::array<std::uint64_t, ForwardMappedPageTable::kNumLevels>
ForwardMappedPageTable::ActiveNodesPerLevel() const {
  std::array<std::uint64_t, kNumLevels> counts{};
  counts[0] = leaves_.size();
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    counts[level - 1] = inner_[level].size();
  }
  return counts;
}

std::uint64_t ForwardMappedPageTable::SizeBytesPaperModel() const {
  std::uint64_t bytes = leaves_.size() * NodeBytesOfLevel(1);
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    bytes += inner_[level].size() * NodeBytesOfLevel(level);
  }
  return bytes;
}

std::uint64_t ForwardMappedPageTable::SizeBytesActual() const { return alloc_.bytes_live(); }

std::uint64_t ForwardMappedPageTable::live_translations() const { return live_translations_; }

}  // namespace cpt::pt
