#include "pt/forward.h"

#include "common/check.h"

namespace cpt::pt {

ForwardMappedPageTable::ForwardMappedPageTable(mem::CacheTouchModel& cache, Options opts)
    : ReplicatedLeafTable(cache), opts_(opts) {}

ForwardMappedPageTable::~ForwardMappedPageTable() = default;

void ForwardMappedPageTable::OnLeafAdded(Vpn vpn) {
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

void ForwardMappedPageTable::OnLeafFreed(Vpn vpn) {
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

std::optional<TlbFill> ForwardMappedPageTable::Lookup(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  // Top-down walk: one PTP read per intermediate level, then the leaf PTE.
  // Each read is one walk step, so the step is the tree depth (root = step
  // 1, the leaf PTE read = step kNumLevels).
  WalkRecorder rec(cache_, vpn);
  for (unsigned level = kNumLevels; level >= 2; --level) {
    auto it = inner_[level].find(PrefixAt(vpn, level));
    if (it == inner_[level].end()) {
      return std::nullopt;
    }
    const unsigned idx = IndexAt(vpn, level);
    cache_.Touch(it->second.addr + idx * 8, 8);
    rec.Step();
    if (opts_.intermediate_superpages) {
      auto slot_it = it->second.super_slots.find(idx);
      if (slot_it != it->second.super_slots.end()) {
        const TlbFill fill = FillFromWord(vpn, slot_it->second.load());
        if (fill.Covers(vpn)) {
          return rec.Hit(fill);  // Short-circuit: the PTP slot held a superpage PTE.
        }
        return std::nullopt;
      }
    }
  }
  return ReadLeaf(vpn, rec);
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
  ReadLeafBlock(first, subblock_factor, out);
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

std::optional<Attr> ForwardMappedPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                                            std::uint16_t clear_mask) {
  if (opts_.intermediate_superpages) {
    for (unsigned level = kNumLevels; level >= 2; --level) {
      auto it = inner_[level].find(PrefixAt(vpn, level));
      if (it == inner_[level].end()) {
        return std::nullopt;
      }
      auto slot_it = it->second.super_slots.find(IndexAt(vpn, level));
      if (slot_it != it->second.super_slots.end()) {
        if (!FillFromWord(vpn, slot_it->second.load()).Covers(vpn)) {
          return std::nullopt;
        }
        // Intermediate superpage PTEs are single-site: one word, no replicas.
        return ApplyAttrUpdate(slot_it->second, set_mask, clear_mask);
      }
    }
  }
  return UpdateLeafAttrFlags(vpn, set_mask, clear_mask);
}

void ForwardMappedPageTable::AuditVisit(check::PtAuditVisitor& visitor) const {
  ReplicatedLeafTable::AuditVisit(visitor);
  // Intermediate-superpage words: one single-word view each, sub_log2 set to
  // the subtree coverage of that level.
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    for (const auto& [prefix, inner] : inner_[level]) {
      for (const auto& [idx, word] : inner.super_slots) {
        visitor.OnNode(
            {.level = level,
             .tag = prefix,
             .base_vpn = Vpn{((prefix << kLevelBits[level - 1]) | idx) << ShiftOfLevel(level)},
             .sub_log2 = ShiftOfLevel(level),
             .words = &word,
             .num_words = 1});
      }
    }
  }
}

std::array<std::uint64_t, ForwardMappedPageTable::kNumLevels>
ForwardMappedPageTable::ActiveNodesPerLevel() const {
  std::array<std::uint64_t, kNumLevels> counts{};
  counts[0] = leaf_count();
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    counts[level - 1] = inner_[level].size();
  }
  return counts;
}

std::uint64_t ForwardMappedPageTable::SizeBytesPaperModel() const {
  std::uint64_t bytes = leaf_count() * NodeBytesOfLevel(1);
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    bytes += inner_[level].size() * NodeBytesOfLevel(level);
  }
  return bytes;
}

std::uint64_t ForwardMappedPageTable::SizeBytesActual() const { return alloc_.bytes_live(); }

}  // namespace cpt::pt
