#include "pt/linear.h"

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::pt {

LinearPageTable::LinearPageTable(mem::CacheTouchModel& cache, Options opts)
    : PageTable(cache), opts_(opts), alloc_(cache.line_size(), opts.placement) {}

LinearPageTable::~LinearPageTable() = default;

TlbFill LinearPageTable::FillFromWord(Vpn vpn, MappingWord word) const {
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

LinearPageTable::Leaf& LinearPageTable::LeafFor(Vpn vpn) {
  const std::uint64_t leaf_index = LeafIndexOf(vpn);
  if (memo_leaf_ != nullptr && memo_index_ == leaf_index) {
    return *memo_leaf_;
  }
  auto [it, inserted] = leaves_.try_emplace(leaf_index);
  if (inserted) {
    it->second.addr = alloc_.Allocate(kBasePageSize);
    AddUpperLevels(leaf_index);
  }
  memo_index_ = leaf_index;
  memo_leaf_ = &it->second;
  return it->second;
}

LinearPageTable::Leaf* LinearPageTable::FindLeaf(Vpn vpn) {
  const std::uint64_t leaf_index = LeafIndexOf(vpn);
  if (memo_leaf_ != nullptr && memo_index_ == leaf_index) {
    return memo_leaf_;
  }
  auto it = leaves_.find(leaf_index);
  return it == leaves_.end() ? nullptr : &it->second;
}

void LinearPageTable::FreeLeaf(Vpn vpn, Leaf& leaf) {
  const std::uint64_t leaf_index = LeafIndexOf(vpn);
  alloc_.Free(leaf.addr, kBasePageSize);
  memo_leaf_ = nullptr;
  leaves_.erase(leaf_index);
  RemoveUpperLevels(leaf_index);
}

void LinearPageTable::AddUpperLevels(std::uint64_t leaf_index) {
  std::uint64_t child_key = leaf_index;
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    const std::uint64_t key = child_key >> kBitsPerLevel;
    if (upper_[level][key]++ != 0) {
      break;  // This subtree already existed; ancestors are already counted.
    }
    child_key = key;
  }
}

void LinearPageTable::RemoveUpperLevels(std::uint64_t leaf_index) {
  std::uint64_t child_key = leaf_index;
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    const std::uint64_t key = child_key >> kBitsPerLevel;
    auto it = upper_[level].find(key);
    CPT_DCHECK(it != upper_[level].end() && it->second > 0);
    if (--it->second != 0) {
      break;
    }
    upper_[level].erase(it);
    child_key = key;
  }
}

void LinearPageTable::SetSlot(Vpn vpn, MappingWord word) {
  Leaf& leaf = LeafFor(vpn);
  AtomicMappingWord& slot = leaf.slots[SlotIndexOf(vpn)];
  const MappingWord old = slot.load();
  const bool was_occupied = old != MappingWord::Invalid();
  const bool now_occupied = word != MappingWord::Invalid();
  leaf.live += static_cast<unsigned>(now_occupied) - static_cast<unsigned>(was_occupied);
  live_translations_ += static_cast<std::uint64_t>(TranslatesSite(word, vpn)) -
                        static_cast<std::uint64_t>(TranslatesSite(old, vpn));
  slot.store(word);
}

MappingWord LinearPageTable::ClearSlot(Vpn vpn) {
  Leaf* leaf = FindLeaf(vpn);
  if (leaf == nullptr) {
    return MappingWord::Invalid();
  }
  AtomicMappingWord& slot = leaf->slots[SlotIndexOf(vpn)];
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

bool LinearPageTable::WriteReplicas(Vpn first, std::uint64_t npages, MappingWord word,
                                    ReplicaSites sites) {
  return WriteReplicaRuns<kPtesPerPage>(
      first, npages, word, sites, live_translations_,
      [&](Vpn vpn) { return word != MappingWord::Invalid() ? &LeafFor(vpn) : FindLeaf(vpn); },
      [&](Vpn vpn, Leaf& leaf) { FreeLeaf(vpn, leaf); });
}

std::optional<TlbFill> LinearPageTable::Lookup(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  Leaf* leaf = FindLeaf(vpn);
  if (leaf == nullptr) {
    return std::nullopt;  // The PTE page itself is unmapped: page fault.
  }
  const unsigned slot = SlotIndexOf(vpn);
  // One access to the (virtually addressed) PTE — always a single line.
  cache_.Touch(leaf->addr + slot * 8, 8);
  if (obs::WalkTracer* const tracer = cache_.tracer()) {
    tracer->Record({.kind = obs::EventKind::kWalkStep,
                    .vpn = vpn,
                    .step = 1,
                    .lines = static_cast<std::uint32_t>(cache_.LinesThisWalk())});
  }
  const MappingWord word = leaf->slots[slot].load();
  if (word == MappingWord::Invalid()) {
    return std::nullopt;
  }
  TlbFill fill = FillFromWord(vpn, word);
  if (!fill.Covers(vpn)) {
    return std::nullopt;  // e.g. PSB replica whose valid bit for vpn is clear.
  }
  if (obs::WalkTracer* const tracer = cache_.tracer()) {
    tracer->Record({.kind = obs::EventKind::kWalkHit,
                    .vpn = vpn,
                    .step = 1,
                    .value = WalkHitValue(fill)});
  }
  return fill;
}

void LinearPageTable::LookupBlock(VirtAddr va, unsigned subblock_factor,
                                  std::vector<TlbFill>& out) {
  // Mappings for the whole page block are adjacent PTE slots: one read of
  // subblock_factor*8 bytes.  Page blocks never straddle leaf pages because
  // 512 is a multiple of the subblock factor.
  const Vpn vpn = VpnOf(va);
  const Vpn first = FirstVpnOfBlock(VpbnOf(vpn, subblock_factor), subblock_factor);
  Leaf* leaf = FindLeaf(first);
  if (leaf == nullptr) {
    return;
  }
  const unsigned slot0 = SlotIndexOf(first);
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

void LinearPageTable::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  SetSlot(vpn, MappingWord::Base(ppn, attr));
}

bool LinearPageTable::RemoveBase(Vpn vpn) { return ClearSlot(vpn) != MappingWord::Invalid(); }

void LinearPageTable::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  // Replicate-PTEs (Section 4.2): the superpage PTE is stored at the page
  // table site of every base page it covers.
  CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
  WriteReplicas(base_vpn, size.pages(), MappingWord::Superpage(base_ppn, attr, size),
                ReplicaSites::kAll);
}

bool LinearPageTable::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  return WriteReplicas(base_vpn, size.pages(), MappingWord::Invalid(), ReplicaSites::kAll);
}

void LinearPageTable::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                            Ppn block_base_ppn, Attr attr,
                                            std::uint16_t valid_vector) {
  // Replicated at every base site that does not hold a base PTE; updating
  // the vector rewrites all replicas (the §4.3 multi-PTE update cost of
  // replication).  A base PTE in the block maps an unplaced page, which the
  // vector never covers, so it stays.
  CPT_DCHECK(subblock_factor == (1u << kReplicatedPsbPagesLog2));
  CPT_DCHECK(BoffOf(block_base_vpn, subblock_factor) == 0 &&
             IsSuperpageAligned(block_base_ppn, PageSize{kReplicatedPsbPagesLog2}));
  WriteReplicas(block_base_vpn, subblock_factor,
                MappingWord::PartialSubblock(block_base_ppn, attr, valid_vector),
                ReplicaSites::kAllButBase);
}

bool LinearPageTable::RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) {
  return WriteReplicas(block_base_vpn, subblock_factor, MappingWord::Invalid(),
                       ReplicaSites::kPsbOnly);
}

bool LinearPageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask, std::uint16_t clear_mask) {
  // Uncounted structural update: R/M-bit maintenance rides on the walk the
  // miss already paid for (Section 3.1), so it models no memory traffic.
  // Replicate-PTEs store the superpage/PSB word at every covered base-page
  // site, so the update must hit every replica — otherwise a later scan at a
  // sibling site would read stale bits.
  Leaf* leaf = FindLeaf(vpn);
  if (leaf == nullptr) {
    return false;
  }
  const MappingWord word = leaf->slots[SlotIndexOf(vpn)].load();
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
    Leaf* site_leaf = LeafIndexOf(site) == LeafIndexOf(vpn) ? leaf : FindLeaf(site);
    if (site_leaf == nullptr) {
      continue;
    }
    AtomicMappingWord& slot = site_leaf->slots[SlotIndexOf(site)];
    const MappingWord replica = slot.load();
    if (replica == MappingWord::Invalid() || replica.kind() != fill.kind) {
      continue;
    }
    ApplyAttrUpdate(slot, set_mask, clear_mask);
  }
  return true;
}

std::uint64_t LinearPageTable::ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
  // Direct array indexing: one slot visit per page.
  for (std::uint64_t i = 0; i < npages; ++i) {
    Leaf* leaf = FindLeaf(first_vpn + i);
    if (leaf == nullptr) {
      continue;
    }
    AtomicMappingWord& slot = leaf->slots[SlotIndexOf(first_vpn + i)];
    const MappingWord word = slot.load();
    if (word != MappingWord::Invalid()) {
      slot.store(word.with_attr(attr));
    }
  }
  return npages;
}

void LinearPageTable::AuditVisit(check::PtAuditVisitor& visitor) const {
  // A linear table has no hash chains: each leaf page becomes one node view.
  // `index` carries the leaf's live-slot counter so the auditor can check it
  // against the occupied slots it sees in `words`.
  for (const auto& [leaf_index, leaf] : leaves_) {
    check::PtNodeView view;
    view.bucket = 0;
    view.tag = leaf_index;
    view.base_vpn = FirstVpnOfLeaf(leaf_index);
    view.sub_log2 = 0;
    view.words = leaf.slots.data();
    view.num_words = kPtesPerPage;
    view.index = static_cast<std::int32_t>(leaf.live);
    view.addr = leaf.addr;
    visitor.OnNode(view);
  }
}

std::array<std::uint64_t, LinearPageTable::kNumLevels> LinearPageTable::ActiveNodesPerLevel()
    const {
  std::array<std::uint64_t, kNumLevels> counts{};
  counts[0] = leaves_.size();
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    counts[level - 1] = upper_[level].size();
  }
  return counts;
}

std::uint64_t LinearPageTable::SizeBytesPaperModel() const {
  std::uint64_t pages = leaves_.size();
  if (opts_.size_model == SizeModel::kSixLevel) {
    for (unsigned level = 2; level <= kNumLevels; ++level) {
      pages += upper_[level].size();
    }
  }
  std::uint64_t bytes = pages * kBasePageSize;
  if (opts_.size_model == SizeModel::kHashedUpper) {
    // A hashed table (24-byte PTEs) stores the translations to the
    // first-level linear page table: (4KB + 24) * Nactive(512).
    bytes += leaves_.size() * 24;
  }
  return bytes;
}

std::uint64_t LinearPageTable::SizeBytesActual() const {
  std::uint64_t bytes = alloc_.bytes_live();
  if (opts_.size_model == SizeModel::kSixLevel) {
    for (unsigned level = 2; level <= kNumLevels; ++level) {
      bytes += upper_[level].size() * kBasePageSize;
    }
  }
  return bytes;
}

std::uint64_t LinearPageTable::live_translations() const { return live_translations_; }

std::string LinearPageTable::name() const {
  switch (opts_.size_model) {
    case SizeModel::kSixLevel:
      return "linear-6level";
    case SizeModel::kOneLevel:
      return "linear-1level";
    case SizeModel::kHashedUpper:
      return "linear-hashed";
  }
  return "linear";
}

}  // namespace cpt::pt
