// Replicate-PTEs (Section 4.2): the one leaf layer of the linear and
// forward-mapped tables.  A superpage or partial-subblock (PSB) word is
// stored at the page table site of every base page it covers, so lookups
// read one slot and every change to the word rewrites all of its replicas
// (the §4.3 multi-PTE update cost).  RISC-V's Svnapot NAPOT PTEs use the
// same layout.
//
// ReplicatedLeafTable owns the leaves (arrays of `kLeafSlots` PTEs keyed by
// vpn / kLeafSlots) with a last-leaf memo, every write to them with its
// `live` and translation accounting, the leaf half of a walk, the
// replica-wide R/M update, ProtectRange and the leaves' audit view.  The
// table above it (CRTP `Table`) keeps what differs: its upper levels, its
// walk down to the leaf and its size model.  It learns of leaf creation
// and freeing through two hooks the layer calls statically:
// `Table::OnLeafAdded(vpn)` after a new leaf is allocated and
// `Table::OnLeafFreed(vpn)` after an emptied one is released.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/audit_visitor.h"
#include "check/fwd.h"
#include "common/check.h"
#include "common/pte.h"
#include "common/types.h"
#include "mem/sim_alloc.h"
#include "pt/page_table.h"

namespace cpt::pt {

// Replicated PSB words cover one page block; the factor is fixed by the
// 16-bit valid vector format.
inline constexpr unsigned kReplicatedPsbPagesLog2 = 4;

// Whether `word`, stored at the site of `vpn`, translates `vpn`: a PSB
// replica only where its valid bit is set, any other word when valid.
// (A replica's own site always lies inside the word's coverage.)
constexpr bool TranslatesSite(MappingWord word, Vpn vpn) {
  if (word.kind() == MappingKind::kPartialSubblock) {
    return word.subpage_valid(BoffOf(vpn, 1u << kReplicatedPsbPagesLog2));
  }
  return word.valid();
}

// The TLB fill that `word`, stored at the site of `vpn`, stands for.
constexpr TlbFill FillFromWord(Vpn vpn, MappingWord word) {
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

// Which occupied sites a replicated write may overwrite or clear.  Empty
// sites are always written.
enum class ReplicaSites : std::uint8_t {
  kAll,        // Base writes, superpage insert and remove: every covered site.
  kAllButBase, // PSB upsert: a base word of an unplaced page stays.
  kPsbOnly,    // PSB remove: only the block's PSB replicas.
};

constexpr unsigned KindBit(MappingKind kind) { return 1u << static_cast<unsigned>(kind); }

constexpr unsigned ReplaceableKinds(ReplicaSites sites) {
  switch (sites) {
    case ReplicaSites::kAll:
      return KindBit(MappingKind::kBase) | KindBit(MappingKind::kPartialSubblock) |
             KindBit(MappingKind::kSuperpage);
    case ReplicaSites::kAllButBase:
      return KindBit(MappingKind::kPartialSubblock) | KindBit(MappingKind::kSuperpage);
    case ReplicaSites::kPsbOnly:
      return KindBit(MappingKind::kPartialSubblock);
  }
  return 0;
}

template <typename Table, unsigned kLeafSlots>
class ReplicatedLeafTable : public PageTable {
 public:
  static constexpr std::uint64_t kLeafBytes = kLeafSlots * kWordBytes;

  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) final {
    WriteReplicas(vpn, 1, MappingWord::Base(ppn, attr), ReplicaSites::kAll);
  }
  bool RemoveBase(Vpn vpn) final {
    return WriteReplicas(vpn, 1, MappingWord::Invalid(), ReplicaSites::kAll);
  }
  PtFeatures features() const final {
    return {.superpages = true, .partial_subblock = true, .adjacent_block_fetch = true};
  }

  // Replicated at every base site that does not hold a base PTE; updating
  // the vector rewrites all replicas.  A base PTE in the block maps an
  // unplaced page, which the vector never covers, so it stays.
  void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor, Ppn block_base_ppn,
                             Attr attr, std::uint16_t valid_vector) final {
    CPT_DCHECK(subblock_factor == (1u << kReplicatedPsbPagesLog2));
    CPT_DCHECK(BoffOf(block_base_vpn, subblock_factor) == 0 &&
               IsSuperpageAligned(block_base_ppn, PageSize{kReplicatedPsbPagesLog2}));
    WriteReplicas(block_base_vpn, subblock_factor,
                  MappingWord::PartialSubblock(block_base_ppn, attr, valid_vector),
                  ReplicaSites::kAllButBase);
  }
  bool RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) final {
    return WriteReplicas(block_base_vpn, subblock_factor, MappingWord::Invalid(),
                         ReplicaSites::kPsbOnly);
  }

  // Direct slot indexing: one leaf visit per page.
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) final {
    for (std::uint64_t i = 0; i < npages; ++i) {
      Leaf* leaf = FindLeaf(first_vpn + i);
      if (leaf == nullptr) {
        continue;
      }
      AtomicMappingWord& slot = leaf->slots[SlotOf(first_vpn + i)];
      if (slot.load() != MappingWord::Invalid()) {
        ProtectWord(slot, attr);
      }
    }
    return npages;
  }

  std::uint64_t live_translations() const final { return live_translations_; }

  // The tree's header (its level widths and per-level node counts), then
  // one view per leaf: `tag` is the leaf key and `live_slots` the leaf's
  // live-slot counter, which the auditor recounts.  Leaves mix formats
  // (Replicate-PTEs), so the word rules are the defaults.
  void AuditVisit(check::PtAuditVisitor& visitor) const override {
    const Table& table = static_cast<const Table&>(*this);
    const auto counts = table.ActiveNodesPerLevel();
    visitor.OnTable({.name = table.name(),
                     .tag_shift = Table::kLevelBits[0],
                     .node_count = counts[0],
                     .live_translations = live_translations_,
                     .level_bits = {Table::kLevelBits.begin(), Table::kLevelBits.end()},
                     .level_nodes = {counts.begin(), counts.end()}});
    for (const auto& [key, leaf] : leaves_) {
      visitor.OnNode({.tag = key,
                      .base_vpn = Vpn{key * kLeafSlots},
                      .words = leaf.slots.data(),
                      .num_words = kLeafSlots,
                      .live_slots = leaf.live});
    }
  }

 protected:
  explicit ReplicatedLeafTable(mem::CacheTouchModel& cache)
      : PageTable(cache), alloc_(cache.line_size()) {}

  std::uint64_t leaf_count() const { return leaves_.size(); }

  // The leaf PTE read of a walk, as the next step of `rec`: one line, then
  // the fill if the slot's word translates `vpn`.  A missing leaf is a fault
  // before any read.
  std::optional<TlbFill> ReadLeaf(Vpn vpn, WalkRecorder& rec) {
    const Leaf* leaf = FindLeaf(vpn);
    if (leaf == nullptr) {
      return std::nullopt;
    }
    const unsigned slot = SlotOf(vpn);
    cache_.Touch(leaf->addr + slot * kWordBytes, kWordBytes);
    rec.Step();
    const MappingWord word = leaf->slots[slot].load();
    if (word == MappingWord::Invalid()) {
      return std::nullopt;
    }
    const TlbFill fill = FillFromWord(vpn, word);
    if (!fill.Covers(vpn)) {
      return std::nullopt;  // e.g. PSB replica whose valid bit for vpn is clear.
    }
    return rec.Hit(fill);
  }

  // The block's PTEs are adjacent slots: one read of factor * 8 bytes.  A
  // block never straddles leaves because kLeafSlots is a multiple of it.
  void ReadLeafBlock(Vpn first, unsigned subblock_factor, std::vector<TlbFill>& out) {
    const Leaf* leaf = FindLeaf(first);
    if (leaf == nullptr) {
      return;
    }
    const unsigned slot0 = SlotOf(first);
    cache_.Touch(leaf->addr + slot0 * kWordBytes, subblock_factor * kWordBytes);
    for (unsigned i = 0; i < subblock_factor; ++i) {
      const MappingWord word = leaf->slots[slot0 + i].load();
      if (word == MappingWord::Invalid()) {
        continue;
      }
      const TlbFill fill = FillFromWord(first + i, word);
      if (fill.Covers(first + i)) {
        out.push_back(fill);
      }
    }
  }

  // PageTable::UpdateAttrFlags for the leaves.  The update hits every
  // replica of the word covering `vpn`; otherwise a later scan at a sibling
  // site would read stale bits.  Returns the bits of the word at vpn's site.
  std::optional<Attr> UpdateLeafAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                          std::uint16_t clear_mask) {
    Leaf* leaf = FindLeaf(vpn);
    if (leaf == nullptr) {
      return std::nullopt;
    }
    AtomicMappingWord& own = leaf->slots[SlotOf(vpn)];
    const MappingWord word = own.load();
    if (word == MappingWord::Invalid()) {
      return std::nullopt;
    }
    const TlbFill fill = FillFromWord(vpn, word);
    if (!fill.Covers(vpn)) {
      return std::nullopt;
    }
    const Attr was = ApplyAttrUpdate(own, set_mask, clear_mask);
    const std::uint64_t npages = std::uint64_t{1} << fill.pages_log2;
    for (std::uint64_t i = 0; i < npages; ++i) {
      const Vpn site = fill.base_vpn + i;
      if (site == vpn) {
        continue;
      }
      Leaf* site_leaf = KeyOf(site) == KeyOf(vpn) ? leaf : FindLeaf(site);
      if (site_leaf == nullptr) {
        continue;
      }
      AtomicMappingWord& slot = site_leaf->slots[SlotOf(site)];
      const MappingWord replica = slot.load();
      if (replica == MappingWord::Invalid() || replica.kind() != fill.kind) {
        continue;
      }
      ApplyAttrUpdate(slot, set_mask, clear_mask);
    }
    return was;
  }

  // Stores `word` (MappingWord::Invalid() clears) at the sites of the
  // `npages` pages from `first`, skipping occupied sites that `sites`
  // protects, and returns whether an occupied site was replaced.  The pages
  // split into runs of consecutive slots, one per leaf: each leaf is
  // resolved once, and its `live` count and live_translations_ change by
  // the sum over the run of what each site's old and new words contribute.
  bool WriteReplicas(Vpn first, std::uint64_t npages, MappingWord word, ReplicaSites sites) {
    const unsigned replaceable = ReplaceableKinds(sites);
    const bool now_occupied = word != MappingWord::Invalid();
    bool replaced = false;
    for (std::uint64_t done = 0; done < npages;) {
      const Vpn run_first = first + done;
      const unsigned slot0 = SlotOf(run_first);
      const auto n =
          static_cast<unsigned>(std::min<std::uint64_t>(npages - done, kLeafSlots - slot0));
      done += n;
      Leaf* leaf = now_occupied ? &LeafFor(run_first) : FindLeaf(run_first);
      if (leaf == nullptr) {
        continue;  // Nothing to clear.
      }
      unsigned occupied = 0;
      std::uint64_t translations = 0;
      for (unsigned i = 0; i < n; ++i) {
        AtomicMappingWord& slot = leaf->slots[slot0 + i];
        const MappingWord old = slot.load();
        const bool was_occupied = old != MappingWord::Invalid();
        if (was_occupied && (replaceable & KindBit(old.kind())) == 0) {
          continue;
        }
        const Vpn site = run_first + i;
        occupied += static_cast<unsigned>(now_occupied) - static_cast<unsigned>(was_occupied);
        translations += static_cast<std::uint64_t>(TranslatesSite(word, site)) -
                        static_cast<std::uint64_t>(TranslatesSite(old, site));
        replaced |= was_occupied;
        slot.store(word);
      }
      leaf->live += occupied;
      live_translations_ += translations;
      if (leaf->live == 0) {
        FreeLeaf(run_first, *leaf);
      }
    }
    return replaced;
  }

  mem::SimAllocator alloc_;
  std::uint64_t live_translations_ = 0;

 private:
  friend class check::TestBackdoor;

  struct Leaf {
    PhysAddr addr{};
    std::array<AtomicMappingWord, kLeafSlots> slots{};
    unsigned live = 0;
  };
  // The paper model charges a prefix of this host struct (its mapping
  // words); the host struct must not silently grow.
  static_assert(sizeof(Leaf) == kLeafBytes + 16 && alignof(Leaf) == 8);

  // Leaf keys deliberately erase the domain: a leaf holds the kLeafSlots
  // consecutive VPNs from key * kLeafSlots.  These are the only crossings
  // from Vpn to a leaf key / slot number.
  static constexpr std::uint64_t KeyOf(Vpn vpn) { return vpn.raw() / kLeafSlots; }
  static constexpr unsigned SlotOf(Vpn vpn) {
    return static_cast<unsigned>(vpn.raw() % kLeafSlots);
  }

  Leaf* FindLeaf(Vpn vpn) {
    const std::uint64_t key = KeyOf(vpn);
    if (memo_leaf_ != nullptr && memo_key_ == key) {
      return memo_leaf_;
    }
    auto it = leaves_.find(key);
    return it == leaves_.end() ? nullptr : &it->second;
  }

  Leaf& LeafFor(Vpn vpn) {
    const std::uint64_t key = KeyOf(vpn);
    if (memo_leaf_ != nullptr && memo_key_ == key) {
      return *memo_leaf_;
    }
    auto [it, inserted] = leaves_.try_emplace(key);
    if (inserted) {
      it->second.addr = alloc_.Allocate(kLeafBytes);
      static_cast<Table&>(*this).OnLeafAdded(vpn);
    }
    memo_key_ = key;
    memo_leaf_ = &it->second;
    return it->second;
  }

  // Frees the emptied leaf holding `vpn`: the layer's one leaves_.erase.
  void FreeLeaf(Vpn vpn, Leaf& leaf) {
    alloc_.Free(leaf.addr, kLeafBytes);
    memo_leaf_ = nullptr;
    leaves_.erase(KeyOf(vpn));
    static_cast<Table&>(*this).OnLeafFreed(vpn);
  }

  std::unordered_map<std::uint64_t, Leaf> leaves_;
  // The leaf LeafFor resolved last; FindLeaf consults it too.  Only writers
  // set it, so walks and R/M updates stay read-only.  FreeLeaf resets it.
  std::uint64_t memo_key_ = 0;
  Leaf* memo_leaf_ = nullptr;
};

}  // namespace cpt::pt
