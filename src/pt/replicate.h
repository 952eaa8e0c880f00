// Replicate-PTEs (Section 4.2), shared by the linear and forward-mapped
// tables: a superpage or partial-subblock (PSB) word is stored at the page
// table site of every base page it covers, so lookups read one slot and
// every change to the word rewrites all of its replicas (the §4.3
// multi-PTE update cost).
//
// The tables write a replicated word as one block (WriteReplicaRuns below):
// each leaf is resolved once, and its `live` count and the table's
// translation count take one update per leaf.
#ifndef CPT_PT_REPLICATE_H_
#define CPT_PT_REPLICATE_H_

#include <algorithm>
#include <cstdint>

#include "common/pte.h"
#include "common/types.h"

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

// Which occupied sites a replicated write may overwrite or clear.  Empty
// sites are always written.
enum class ReplicaSites : std::uint8_t {
  kAll,        // Superpage insert and remove: every covered site.
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

// Stores `word` (MappingWord::Invalid() clears) at the leaf sites of the
// `npages` pages from `first`, skipping occupied sites that `sites`
// protects, and returns whether an occupied site was replaced.  The pages
// split into runs of consecutive slots, one per leaf of `kLeafSlots`
// entries: `leaf_of(vpn)` resolves a run's leaf once (nullptr when there is
// nothing to clear), and `free_leaf(vpn, leaf)` frees a leaf the write
// emptied.  The leaf's `live` count and `live_translations` change by the
// sum over the run of what each site's old and new words contribute.
template <unsigned kLeafSlots, typename LeafOf, typename FreeLeaf>
bool WriteReplicaRuns(Vpn first, std::uint64_t npages, MappingWord word, ReplicaSites sites,
                      std::uint64_t& live_translations, LeafOf leaf_of, FreeLeaf free_leaf) {
  const unsigned replaceable = ReplaceableKinds(sites);
  const bool now_occupied = word != MappingWord::Invalid();
  bool replaced = false;
  for (std::uint64_t done = 0; done < npages;) {
    const Vpn run_first = first + done;
    const auto slot0 = static_cast<unsigned>(run_first.raw() % kLeafSlots);
    const auto n =
        static_cast<unsigned>(std::min<std::uint64_t>(npages - done, kLeafSlots - slot0));
    done += n;
    auto* leaf = leaf_of(run_first);
    if (leaf == nullptr) {
      continue;
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
    live_translations += translations;
    if (leaf->live == 0) {
      free_leaf(run_first, *leaf);
    }
  }
  return replaced;
}

}  // namespace cpt::pt

#endif  // CPT_PT_REPLICATE_H_
