// Linear page table — Figure 2 of the paper, extended to 64-bit addresses.
//
// Conceptually a single virtual array of PTEs indexed by VPN, materialized a
// 4KB page (512 PTEs) at a time.  For 64-bit addresses the mappings *to* the
// page table form a 6-level tree (52 VPN bits / 9 bits per level); the
// straightforward extension the paper analyzes.
//
// Size accounting (appendix Table 2):
//   - kSixLevel: sum over levels i=1..6 of 4KB * Nactive(2^(9i)) — every
//     active tree node is a page.
//   - kOneLevel: leaf pages only, assuming the upper levels live in a
//     zero-space structure (the paper's optimistic "1-level" series; in
//     practice a hashed table holds the upper mappings, see Section 7).
//
// Access-time accounting (Section 6.1): each TLB miss reads exactly one PTE
// from the leaf page — one cache line.  Misses on the page table's *own*
// virtual mappings (nested TLB misses) are modeled at the machine level by
// reserving 8 of the 64 TLB entries for page-table mappings; this class only
// touches the leaf slot.
//
// Superpage / partial-subblock PTEs use the Replicate-PTEs strategy
// (Section 4.2, pt/replicate.h): the word is written at every covered
// base-page site (a PSB word skips sites holding a base PTE), so lookups are
// unchanged but the table cannot shrink.  A replicated write resolves each
// leaf page once and stores its run of replicas in one pass.
#ifndef CPT_PT_LINEAR_H_
#define CPT_PT_LINEAR_H_

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "mem/sim_alloc.h"
#include "pt/page_table.h"
#include "pt/replicate.h"

namespace cpt::pt {

class LinearPageTable final : public PageTable {
 public:
  static constexpr unsigned kPtesPerPage = kBasePageSize / 8;  // 512
  static constexpr unsigned kBitsPerLevel = 9;
  static constexpr unsigned kNumLevels = 6;  // ceil(52 / 9)

  enum class SizeModel : std::uint8_t {
    kSixLevel,     // Charge every level of the 6-level tree.
    kOneLevel,     // Charge leaf pages only (optimistic "1-level" series).
    kHashedUpper,  // Leaf pages + one 24-byte hashed PTE per leaf, holding
                   // the translations to the page table itself (Table 2's
                   // "Linear with Hashed" row; Section 7's practical form).
  };

  struct Options {
    SizeModel size_model = SizeModel::kSixLevel;
    mem::NodePlacement placement = mem::NodePlacement::kLineAligned;
  };

  LinearPageTable(mem::CacheTouchModel& cache, Options opts);
  ~LinearPageTable() override;

  [[nodiscard]] CPT_HOT std::optional<TlbFill> Lookup(VirtAddr va) override;
  CPT_HOT void LookupBlock(VirtAddr va, unsigned subblock_factor,
                           std::vector<TlbFill>& out) override;
  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) override;
  bool RemoveBase(Vpn vpn) override;
  PtFeatures features() const override {
    return {.superpages = true, .partial_subblock = true, .adjacent_block_fetch = true};
  }
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) override;
  bool RemoveSuperpage(Vpn base_vpn, PageSize size) override;
  void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor, Ppn block_base_ppn,
                             Attr attr, std::uint16_t valid_vector) override;
  bool RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) override;
  CPT_HOT bool UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                               std::uint16_t clear_mask) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  std::uint64_t SizeBytesPaperModel() const override;
  std::uint64_t SizeBytesActual() const override;
  std::uint64_t live_translations() const override;
  std::string name() const override;

  // Tree-node counts per level (level 1 = leaves), for the size formulae.
  std::array<std::uint64_t, kNumLevels> ActiveNodesPerLevel() const;

  // ---- Invariant auditing (src/check) ----
  void AuditVisit(check::PtAuditVisitor& visitor) const;

 private:
  friend class check::TestBackdoor;

  struct Leaf {
    PhysAddr addr{};
    std::array<AtomicMappingWord, kPtesPerPage> slots{};
    unsigned live = 0;
  };
  // The paper model charges a prefix of this host struct (its mapping
  // words); the host struct must not silently grow.
  static_assert(sizeof(Leaf) == 4112 && alignof(Leaf) == 8);

  // Tree indices deliberately erase the domain: the 6-level radix tree keys
  // level i by vpn >> (9*i), a plain array index.  These are the only
  // crossings from Vpn to a leaf index / slot number and back.
  static constexpr std::uint64_t LeafIndexOf(Vpn vpn) { return vpn.raw() >> kBitsPerLevel; }
  static constexpr unsigned SlotIndexOf(Vpn vpn) {
    return static_cast<unsigned>(vpn.raw() % kPtesPerPage);
  }
  static constexpr Vpn FirstVpnOfLeaf(std::uint64_t leaf_index) {
    return Vpn{leaf_index << kBitsPerLevel};
  }

  Leaf& LeafFor(Vpn vpn);
  Leaf* FindLeaf(Vpn vpn);
  // Frees the emptied leaf holding `vpn`: the table's one leaves_.erase.
  void FreeLeaf(Vpn vpn, Leaf& leaf);
  void SetSlot(Vpn vpn, MappingWord word);
  // Clears a slot; returns the previous word.
  MappingWord ClearSlot(Vpn vpn);
  // Writes `word` (Invalid() clears) at the sites of `npages` pages from
  // `first` that `sites` allows, one leaf lookup per leaf page; returns
  // whether an occupied slot was replaced.
  bool WriteReplicas(Vpn first, std::uint64_t npages, MappingWord word, ReplicaSites sites);
  void AddUpperLevels(std::uint64_t leaf_index);
  void RemoveUpperLevels(std::uint64_t leaf_index);
  TlbFill FillFromWord(Vpn vpn, MappingWord word) const;

  Options opts_;
  mem::SimAllocator alloc_;
  std::unordered_map<std::uint64_t, Leaf> leaves_;  // keyed by vpn >> 9
  // Refcounts of active intermediate nodes, levels 2..6 (index 0 unused,
  // index 1 unused; level i keyed by vpn >> (9*i)).
  std::array<std::unordered_map<std::uint64_t, std::uint32_t>, kNumLevels + 1> upper_;
  std::uint64_t live_translations_ = 0;
  // The leaf LeafFor resolved last; FindLeaf consults it too.  Only writers
  // set it, so Lookup and UpdateAttrFlags stay read-only.  FreeLeaf resets it.
  std::uint64_t memo_index_ = 0;
  Leaf* memo_leaf_ = nullptr;
};

}  // namespace cpt::pt

#endif  // CPT_PT_LINEAR_H_
