// Forward-mapped page table — Figure 3 of the paper.
//
// A top-down n-ary tree: intermediate nodes hold page-table pointers (PTPs),
// leaves hold PTEs, and each level is indexed by a fixed VPN field.
// Extending to 64-bit addresses requires seven levels; the paper deems the
// resulting seven memory accesses per TLB miss impractical — this
// implementation exists as the paper's baseline and reproduces that cost.
//
// Level split (52 VPN bits): a 4-bit root and six 8-bit levels, leaf nodes
// holding 256 PTEs.  The paper does not pin the split; Table 2's formulae
// are parameterized by n_i and this choice satisfies sum(bits) = 52 with
// nlevels = 7.
//
// The leaf nodes, and the Replicate-PTEs strategy for superpage and
// partial-subblock PTEs at the leaf sites, are the shared leaf layer of
// pt/replicate.h; this class adds the inner nodes and the top-down walk.
// As an extension (Section 4.2 "Forward-Mapped Intermediate Nodes"),
// superpages whose size exactly matches a subtree's coverage can instead be
// stored in the parent's PTP slot, short-circuiting the walk.
#pragma once

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

class ForwardMappedPageTable final : public ReplicatedLeafTable<ForwardMappedPageTable, 256> {
 public:
  static constexpr unsigned kNumLevels = 7;
  // Bits consumed per level, leaf (level 1) first.
  static constexpr std::array<unsigned, kNumLevels> kLevelBits = {8, 8, 8, 8, 8, 8, 4};
  static constexpr unsigned kLeafEntries = 1u << kLevelBits[0];
  static_assert(kLeafEntries * kWordBytes == kLeafBytes);

  struct Options {
    // Store block-sized (and larger, level-aligned) superpages in
    // intermediate PTP slots instead of replicating at leaf sites.  Only
    // sizes equal to a full subtree's coverage qualify (e.g. 2^8 pages =
    // 1MB); other sizes still replicate.
    bool intermediate_superpages = false;
  };

  ForwardMappedPageTable(mem::CacheTouchModel& cache, Options opts);
  ~ForwardMappedPageTable() override;

  [[nodiscard]] CPT_HOT std::optional<TlbFill> Lookup(VirtAddr va) override;
  CPT_HOT void LookupBlock(VirtAddr va, unsigned subblock_factor,
                           std::vector<TlbFill>& out) override;
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) override;
  bool RemoveSuperpage(Vpn base_vpn, PageSize size) override;
  CPT_HOT std::optional<Attr> UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                              std::uint16_t clear_mask) override;
  std::uint64_t SizeBytesPaperModel() const override;
  std::uint64_t SizeBytesActual() const override;
  std::string name() const override { return "forward-mapped"; }

  // Active node counts per level (leaf first), for the size formulae.
  std::array<std::uint64_t, kNumLevels> ActiveNodesPerLevel() const;

  // The leaf layer's views, then one single-word view per intermediate
  // superpage at its level, `sub_log2` the level's coverage.
  void AuditVisit(check::PtAuditVisitor& visitor) const override;

 private:
  friend class check::TestBackdoor;
  friend ReplicatedLeafTable;

  struct Inner {
    PhysAddr addr{};
    std::uint32_t children = 0;
    // Intermediate-superpage words keyed by slot index (extension).
    std::unordered_map<unsigned, AtomicMappingWord> super_slots;
  };
  static_assert(sizeof(Inner) == 72 && alignof(Inner) == 8);

  static constexpr unsigned ShiftOfLevel(unsigned level) {
    unsigned shift = 0;
    for (unsigned l = 1; l < level; ++l) {
      shift += kLevelBits[l - 1];
    }
    return shift;
  }
  // Tree coordinates deliberately erase the domain: each level consumes a
  // fixed VPN field as a slot index, and the remaining high bits key the
  // node maps.  These are the only crossings from Vpn to tree coordinates.
  static constexpr unsigned IndexAt(Vpn vpn, unsigned level) {
    return static_cast<unsigned>((vpn.raw() >> ShiftOfLevel(level)) &
                                 ((1u << kLevelBits[level - 1]) - 1));
  }
  static constexpr std::uint64_t PrefixAt(Vpn vpn, unsigned level) {
    return vpn.raw() >> (ShiftOfLevel(level) + kLevelBits[level - 1]);
  }
  static constexpr std::uint64_t NodeBytesOfLevel(unsigned level) {
    return (std::uint64_t{1} << kLevelBits[level - 1]) * 8;
  }

  // Leaf-layer hooks: a leaf's creation and release add or drop it as a
  // child of its inner-node path, creating or freeing inner nodes.
  void OnLeafAdded(Vpn vpn);
  void OnLeafFreed(Vpn vpn);
  // Ensures the node at `level` (and its ancestors) exists, then stores an
  // intermediate superpage word in its PTP slot.
  void AddIntermediateSuper(Vpn vpn, unsigned level, MappingWord word);
  // Frees the node at `level` if it has no children and no super slots,
  // cascading upward.
  void MaybeFreeInner(Vpn vpn, unsigned level);

  Options opts_;
  // Levels 2..7: prefix -> Inner (level 7's only prefix is 0).
  std::array<std::unordered_map<std::uint64_t, Inner>, kNumLevels + 1> inner_;
};

}  // namespace cpt::pt
