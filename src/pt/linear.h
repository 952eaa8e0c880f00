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
// The leaf pages, and the Replicate-PTEs strategy for superpage and
// partial-subblock PTEs (Section 4.2), are the shared leaf layer of
// pt/replicate.h; this class adds the upper-level refcounts and the size
// models.
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

class LinearPageTable final
    : public ReplicatedLeafTable<LinearPageTable, kBasePageSize / kWordBytes> {
 public:
  static constexpr unsigned kPtesPerPage = kBasePageSize / kWordBytes;  // 512
  static constexpr unsigned kBitsPerLevel = 9;
  static constexpr unsigned kNumLevels = 6;  // ceil(52 / 9)
  // Bits consumed per level, leaf (level 1) first.
  static constexpr std::array<unsigned, kNumLevels> kLevelBits = {9, 9, 9, 9, 9, 9};

  enum class SizeModel : std::uint8_t {
    kSixLevel,     // Charge every level of the 6-level tree.
    kOneLevel,     // Charge leaf pages only (optimistic "1-level" series).
    kHashedUpper,  // Leaf pages + one 24-byte hashed PTE per leaf, holding
                   // the translations to the page table itself (Table 2's
                   // "Linear with Hashed" row; Section 7's practical form).
  };

  struct Options {
    SizeModel size_model = SizeModel::kSixLevel;
  };

  LinearPageTable(mem::CacheTouchModel& cache, Options opts);
  ~LinearPageTable() override;

  // Each walk reads one leaf PTE: walk step 1.
  [[nodiscard]] CPT_HOT std::optional<TlbFill> Lookup(VirtAddr va) override {
    const Vpn vpn = VpnOf(va);
    WalkRecorder rec(cache_, vpn);
    return ReadLeaf(vpn, rec);
  }
  CPT_HOT void LookupBlock(VirtAddr va, unsigned subblock_factor,
                           std::vector<TlbFill>& out) override {
    ReadLeafBlock(FirstVpnOfBlock(VpbnOf(VpnOf(va), subblock_factor), subblock_factor),
                  subblock_factor, out);
  }
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) override;
  bool RemoveSuperpage(Vpn base_vpn, PageSize size) override;
  CPT_HOT std::optional<Attr> UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                              std::uint16_t clear_mask) override {
    return UpdateLeafAttrFlags(vpn, set_mask, clear_mask);
  }
  std::uint64_t SizeBytesPaperModel() const override;
  std::uint64_t SizeBytesActual() const override;
  std::string name() const override;

  // Tree-node counts per level (level 1 = leaves), for the size formulae.
  std::array<std::uint64_t, kNumLevels> ActiveNodesPerLevel() const;

 private:
  friend class check::TestBackdoor;
  friend ReplicatedLeafTable;

  // Leaf-layer hooks: a leaf page's creation and release move the refcounts
  // of its ancestors at levels 2..6.
  void OnLeafAdded(Vpn vpn);
  void OnLeafFreed(Vpn vpn);

  Options opts_;
  // Refcounts of active intermediate nodes, levels 2..6 (index 0 unused,
  // index 1 unused; level i keyed by vpn >> (9*i), a domain-erased index).
  std::array<std::unordered_map<std::uint64_t, std::uint32_t>, kNumLevels + 1> upper_;
};

}  // namespace cpt::pt
