// Operating-system substrate: demand paging, physical placement, and
// page-size assignment.
//
// The paper's evaluation depends on two OS mechanisms (Section 6.1):
//   1. page reservation — the physical allocator tries to place the pages of
//      one virtual page block into one aligned physical block
//      (mem::ReservationAllocator);
//   2. dynamic page-size assignment — a policy that chooses between 4KB base
//      pages and 64KB superpages (or partial-subblock PTEs) per page block.
//
// AddressSpace ties them together: a fault allocates a frame, records block
// state, and maintains the page table in the configured PTE strategy:
//   - kBaseOnly:         every page gets a base PTE (single-page-size system);
//   - kSuperpage:        base PTEs accumulate; when a block becomes fully
//                        resident and properly placed it is *promoted* — base
//                        PTEs are replaced by one superpage PTE;
//   - kPartialSubblock:  properly-placed pages join the block's PSB PTE
//                        incrementally; non-placed pages fall back to base
//                        PTEs.
// Unmapping demotes: a superpage PTE is split back into base PTEs for the
// still-resident pages; a PSB vector shrinks.
//
// Apart from the page-table writes it models, a fault costs O(1) host work:
// a repeat fault in the last faulted block skips the block-map lookup, a new
// block's state is one map node with its frames inline, and that state holds
// the block's reservation handle, so the frame allocator finds the block's
// reserved group without a lookup of its own.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <unordered_map>

#include "check/fwd.h"
#include "common/check.h"
#include "common/pte.h"
#include "common/types.h"
#include "mem/reservation.h"
#include "pt/page_table.h"

namespace cpt::os {

enum class PteStrategy : std::uint8_t {
  kBaseOnly,
  kSuperpage,
  kPartialSubblock,
};

struct AddressSpaceOptions {
  PteStrategy strategy = PteStrategy::kBaseOnly;
  unsigned subblock_factor = kDefaultSubblockFactor;
  Attr default_attr = Attr::ReadWrite();
};

class AddressSpace {
 public:
  struct Stats {
    std::uint64_t faults = 0;
    std::uint64_t promotions = 0;        // Base-PTE blocks promoted to superpages.
    std::uint64_t demotions = 0;         // Superpages split back to base PTEs.
    std::uint64_t psb_updates = 0;       // PSB vector grow/shrink operations.
    std::uint64_t placement_failures = 0;  // Frames granted without placement.
    std::uint64_t oom_faults = 0;        // Faults dropped: out of memory.
  };

  // How the blocks of this address space are currently mapped, for the
  // fss ("fraction superpage/subblock") measurements of Figure 10.
  struct BlockCensus {
    std::uint64_t base_blocks = 0;   // Blocks mapped by base PTEs only.
    std::uint64_t super_blocks = 0;  // Blocks mapped by one superpage PTE.
    std::uint64_t psb_blocks = 0;    // Blocks with a partial-subblock PTE.
    std::uint64_t mixed_blocks = 0;  // PSB PTE plus base PTEs for stragglers.
  };

  // `id` must be unique among address spaces sharing `frames` (it salts the
  // reservation keys).  The table and frame allocator must outlive this.
  AddressSpace(std::uint32_t id, pt::PageTable& table, mem::ReservationAllocator& frames,
               AddressSpaceOptions opts);
  ~AddressSpace();
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // Demand-fault entry point: makes va's page resident and mapped.
  // Returns false when physical memory is exhausted (the block's state is
  // still created, with no page resident).
  //
  // Page faults are OS work, excluded from the steady-state replay path the
  // same way AbortWalk discards the walk's line count (common/hotpath.h);
  // Preload() pre-faulting keeps replays off this path entirely.  Preload
  // itself is nothing but this call, so it is compiled for speed.
  bool TouchPage(VirtAddr va);

  bool IsResident(Vpn vpn) const;

  // Unmaps [first_vpn, first_vpn + npages), freeing frames and PTEs,
  // demoting superpage/PSB PTEs as needed.
  void UnmapRange(Vpn first_vpn, std::uint64_t npages);

  std::uint64_t resident_pages() const { return resident_pages_; }
  const Stats& stats() const { return stats_; }
  BlockCensus Census() const;
  pt::PageTable& table() { return table_; }
  unsigned subblock_factor() const { return factor_; }
  PteStrategy strategy() const { return opts_.strategy; }

 private:
  friend class check::TestBackdoor;

  // The per-block masks are 32-bit, which caps the subblock factor (the
  // frame allocator's groups share the cap).
  static constexpr unsigned kMaxBlockPages = 32;

  struct BlockState {
    std::uint32_t resident_mask = 0;
    std::uint32_t placed_mask = 0;       // Pages granted properly placed.
    // Per-slot frame numbers, inline so a new block costs one map node.
    // A PPN is 28 bits, so 32 bits hold it and halve the node.
    std::array<std::uint32_t, kMaxBlockPages> frames{};
    // The block's reservation handle (mem::ReservationAllocator::Allocate).
    // It cannot outlive the reservation it names: the state is erased with
    // the block's last frame, which frees a still-reserved group.
    mem::ReservationAllocator::GroupId reservation = mem::ReservationAllocator::kNoGroup;
    bool promoted = false;               // One superpage PTE covers the block.
    bool has_psb_pte = false;            // A PSB PTE covers placed pages.

    Ppn ppn(unsigned slot) const { return Ppn{frames[slot]}; }
    void set_ppn(unsigned slot, Ppn ppn) { frames[slot] = static_cast<std::uint32_t>(ppn.raw()); }
  };
  static_assert(PpnTag::kMaxRaw <= UINT32_MAX, "BlockState::frames holds a PPN in 32 bits");

  // Reservation keys deliberately erase the domain: the allocator keys
  // reservations by a salted integer, not by VPBN.
  std::uint64_t ReservationKey(Vpbn vpbn) const {
    return (std::uint64_t{id_} << 48) ^ vpbn.raw();
  }
  Vpn BlockFirstVpn(Vpbn vpbn) const { return FirstVpnOfBlock(vpbn, factor_); }
  // The block's aligned physical base, valid when any page is placed.
  static Ppn BlockPpnBase(const BlockState& b) {
    CPT_DCHECK(b.placed_mask != 0);
    const auto slot = static_cast<unsigned>(std::countr_zero(b.placed_mask));
    return b.ppn(slot) - slot;
  }
  void MapNewPage(Vpbn vpbn, BlockState& block, unsigned boff, bool placed);
  void MaybePromote(Vpbn vpbn, BlockState& block);
  void UnmapOnePage(Vpn vpn);

  std::uint32_t id_;
  pt::PageTable& table_;
  mem::ReservationAllocator& frames_;
  AddressSpaceOptions opts_;
  unsigned factor_;
  PageSize block_size_;
  std::unordered_map<Vpbn, BlockState> blocks_;
  // The block of the last TouchPage: most faults land in the same block as
  // the one before, so they skip the hash lookup.  unordered_map element
  // pointers survive rehashing; the one blocks_.erase clears it.
  Vpbn last_vpbn_{};
  BlockState* last_block_ = nullptr;
  std::uint64_t resident_pages_ = 0;
  Stats stats_;
};

}  // namespace cpt::os
