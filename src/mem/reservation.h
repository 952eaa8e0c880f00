// Page-reservation physical memory allocator.
//
// Superpages and partial-subblock TLB entries require *properly placed*
// pages: the physical frame of base page `boff` within a page block must be
// frame `block_base + boff` of an aligned physical block.  The paper relies
// on the page-reservation algorithm of [Tall94]: on the first fault within a
// virtual page block, reserve an entire aligned physical frame block and
// place each subsequently-faulted page of that virtual block at its matching
// slot.  Under memory pressure, reservations are broken and their unused
// frames handed out individually (losing proper placement for new mappings).
//
// This class implements that algorithm over a pool of frames grouped into
// aligned blocks of `subblock_factor` frames.  The caller keeps each virtual
// block's reservation handle (a group id) with the block's own state, so a
// fault in a reserved block is granted from the group the handle names,
// without a lookup by block.
//
// Under pressure two rules keep the placement exact:
//   - a block whose reservation was broken gets unplaced frames from then on
//     (its placed pages sit in the broken group, so a placed frame in any
//     other group would split the block across two physical blocks), until
//     that group empties;
//   - reservations are broken least-recently-reserved first.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/fwd.h"
#include "common/check.h"
#include "common/types.h"
#include "obs/trace.h"

namespace cpt::mem {

class ReservationAllocator {
 public:
  // `num_frames` is rounded down to a whole number of blocks.
  ReservationAllocator(std::uint64_t num_frames, unsigned subblock_factor);

  struct FrameGrant {
    Ppn ppn{};
    // True when ppn == block_base + boff within an aligned block reserved
    // for this virtual page block, i.e. the page is properly placed.
    bool properly_placed = false;
  };

  // A virtual block's handle on its reservation: the id of the group last
  // reserved for it, or kNoGroup before its first grant.  The caller keeps
  // one handle per block and passes it to every Allocate for that block.
  using GroupId = std::uint32_t;
  static constexpr GroupId kNoGroup = ~GroupId{0};

  // Allocates a frame for base page `boff` of the virtual page block
  // identified by `block_key` (an (address space, VPBN) key chosen by the
  // caller), whose handle is `group`.  The same (block_key, boff) must not
  // be allocated twice without an intervening Free.  Returns nullopt when
  // physical memory is exhausted.  The handle names the block's reservation
  // exactly when that group is reserved with this owner: then the matching
  // slot is granted here, inline.  Otherwise a fresh reservation is made and
  // written to `group`, or an unplaced frame is granted.
  // The key is opaque to the allocator, deliberately raw.
  // cpt-lint: allow(raw-address-param)
  std::optional<FrameGrant> Allocate(std::uint64_t block_key, unsigned boff, GroupId& group) {
    CPT_DCHECK(boff < factor_);
    if (group < groups_.size()) {
      Group& grp = groups_[group];
      if (grp.state == GroupState::kReserved && grp.owner_key == block_key) {
        const std::uint32_t bit = 1u << boff;
        CPT_DCHECK((grp.used_mask & bit) == 0, "double allocation of (block, boff)");
        grp.used_mask |= bit;
        return Grant(FrameAt(group, boff), block_key, boff, /*properly_placed=*/true);
      }
    }
    return AllocateMiss(block_key, boff, group);
  }

  // Releases a frame previously granted.
  void Free(Ppn ppn);

  unsigned subblock_factor() const { return factor_; }
  std::uint64_t num_frames() const { return num_frames_; }
  std::uint64_t frames_used() const { return frames_used_; }
  std::uint64_t frames_free() const { return num_frames_ - frames_used_; }

  // Diagnostics for the evaluation: how often placement succeeded.
  std::uint64_t grants() const { return grants_; }
  std::uint64_t properly_placed_grants() const { return placed_grants_; }
  std::uint64_t reservations_made() const { return reservations_made_; }
  std::uint64_t reservations_broken() const { return reservations_broken_; }

  // ---- Telemetry (src/obs) ----

  // Publishes one kReservationGrant event per Allocate() through the tracer
  // (value = properly placed).  Null tracer (default) costs one branch.
  void set_tracer(obs::WalkTracer* tracer) { tracer_ = tracer; }

  // ---- Invariant auditing (src/check) ----

  // Records every outstanding grant so the auditor can verify that granted
  // frames are marked used and that properly-placed grants really sit at
  // block_base + boff.  Off by default (it costs a hash insert per grant).
  void EnableGrantLog() { grant_log_enabled_ = true; }
  bool grant_log_enabled() const { return grant_log_enabled_; }

  // Reports every group, free-list entry, fragment-pool frame, and (when the
  // grant log is on) outstanding grant.
  void AuditVisit(check::ReservationAuditVisitor& visitor) const;

 private:
  friend class check::TestBackdoor;

  enum class GroupState : std::uint8_t {
    kFree,        // No frame in use, not reserved.
    kReserved,    // Reserved for one virtual page block; slots map 1:1.
    kFragmented,  // Reservation broken; free slots handed out individually.
  };

  struct Group {
    GroupState state = GroupState::kFree;
    std::uint32_t used_mask = 0;   // Bit per slot.
    // The block the group was last reserved for, kept when the reservation
    // is broken so that block's handle still finds it; for a free group
    // fragmented by FragmentFreeGroup, the block it was fragmented for.
    std::uint64_t owner_key = 0;
    std::uint64_t reservation = 0;  // Sequence number of that reservation.
  };

  // A reservation in the steal queue; stale once its group is no longer
  // reserved under the same sequence number.
  struct FifoEntry {
    std::uint64_t group;
    std::uint64_t reservation;
  };

  std::uint64_t num_groups() const { return num_frames_ / factor_; }
  // Frame-group arithmetic unwraps the PPN. // cpt-lint: allow(raw-address-param)
  std::uint64_t GroupOf(Ppn ppn) const { return ppn.raw() / factor_; }
  unsigned SlotOf(Ppn ppn) const { return static_cast<unsigned>(ppn.raw() % factor_); }
  Ppn FrameAt(std::uint64_t group, unsigned slot) const { return Ppn{group * factor_ + slot}; }

  // Allocate() when the handle names no reservation of this block.
  // cpt-lint: allow(raw-address-param): same opaque key as Allocate().
  std::optional<FrameGrant> AllocateMiss(std::uint64_t block_key, unsigned boff, GroupId& group);

  // Counts and logs a grant of `ppn`, already marked used in its group.
  // cpt-lint: allow(raw-address-param): same opaque key as Allocate().
  FrameGrant Grant(Ppn ppn, std::uint64_t block_key, unsigned boff, bool properly_placed) {
    ++frames_used_;
    ++grants_;
    placed_grants_ += properly_placed ? 1 : 0;
    if (tracer_ != nullptr || grant_log_enabled_) {
      RecordGrant(ppn, block_key, boff, properly_placed);
    }
    return FrameGrant{ppn, properly_placed};
  }

  bool HasFreeGroup() const { return !free_groups_.empty() || groups_.size() < num_groups(); }
  // Takes a free group: a recycled one if any (the last freed first), else
  // the lowest never-granted one.
  std::uint64_t TakeFreeGroup();
  // Moves group g's unused slots to the fragment pool.
  void PoolUnusedSlots(std::uint64_t g);

  // Breaks the least-recently-reserved reservation, moving its unused slots
  // to the fragment pool.  Returns false if there is nothing to break.
  bool BreakOneReservation();
  // Fragments a free group for a block that may not be placed, moving all
  // its slots to the fragment pool.  Returns false if no group is free.
  // cpt-lint: allow(raw-address-param): same opaque key as Allocate().
  bool FragmentFreeGroup(std::uint64_t block_key);

  // Publishes a grant to the tracer and the grant log.
  // cpt-lint: allow(raw-address-param): same opaque key as Allocate().
  void RecordGrant(Ppn ppn, std::uint64_t block_key, unsigned boff, bool properly_placed);

  unsigned factor_;
  std::uint64_t num_frames_;
  std::uint64_t frames_used_ = 0;
  // Created on first grant, in ascending order: groups_.size() is the
  // lowest never-granted group, and every group from there up is free.
  std::vector<Group> groups_;
  std::vector<std::uint64_t> free_groups_;  // Stack of recycled kFree ids.
  std::deque<FifoEntry> reservation_fifo_;  // Steal victims, oldest first.
  std::vector<Ppn> fragment_pool_;          // Individually-free frames.

  std::uint64_t grants_ = 0;
  std::uint64_t placed_grants_ = 0;
  std::uint64_t reservations_made_ = 0;
  std::uint64_t reservations_broken_ = 0;

  struct GrantRecord {
    std::uint64_t block_key = 0;
    unsigned boff = 0;
    bool properly_placed = false;
  };
  bool grant_log_enabled_ = false;
  std::unordered_map<Ppn, GrantRecord> live_grants_;  // Grant-log entries.
  obs::WalkTracer* tracer_ = nullptr;
};

}  // namespace cpt::mem
