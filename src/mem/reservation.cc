#include "mem/reservation.h"

#include <bit>

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::mem {

ReservationAllocator::ReservationAllocator(std::uint64_t num_frames, unsigned subblock_factor)
    : factor_(subblock_factor), num_frames_((num_frames / subblock_factor) * subblock_factor) {
  CPT_CHECK(IsPowerOfTwo(subblock_factor) && subblock_factor <= 32,
            "group masks are 32-bit");
  CPT_CHECK(num_frames_ > 0);
  CPT_CHECK(num_groups() < kNoGroup, "group ids fit a GroupId");
}

std::optional<ReservationAllocator::FrameGrant> ReservationAllocator::AllocateMiss(
    std::uint64_t block_key, unsigned boff, GroupId& group) {
  if (frames_used_ == num_frames_) {
    return std::nullopt;
  }

  // 1. Reserve a free aligned group for this virtual block, unless the
  //    handle names the block's broken reservation: its placed pages sit
  //    there, so it is granted only unplaced frames (step 2).
  const bool broken = group < groups_.size() &&
                      groups_[group].state == GroupState::kFragmented &&
                      groups_[group].owner_key == block_key;
  if (!broken && HasFreeGroup()) {
    const std::uint64_t g = TakeFreeGroup();
    Group& grp = groups_[g];
    grp.state = GroupState::kReserved;
    grp.owner_key = block_key;
    grp.reservation = reservations_made_;
    grp.used_mask = 1u << boff;
    // Fault path only: frames are granted while faulting, which Preload()
    // front-loads; the replay steady state never reaches here.
    reservation_fifo_.push_back({g, reservations_made_});
    ++reservations_made_;
    group = static_cast<GroupId>(g);
    return Grant(FrameAt(g, boff), block_key, boff, /*properly_placed=*/true);
  }

  // 2. Draw from the fragment pool, refilling it from a free group (only a
  //    broken block gets here with one) or else by breaking the oldest
  //    reservation.  The frame is (almost surely) not properly placed for
  //    this virtual block.  Pool entries can go stale (their group fully
  //    emptied and was recycled, or a duplicate entry's frame was already
  //    granted), so validate on pop.
  for (;;) {
    while (fragment_pool_.empty()) {
      if (!FragmentFreeGroup(block_key) && !BreakOneReservation()) {
        return std::nullopt;  // All frames genuinely in use.
      }
    }
    const Ppn ppn = fragment_pool_.back();
    fragment_pool_.pop_back();
    Group& grp = groups_[GroupOf(ppn)];
    const std::uint32_t bit = 1u << SlotOf(ppn);
    if (grp.state != GroupState::kFragmented || (grp.used_mask & bit) != 0) {
      continue;  // Stale entry.
    }
    grp.used_mask |= bit;
    return Grant(ppn, block_key, boff, /*properly_placed=*/false);
  }
}

std::uint64_t ReservationAllocator::TakeFreeGroup() {
  if (!free_groups_.empty()) {
    const std::uint64_t g = free_groups_.back();
    free_groups_.pop_back();
    return g;
  }
  // Fault path only, like the fifo push in AllocateMiss: the pool grows as
  // groups are first granted instead of being built whole up front.
  groups_.emplace_back();
  return groups_.size() - 1;
}

void ReservationAllocator::PoolUnusedSlots(std::uint64_t g) {
  for (unsigned slot = 0; slot < factor_; ++slot) {
    if ((groups_[g].used_mask & (1u << slot)) == 0) {
      // Fault path only (see AllocateMiss); never on the replay steady state.
      fragment_pool_.push_back(FrameAt(g, slot));
    }
  }
}

void ReservationAllocator::RecordGrant(Ppn ppn, std::uint64_t block_key, unsigned boff,
                                       bool properly_placed) {
  if (tracer_ != nullptr) {
    tracer_->Record({.kind = obs::EventKind::kReservationGrant,
                     .vpn = Vpn{block_key},  // Grant events carry the caller's block key.
                     .step = boff,
                     .value = properly_placed ? 1u : 0u});
  }
  if (grant_log_enabled_) {
    live_grants_[ppn] = GrantRecord{block_key, boff, properly_placed};
  }
}

bool ReservationAllocator::BreakOneReservation() {
  while (!reservation_fifo_.empty()) {
    const FifoEntry victim = reservation_fifo_.front();
    reservation_fifo_.pop_front();
    Group& grp = groups_[victim.group];
    if (grp.state != GroupState::kReserved || grp.reservation != victim.reservation) {
      continue;  // Stale entry: that reservation was already released or broken.
    }
    grp.state = GroupState::kFragmented;
    ++reservations_broken_;
    PoolUnusedSlots(victim.group);
    if (!fragment_pool_.empty()) {
      return true;
    }
    // A fully-used reservation yielded no frames; keep breaking.
  }
  return false;
}

bool ReservationAllocator::FragmentFreeGroup(std::uint64_t block_key) {
  if (!HasFreeGroup()) {
    return false;
  }
  const std::uint64_t g = TakeFreeGroup();
  Group& grp = groups_[g];
  grp.state = GroupState::kFragmented;
  // A handle left from the group's last reservation must not take the group
  // for its block's broken reservation.  The requesting block's handle names
  // another group, so owning the group by it matches no handle.
  grp.owner_key = block_key;
  PoolUnusedSlots(g);
  return true;
}

void ReservationAllocator::Free(Ppn ppn) {
  // Range check on the raw frame index, matching GroupOf/SlotOf's crossing.
  CPT_DCHECK(ppn.raw() < num_frames_);
  const std::uint64_t g = GroupOf(ppn);
  CPT_DCHECK(g < groups_.size(), "freeing a frame of a never-granted group");
  Group& grp = groups_[g];
  const std::uint32_t bit = 1u << SlotOf(ppn);
  CPT_DCHECK((grp.used_mask & bit) != 0, "freeing an unallocated frame");
  grp.used_mask &= ~bit;
  --frames_used_;
  if (grant_log_enabled_) {
    live_grants_.erase(ppn);
  }
  if (grp.used_mask != 0) {
    if (grp.state == GroupState::kFragmented) {
      // Unmap/teardown path only; never on the replay steady state.
      fragment_pool_.push_back(ppn);
    }
    return;
  }
  // A reserved group's fifo entry becomes stale and is skipped by
  // BreakOneReservation; handles naming the group no longer match.
  grp.state = GroupState::kFree;
  // Unmap/teardown path only, like the fragment-pool push above.
  free_groups_.push_back(g);
}

void ReservationAllocator::AuditVisit(check::ReservationAuditVisitor& visitor) const {
  for (std::uint64_t g = 0; g < num_groups(); ++g) {
    // Groups never granted are free.
    const Group grp = g < groups_.size() ? groups_[g] : Group{};
    check::ReservationGroupView view;
    view.group = g;
    switch (grp.state) {
      case GroupState::kFree:
        view.state = check::GroupStateView::kFree;
        break;
      case GroupState::kReserved:
        view.state = check::GroupStateView::kReserved;
        break;
      case GroupState::kFragmented:
        view.state = check::GroupStateView::kFragmented;
        break;
    }
    view.owner_key = grp.owner_key;
    view.used_mask = grp.used_mask;
    visitor.OnGroup(view);
  }
  // The free list is the recycled stack plus every never-granted group.
  for (const std::uint64_t g : free_groups_) {
    visitor.OnFreeListGroup(g);
  }
  for (std::uint64_t g = groups_.size(); g < num_groups(); ++g) {
    visitor.OnFreeListGroup(g);
  }
  for (const Ppn ppn : fragment_pool_) {
    visitor.OnFragmentFrame(ppn);
  }
  if (grant_log_enabled_) {
    for (const auto& [ppn, rec] : live_grants_) {
      visitor.OnGrant(ppn, rec.block_key, rec.boff, rec.properly_placed);
    }
  }
}

}  // namespace cpt::mem
