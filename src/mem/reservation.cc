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
}

std::optional<ReservationAllocator::FrameGrant> ReservationAllocator::Allocate(
    std::uint64_t block_key, unsigned boff) {
  CPT_DCHECK(boff < factor_);
  if (frames_used_ == num_frames_) {
    return std::nullopt;
  }

  // 1. An existing reservation for this virtual block: use the matching slot.
  //    The group of the last grant is checked first; it is still this key's
  //    reservation exactly when it is reserved with this owner.
  std::uint64_t g = last_group_;
  if (g >= groups_.size() || groups_[g].state != GroupState::kReserved ||
      groups_[g].owner_key != block_key) {
    const auto it = by_owner_.find(block_key);
    g = it != by_owner_.end() ? it->second : kNoGroup;
  }
  if (g != kNoGroup) {
    Group& grp = groups_[g];
    CPT_DCHECK(grp.state == GroupState::kReserved && grp.owner_key == block_key);
    last_group_ = g;
    const std::uint32_t bit = 1u << boff;
    CPT_DCHECK((grp.used_mask & bit) == 0, "double allocation of (block, boff)");
    grp.used_mask |= bit;
    ++frames_used_;
    ++grants_;
    ++placed_grants_;
    const Ppn ppn = FrameAt(g, boff);
    RecordGrant(ppn, block_key, boff, /*properly_placed=*/true);
    return FrameGrant{ppn, true};
  }

  // 2. Reserve a free aligned group for this virtual block: a recycled one
  //    if any (the last freed first), else the lowest never-granted one.
  if (!free_groups_.empty() || groups_.size() < num_groups()) {
    g = groups_.size();
    if (!free_groups_.empty()) {
      g = free_groups_.back();
      free_groups_.pop_back();
    } else {
      // Fault path only, like the fifo push below: the pool grows as groups
      // are first granted instead of being built whole up front.
      groups_.emplace_back();
    }
    Group& grp = groups_[g];
    grp.state = GroupState::kReserved;
    grp.owner_key = block_key;
    grp.used_mask = 1u << boff;
    by_owner_.emplace(block_key, g);
    last_group_ = g;
    // Fault path only: frames are granted while faulting, which Preload()
    // front-loads; the replay steady state never reaches here.
    reservation_fifo_.push_back(g);
    ++reservations_made_;
    ++frames_used_;
    ++grants_;
    ++placed_grants_;
    const Ppn ppn = FrameAt(g, boff);
    RecordGrant(ppn, block_key, boff, /*properly_placed=*/true);
    return FrameGrant{ppn, true};
  }

  // 3. Memory pressure: draw from the fragment pool, breaking reservations
  //    as needed.  The resulting frame is (almost surely) not properly
  //    placed for this virtual block.  Pool entries can go stale (their
  //    group fully emptied and was recycled, or a duplicate entry's frame
  //    was already granted), so validate on pop.
  for (;;) {
    while (fragment_pool_.empty()) {
      if (!BreakOneReservation()) {
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
    ++frames_used_;
    ++grants_;
    RecordGrant(ppn, block_key, boff, /*properly_placed=*/false);
    return FrameGrant{ppn, false};
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
    const std::uint64_t g = reservation_fifo_.front();
    reservation_fifo_.pop_front();
    Group& grp = groups_[g];
    if (grp.state != GroupState::kReserved) {
      continue;  // Stale entry: reservation already released or broken.
    }
    by_owner_.erase(grp.owner_key);
    grp.state = GroupState::kFragmented;
    ++reservations_broken_;
    for (unsigned slot = 0; slot < factor_; ++slot) {
      if ((grp.used_mask & (1u << slot)) == 0) {
        // Fault path only (see Allocate); never on the replay steady state.
        fragment_pool_.push_back(FrameAt(g, slot));
      }
    }
    if (!fragment_pool_.empty()) {
      return true;
    }
    // A fully-used reservation yielded no frames; keep breaking.
  }
  return false;
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
  if (grp.state == GroupState::kReserved) {
    // Its fifo entry becomes stale and is skipped by BreakOneReservation.
    by_owner_.erase(grp.owner_key);
  }
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
  for (const auto& [key, g] : by_owner_) {
    visitor.OnOwnerEntry(key, g);
  }
  if (grant_log_enabled_) {
    for (const auto& [ppn, rec] : live_grants_) {
      visitor.OnGrant(ppn, rec.block_key, rec.boff, rec.properly_placed);
    }
  }
}

}  // namespace cpt::mem
