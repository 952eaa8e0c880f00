// Test-only corruption seeding for the invariant auditor.
//
// The corruption tests must prove that StructuralAuditor actually detects
// broken invariants, which requires breaking them on purpose.  Every audited
// class friends check::TestBackdoor (declared in check/fwd.h) so the damage
// can be done surgically — bypassing the public API, which is designed to
// make these states unreachable.
//
// Each helper returns true when it found live state to corrupt; tests should
// ASSERT_TRUE the return value so an empty table never silently passes.
//
// This header must only be included from test code; it is never part of
// the simulator proper.
#pragma once

#include <cstdint>
#include <optional>

#include "mem/reservation.h"
#include "os/address_space.h"
#include "pt/chain.h"
#include "pt/forward.h"
#include "pt/hashed.h"
#include "pt/linear.h"

namespace cpt::check {

class TestBackdoor {
 public:
  // Bumps the first live node's base_vpn by one tag stride so that
  // base_vpn >> tag_shift no longer matches the node's key — the
  // "misaligned tag" defect.
  static bool CorruptHashedBaseVpn(pt::HashedPageTable& table) {
    pt::ChainArena<pt::HashedNode>& chains = table;
    for (const std::int32_t head : chains.buckets_) {
      if (head != pt::kChainEnd) {
        chains.arena_[head].base_vpn += std::uint64_t{1} << table.tag_shift();
        return true;
      }
    }
    return false;
  }

  // Clones the head node of the first non-empty chain of a chained table and
  // links the clone in front of it, so the cloned node's pages are covered
  // twice.  The node count follows; the table's translation and byte totals
  // do not, so the audit reports their recounts too.
  template <typename Node>
  static bool SeedDuplicateCoverage(pt::ChainArena<Node>& chains) {
    for (std::uint32_t b = 0; b < chains.buckets_.size(); ++b) {
      const std::int32_t head = chains.buckets_[b];
      if (head == pt::kChainEnd) {
        continue;
      }
      const Node original = chains.arena_[head];
      Node& clone = chains.arena_[chains.LinkNewSlot(b)];
      const std::int32_t next = clone.next;
      clone = original;
      clone.next = next;
      return true;
    }
    return false;
  }

  // Points the tail of the first non-empty chain of a chained table back at
  // its head, turning the chain into a cycle (a self-loop when the chain has
  // one node).
  template <typename Node>
  static bool SeedChainCycle(pt::ChainArena<Node>& chains) {
    for (const std::int32_t head : chains.buckets_) {
      if (head == pt::kChainEnd) {
        continue;
      }
      std::int32_t tail = head;
      while (chains.arena_[tail].next != pt::kChainEnd) {
        tail = chains.arena_[tail].next;
      }
      chains.arena_[tail].next = head;
      return true;
    }
    return false;
  }

  // Clears one used bit in the first group that has any, so the per-group
  // masks no longer sum to frames_used().
  static bool CorruptReservationMask(mem::ReservationAllocator& alloc) {
    for (auto& group : alloc.groups_) {
      if (group.used_mask != 0) {
        group.used_mask &= group.used_mask - 1;  // Drop lowest set bit.
        return true;
      }
    }
    return false;
  }

  // Pushes the lowest never-granted group onto the recycled-group stack, so
  // the free list names it twice.
  static bool DuplicateFreeGroup(mem::ReservationAllocator& alloc) {
    if (alloc.groups_.size() >= alloc.num_groups()) {
      return false;
    }
    alloc.free_groups_.push_back(alloc.groups_.size());
    return true;
  }

  // Gives the second reserved group the first one's owner, so two groups are
  // reserved for one virtual block.
  static bool DuplicateReservationOwner(mem::ReservationAllocator& alloc) {
    mem::ReservationAllocator::Group* first = nullptr;
    for (auto& group : alloc.groups_) {
      if (group.state != mem::ReservationAllocator::GroupState::kReserved) {
        continue;
      }
      if (first == nullptr) {
        first = &group;
      } else {
        group.owner_key = first->owner_key;
        return true;
      }
    }
    return false;
  }

  // Rewrites the first logged grant to claim proper placement at a slot
  // offset the frame cannot occupy, so the grant-placement audit fires.
  // Requires EnableGrantLog() before the grant was made.
  static bool MisplaceGrant(mem::ReservationAllocator& alloc) {
    for (auto& [ppn, record] : alloc.live_grants_) {
      record.properly_placed = true;
      // Slot arithmetic deliberately erases the domain, mirroring the
      // allocator's frame-group bookkeeping.
      record.boff = static_cast<unsigned>((ppn.raw() + 1) % alloc.factor_);
      return true;
    }
    return false;
  }

  // Bumps the first leaf's live-slot counter of a linear or forward-mapped
  // table, so it no longer matches the leaf's occupied slots.
  template <typename Table, unsigned kLeafSlots>
  static bool SkewLeafLiveCount(pt::ReplicatedLeafTable<Table, kLeafSlots>& table) {
    if (table.leaves_.empty()) {
      return false;
    }
    ++table.leaves_.begin()->second.live;
    return true;
  }

  // Adds one to a linear or forward-mapped table's translation count.
  template <typename Table, unsigned kLeafSlots>
  static void SkewLiveTranslations(pt::ReplicatedLeafTable<Table, kLeafSlots>& table) {
    ++table.live_translations_;
  }

  // Adds a level-2 node that no leaf or intermediate superpage lies under.
  static void AddOrphanLevel2Node(pt::LinearPageTable& table) {
    table.upper_[2][~std::uint64_t{0}] = 1;
  }
  static void AddOrphanLevel2Node(pt::ForwardMappedPageTable& table) {
    table.inner_[2].try_emplace(~std::uint64_t{0});
  }

  // The frame the address space granted to resident page `vpn`, read from
  // its block state rather than through the page table; nullopt when the
  // page is not resident.
  static std::optional<Ppn> GrantedFrame(const os::AddressSpace& as, Vpn vpn) {
    const auto it = as.blocks_.find(VpbnOf(vpn, as.factor_));
    const unsigned boff = BoffOf(vpn, as.factor_);
    if (it == as.blocks_.end() || ((it->second.resident_mask >> boff) & 1u) == 0) {
      return std::nullopt;
    }
    return it->second.ppn(boff);
  }
};

}  // namespace cpt::check
