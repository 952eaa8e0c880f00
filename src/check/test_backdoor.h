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
#include <utility>

#include "mem/reservation.h"
#include "os/address_space.h"
#include "pt/chain.h"
#include "pt/forward.h"
#include "pt/hashed.h"
#include "pt/linear.h"
#include "tlb/complete_subblock.h"
#include "tlb/dual_size_setassoc.h"
#include "tlb/partial_subblock.h"
#include "tlb/superpage.h"

namespace cpt::check {

class TestBackdoor {
 public:
  // Each chain helper below damages the first non-empty chain.

  // Bumps its head node's base_vpn by one tag stride so that
  // base_vpn >> tag_shift no longer matches the node's key — the
  // "misaligned tag" defect.
  static bool CorruptHashedBaseVpn(pt::HashedPageTable& table) {
    pt::ChainArena<pt::HashedNode>& chains = table;
    const std::uint32_t b = FirstChain(chains);
    if (b < chains.buckets_.size()) {
      chains.arena_[chains.buckets_[b]].base_vpn += std::uint64_t{1} << table.tag_shift();
    }
    return b < chains.buckets_.size();
  }

  // Clones its head node and links the clone in front of it, so the cloned
  // node's pages are covered twice.  The node count follows; the table's
  // translation and byte totals do not, so the audit reports their
  // recounts too.
  template <typename Node>
  static bool SeedDuplicateCoverage(pt::ChainArena<Node>& chains) {
    const std::uint32_t b = FirstChain(chains);
    if (b == chains.buckets_.size()) {
      return false;
    }
    const Node original = chains.arena_[chains.buckets_[b]];
    Node& clone = chains.arena_[chains.LinkNewSlot(b)];
    const std::int32_t next = clone.next;
    clone = original;
    clone.next = next;
    return true;
  }

  // Points its tail back at its head, turning the chain into a cycle (a
  // self-loop when the chain has one node).
  template <typename Node>
  static bool SeedChainCycle(pt::ChainArena<Node>& chains) {
    const std::uint32_t b = FirstChain(chains);
    if (b == chains.buckets_.size()) {
      return false;
    }
    std::int32_t tail = chains.buckets_[b];
    while (chains.arena_[tail].next != pt::kChainEnd) {
      tail = chains.arena_[tail].next;
    }
    chains.arena_[tail].next = chains.buckets_[b];
    return true;
  }

  // Moves its head node to the head of the next bucket's chain, so the node
  // hangs on a bucket its tag does not hash to.
  template <typename Node>
  static bool MoveHeadToNextBucket(pt::ChainArena<Node>& chains) {
    const std::uint32_t b = FirstChain(chains);
    if (b == chains.buckets_.size()) {
      return false;
    }
    const std::int32_t head = chains.buckets_[b];
    std::int32_t& next_head = chains.buckets_[(b + 1) % chains.buckets_.size()];
    chains.buckets_[b] = chains.arena_[head].next;
    chains.arena_[head].next = next_head;
    next_head = head;
    return true;
  }

  // Stores `word` at slot `word_idx` of its head node (a clustered or
  // adaptive table's).
  template <typename Node>
  static bool StoreHeadWord(pt::ChainArena<Node>& chains, unsigned word_idx, MappingWord word) {
    const std::uint32_t b = FirstChain(chains);
    if (b < chains.buckets_.size()) {
      chains.arena_[chains.buckets_[b]].words[word_idx].store(word);
    }
    return b < chains.buckets_.size();
  }

  // Adds `nodes` to a chained table's node count and `bytes` to its
  // paper-model bytes.
  template <typename Node>
  static void SkewChainCounts(pt::ChainArena<Node>& chains, std::uint64_t nodes,
                              std::uint64_t bytes) {
    chains.live_nodes_ += nodes;
    chains.node_bytes_ += bytes;
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

  // ---- TLBs ----

  // Partial-subblock TLB, first live block entry: replaces its valid vector,
  // or moves its tag or its block PPN one page off the block boundary.
  static bool SetPsbVector(tlb::PartialSubblockTlb& t, std::uint16_t vector) {
    return DamageFirst(t.entries_, t.blocks_, [&](unsigned i) { t.vectors_[i] = vector; });
  }
  static bool ShiftPsbBlock(tlb::PartialSubblockTlb& t, bool tag) {
    return DamageFirst(t.entries_, t.blocks_, [&](unsigned i) {
      if (tag) {
        ++t.entries_.tags[i];
      } else {
        t.ppns_[i] += 1;
      }
    });
  }

  // Complete-subblock TLB: ORs `bits` into the first live entry's vector.
  static bool OrCsbVector(tlb::CompleteSubblockTlb& t, std::uint64_t bits) {
    return DamageFirst(t.entries_, t.entries_.valid, [&](unsigned i) { t.vectors_[i] |= bits; });
  }

  // Superpage TLB, first live entry larger than a page: moves its tag or its
  // PPN one page off the superpage boundary, or copies it into entry 0,
  // which the caller leaves invalid.
  static bool ShiftSuperpageEntry(tlb::SuperpageTlb& t, bool tag) {
    return DamageFirst(t.entries_, t.log2s_, [&](unsigned i) {
      if (tag) {
        ++t.entries_.tags[i];
      } else {
        t.ppns_[i] += 1;
      }
    });
  }
  static bool DuplicateSuperpageEntry(tlb::SuperpageTlb& t) {
    return DamageFirst(t.entries_, t.log2s_, [&](unsigned i) {
      t.entries_.Claim(0, t.entries_.asids[i], t.entries_.tags[i]);
      t.entries_.stamps[0] = t.entries_.stamps[i];
      t.spans_[0] = t.spans_[i];
      t.ppns_[0] = t.ppns_[i];
      t.log2s_[0] = t.log2s_[i];
    });
  }

  // Dual-size set-associative TLB: way 0 of set 0 itself, to rewrite; a
  // copy of it into way 1 (which the caller leaves invalid); a swap of it
  // with way 0 of set 1; a skewed invalid-entry counter.
  static auto& FirstWay(tlb::DualSizeSetAssocTlb& t) { return t.entries_[0]; }
  static void DuplicateFirstWay(tlb::DualSizeSetAssocTlb& t) {
    t.entries_[1] = t.entries_[0];
    --t.invalid_entries_;
  }
  static void SwapFirstSets(tlb::DualSizeSetAssocTlb& t) {
    std::swap(t.entries_[0], t.entries_[t.ways_]);
  }
  static void SkewInvalidCount(tlb::DualSizeSetAssocTlb& t) { ++t.invalid_entries_; }

 private:
  // The first bucket with a non-empty chain, or the bucket count.
  template <typename Node>
  static std::uint32_t FirstChain(const pt::ChainArena<Node>& chains) {
    std::uint32_t b = 0;
    while (b < chains.buckets_.size() && chains.buckets_[b] == pt::kChainEnd) {
      ++b;
    }
    return b;
  }

  // Applies `damage(i)` to the first live entry i with a nonzero `pick[i]`;
  // false when there is none.
  template <typename Pick, typename Damage>
  static bool DamageFirst(const tlb::EntryColumns& e, const Pick& pick, Damage damage) {
    for (unsigned i = 0; i < e.size(); ++i) {
      if (e.valid[i] != 0 && pick[i] != 0) {
        damage(i);
        return true;
      }
    }
    return false;
  }
};

}  // namespace cpt::check
