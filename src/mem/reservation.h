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
// aligned blocks of `subblock_factor` frames.
#ifndef CPT_MEM_RESERVATION_H_
#define CPT_MEM_RESERVATION_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "check/fwd.h"
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

  // Allocates a frame for base page `boff` of the virtual page block
  // identified by `block_key` (an (address space, VPBN) key chosen by the
  // caller).  The same (block_key, boff) must not be allocated twice without
  // an intervening Free.  Returns nullopt when physical memory is exhausted.
  // Consecutive allocations for one block skip the owner-map lookup.
  // The key is opaque to the allocator, deliberately raw.
  // cpt-lint: allow(raw-address-param)
  std::optional<FrameGrant> Allocate(std::uint64_t block_key, unsigned boff);

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

  // Reports every group, free-list entry, fragment-pool frame, owner-map
  // entry, and (when the grant log is on) outstanding grant.
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
    std::uint64_t owner_key = 0;   // Valid when kReserved.
    std::uint32_t used_mask = 0;   // Bit per slot.
  };

  std::uint64_t num_groups() const { return num_frames_ / factor_; }
  // Frame-group arithmetic unwraps the PPN. // cpt-lint: allow(raw-address-param)
  std::uint64_t GroupOf(Ppn ppn) const { return ppn.raw() / factor_; }
  unsigned SlotOf(Ppn ppn) const { return static_cast<unsigned>(ppn.raw() % factor_); }
  Ppn FrameAt(std::uint64_t group, unsigned slot) const { return Ppn{group * factor_ + slot}; }

  // Breaks the least-recently-reserved reservation, moving its unused slots
  // to the fragment pool.  Returns false if there is nothing to break.
  bool BreakOneReservation();

  // Logs a grant when the grant log is enabled; no-op otherwise.
  // cpt-lint: allow(raw-address-param): same opaque key as Allocate().
  void RecordGrant(Ppn ppn, std::uint64_t block_key, unsigned boff, bool properly_placed);

  unsigned factor_;
  std::uint64_t num_frames_;
  std::uint64_t frames_used_ = 0;
  // Created on first grant, in ascending order: groups_.size() is the
  // lowest never-granted group, and every group from there up is free.
  std::vector<Group> groups_;
  std::vector<std::uint64_t> free_groups_;                    // Stack of recycled kFree ids.
  std::unordered_map<std::uint64_t, std::uint64_t> by_owner_;  // block_key -> group id.
  // The group of the last reserved grant: most faults land in the same
  // virtual block as the one before, so Allocate checks it before by_owner_.
  // It needs no invalidation: a group is block_key's reservation exactly
  // when it is kReserved with owner_key == block_key.
  static constexpr std::uint64_t kNoGroup = ~std::uint64_t{0};
  std::uint64_t last_group_ = kNoGroup;
  std::deque<std::uint64_t> reservation_fifo_;                // Steal victims, oldest first.
  std::vector<Ppn> fragment_pool_;                            // Individually-free frames.

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

#endif  // CPT_MEM_RESERVATION_H_
