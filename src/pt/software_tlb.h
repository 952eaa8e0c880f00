// Software TLB (Sections 2 and 7): a memory-resident, set-associative cache
// of recently-used translations between the hardware TLB and the native page
// table — the UltraSPARC TSB / PowerPC page-table style.
//
// Unlike a hashed page table, a software TLB pre-allocates a fixed array of
// entries with no next pointers: a miss handler probe reads exactly one
// entry (one cache line) and either hits or falls through to the backing
// page table, refilling the slot on the way out.  Section 7 notes that a
// software TLB reduces the frequency of page-table accesses, making the
// backing table's flexibility (e.g. clustered range operations) the
// deciding factor.
//
// Two entry formats:
//   - base entries: one VPN tag + one mapping word (16 bytes);
//   - clustered entries: one VPBN tag + `subblock_factor` mapping words —
//     the clustered software TLB of [Tall95], which covers a whole page
//     block per slot and so hits on spatially-local misses.
//
// Implemented as a PageTable decorator: Lookup() probes the array first;
// updates write through to the backing table and invalidate affected slots.
// R/M bits live in the backing table alone (UpdateAttrFlags forwards), so a
// slot's copy of a word's attribute bits is never read.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "check/fwd.h"
#include "common/hash.h"
#include "common/hotpath.h"
#include "common/pte.h"
#include "common/types.h"
#include "mem/sim_alloc.h"
#include "pt/page_table.h"

namespace cpt::pt {

class SoftwareTlb final : public PageTable {
 public:
  struct Options {
    std::uint32_t num_sets = 2048;  // Power of two.
    unsigned ways = 2;              // Associativity.
    // Use clustered (page-block) entries instead of single-page entries.
    bool clustered_entries = false;
    unsigned subblock_factor = kDefaultSubblockFactor;
  };

  SoftwareTlb(mem::CacheTouchModel& cache, std::unique_ptr<PageTable> backing, Options opts);
  ~SoftwareTlb() override;

  // ---- PageTable interface ----
  [[nodiscard]] CPT_HOT std::optional<TlbFill> Lookup(VirtAddr va) override;
  CPT_HOT void LookupBlock(VirtAddr va, unsigned subblock_factor,
                           std::vector<TlbFill>& out) override;
  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) override;
  bool RemoveBase(Vpn vpn) override;
  PtFeatures features() const override { return backing_->features(); }
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) override;
  bool RemoveSuperpage(Vpn base_vpn, PageSize size) override;
  void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor, Ppn block_base_ppn,
                             Attr attr, std::uint16_t valid_vector) override;
  bool RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  // The backing table owns the R/M bits: slots cache translations only, so
  // an attribute update neither reads nor invalidates them.
  CPT_HOT std::optional<Attr> UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                              std::uint16_t clear_mask) override {
    return backing_->UpdateAttrFlags(vpn, set_mask, clear_mask);
  }
  std::uint64_t SizeBytesPaperModel() const override;
  std::uint64_t SizeBytesActual() const override;
  std::uint64_t live_translations() const override { return backing_->live_translations(); }
  std::string name() const override;
  // The backing table's view: the slots cache translations it holds.
  void AuditVisit(check::PtAuditVisitor& visitor) const override {
    backing_->AuditVisit(visitor);
  }

  std::uint64_t probe_hits() const { return hits_; }
  std::uint64_t probe_misses() const { return misses_; }

 private:
  friend class check::TestBackdoor;

  struct Entry {
    std::uint64_t key = 0;           // VPN or VPBN.
    bool valid = false;
    std::uint64_t stamp = 0;         // For way replacement.
    std::vector<TlbFill> fills;      // 1 fill (base) or up to s (clustered).
  };
  // EntryBytes() charges the paper model, a prefix of this host struct (the
  // fills live behind the vector); the host struct must not silently grow.
  static_assert(sizeof(Entry) == 48 && alignof(Entry) == 8);

  // Paper-model entry format: an 8-byte VPN/VPBN tag, then one mapping word
  // (base entries) or `subblock_factor` words (clustered entries).
  static constexpr std::uint64_t kTagBytes = 8;
  static_assert(kTagBytes + kWordBytes <= kDefaultCacheLineSize,
                "a base entry must fit in one line");

  // Slot keys deliberately erase the domain: one array caches VPN-keyed
  // (base) or VPBN-keyed (clustered) entries depending on configuration, so
  // the tag is a raw word and only this function may produce one.
  std::uint64_t KeyOf(Vpn vpn) const {
    return opts_.clustered_entries ? VpbnOf(vpn, opts_.subblock_factor).raw() : vpn.raw();
  }
  std::uint64_t EntryBytes() const {
    return opts_.clustered_entries ? kTagBytes + kWordBytes * opts_.subblock_factor
                                   : kTagBytes + kWordBytes;
  }
  Entry* FindEntry(std::uint64_t key, bool count_touch);
  void Refill(std::uint64_t key, Vpn vpn, const TlbFill& fill);
  void InvalidateKey(std::uint64_t key);
  void InvalidateRange(Vpn first_vpn, std::uint64_t npages);
  PhysAddr SlotAddr(std::uint32_t set, unsigned way) const;

  Options opts_;
  std::unique_ptr<PageTable> backing_;
  BucketHasher hasher_;
  mem::SimAllocator alloc_;
  PhysAddr array_base_{};
  std::uint64_t slot_stride_ = 0;
  std::vector<Entry> entries_;  // num_sets * ways.
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace cpt::pt
