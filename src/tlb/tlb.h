// TLB simulators: fully-associative, LRU-replaced translation caches.
//
// Four designs from the paper's evaluation (Figure 11):
//   - SinglePageTlb:       one base page per entry (11a)
//   - SuperpageTlb:        variable page size per entry (11b)
//   - PartialSubblockTlb:  one tag + valid vector + one properly-placed
//                          block-aligned PPN per entry (11c)
//   - CompleteSubblockTlb: one tag + per-page PPNs; distinguishes block
//                          misses from subblock misses (11d)
//
// All are asid-tagged so multiprogrammed workloads share one TLB without
// flushes.  TLBs translate via pt::TlbFill payloads produced by page tables.
#pragma once

#include <cstdint>
#include <string>

#include "check/fwd.h"
#include "common/check.h"
#include "common/hotpath.h"
#include "common/types.h"
#include "pt/page_table.h"

namespace cpt::tlb {

using Asid = std::uint16_t;

enum class LookupOutcome : std::uint8_t {
  kHit,
  kMiss,           // Conventional miss (no covering entry).
  kBlockMiss,      // Complete-subblock: no entry with the block's tag.
  kSubblockMiss,   // Complete-subblock: tag present, page's subblock invalid.
};

constexpr bool IsMiss(LookupOutcome o) { return o != LookupOutcome::kHit; }

struct TlbStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;           // All misses, of any kind.
  std::uint64_t block_misses = 0;     // Complete-subblock TLBs only.
  std::uint64_t subblock_misses = 0;  // Complete-subblock TLBs only.

  double MissRatio() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

// Every design shares one last-hit memo: the (asid, vpn) of the last probe
// that hit, with the hitting entry's recency stamp and its design-specific
// hit counter.  A probe that repeats that page replays the hit's side
// effects without a scan.  This is exact because an entry's validity and
// coverage change only inside Insert/Flush (and CompleteSubblockTlb's
// InsertBlock), which all forget the memo: between them the scan would
// find the same first covering entry and do exactly what ReplayHit() does.
//
// The fill that serves a miss re-arms the memo.  A full probe that misses
// records its (asid, vpn) as the pending miss; Insert, Flush and
// InsertBlock clear it.  So when an Insert or InsertBlock finds its own
// (asid, vpn) pending, no entry has covered that page since the probe,
// the fill changed only the entry it wrote, and if that entry covers the
// page it is the only covering entry: the next probe's scan would hit it.
class Tlb {
 public:
  explicit Tlb(unsigned num_entries) : num_entries_(num_entries) {}
  virtual ~Tlb() = default;
  Tlb(const Tlb&) = delete;
  Tlb& operator=(const Tlb&) = delete;

  // Probes the TLB for (asid, vpn), updating recency and statistics.
  [[nodiscard]] CPT_HOT LookupOutcome Lookup(Asid asid, Vpn vpn) {
    if (Memoizes(asid, vpn)) {
      return ReplayHit();
    }
    return Probe(asid, vpn);
  }

  // True when the memo holds (asid, vpn): its next Lookup is a hit that
  // changes only the hit entry's stamp and the hit counters.
  bool Memoizes(Asid asid, Vpn vpn) const {
    return memo_stamp_ != nullptr && memo_vpn_ == vpn && memo_asid_ == asid;
  }

  // Scores `n` more hits on the memoized page, leaving the TLB exactly as
  // `n` Lookups of it would.  Requires a memo (see Memoizes).
  CPT_HOT void ReplayHits(std::uint64_t n) {
    CPT_DCHECK(memo_stamp_ != nullptr);
    clock_ += n;
    *memo_stamp_ = clock_;
    stats_.accesses += n;
    stats_.hits += n;
    if (memo_class_hits_ != nullptr) {
      *memo_class_hits_ += n;
    }
  }

  // Installs the page-table fill that satisfied a miss on (asid, vpn).
  CPT_HOT void Insert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
    const bool serves_miss = BeginFill(asid, vpn);
    EndFill(serves_miss, asid, vpn, DoInsert(asid, vpn, fill));
  }

  void Flush() {
    ForgetHit();
    pending_miss_ = false;
    DoFlush();
  }

  virtual std::string name() const = 0;

  // Reports the TLB's audit view (check/audit_visitor.h): its geometry,
  // where it is not one fully-associative set, then every entry in array
  // order.
  virtual void AuditVisit(check::TlbAuditVisitor& visitor) const = 0;

  unsigned num_entries() const { return num_entries_; }
  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

 protected:
  // What a hit on one entry bumps: the entry's LRU stamp and the design's
  // class counter for it (superpage or PSB hits), or null.  DoInsert returns
  // the written entry's, with a null `stamp` when the entry does not cover
  // the filled page.
  struct EntryHit {
    std::uint64_t* stamp = nullptr;
    std::uint64_t* class_hits = nullptr;
  };

  // The design's full probe, reached only when the memo does not answer.
  // A hit must be scored through Hit(), a miss through RecordMiss().
  [[nodiscard]] CPT_HOT virtual LookupOutcome Probe(Asid asid, Vpn vpn) = 0;
  [[nodiscard]] CPT_HOT virtual EntryHit DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) = 0;
  virtual void DoFlush() = 0;

  // Scores a probe hit on an entry and memoizes it.
  LookupOutcome Hit(Asid asid, Vpn vpn, EntryHit entry) {
    Memoize(asid, vpn, entry);
    return ReplayHit();
  }

  // Brackets every change to an entry's validity or coverage (Insert and
  // CompleteSubblockTlb::InsertBlock).  BeginFill forgets the memo and the
  // pending miss, and returns whether the fill for (asid, vpn) serves that
  // miss.  EndFill then memoizes the written entry if it does and the entry
  // covers the page.
  bool BeginFill(Asid asid, Vpn vpn) {
    ForgetHit();
    const bool serves_miss = pending_miss_ && pending_vpn_ == vpn && pending_asid_ == asid;
    pending_miss_ = false;
    return serves_miss;
  }
  void EndFill(bool serves_miss, Asid asid, Vpn vpn, EntryHit entry) {
    if (serves_miss && entry.stamp != nullptr) {
      Memoize(asid, vpn, entry);
    }
  }

  std::uint64_t NextStamp() { return ++clock_; }
  void RecordHit() {
    ++stats_.accesses;
    ++stats_.hits;
  }
  // Scores a probe miss on (asid, vpn) and makes it the pending miss.
  void RecordMiss(Asid asid, Vpn vpn, LookupOutcome kind) {
    ++stats_.accesses;
    ++stats_.misses;
    if (kind == LookupOutcome::kBlockMiss) {
      ++stats_.block_misses;
    } else if (kind == LookupOutcome::kSubblockMiss) {
      ++stats_.subblock_misses;
    }
    pending_miss_ = true;
    pending_asid_ = asid;
    pending_vpn_ = vpn;
  }

  TlbStats stats_;

 private:
  void Memoize(Asid asid, Vpn vpn, EntryHit entry) {
    memo_asid_ = asid;
    memo_vpn_ = vpn;
    memo_stamp_ = entry.stamp;
    memo_class_hits_ = entry.class_hits;
  }
  void ForgetHit() { memo_stamp_ = nullptr; }

  // Does what the scan does on a hit of the memoized entry, in its order.
  LookupOutcome ReplayHit() {
    *memo_stamp_ = NextStamp();
    RecordHit();
    if (memo_class_hits_ != nullptr) {
      ++*memo_class_hits_;
    }
    return LookupOutcome::kHit;
  }

  unsigned num_entries_;
  Asid memo_asid_ = 0;     // With pending_asid_, fills num_entries_'s padding.
  Asid pending_asid_ = 0;
  std::uint64_t clock_ = 0;
  Vpn memo_vpn_{};
  std::uint64_t* memo_stamp_ = nullptr;  // Null: no memo.
  std::uint64_t* memo_class_hits_ = nullptr;
  Vpn pending_vpn_{};
  bool pending_miss_ = false;  // False: no pending miss.
};

}  // namespace cpt::tlb
