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
#ifndef CPT_TLB_TLB_H_
#define CPT_TLB_TLB_H_

#include <cstdint>
#include <string>

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
    ForgetHit();
    DoInsert(asid, vpn, fill);
  }

  void Flush() {
    ForgetHit();
    DoFlush();
  }

  virtual std::string name() const = 0;

  unsigned num_entries() const { return num_entries_; }
  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

 protected:
  // The design's full probe, reached only when the memo does not answer.
  // A hit must be scored through Hit().
  [[nodiscard]] CPT_HOT virtual LookupOutcome Probe(Asid asid, Vpn vpn) = 0;
  CPT_HOT virtual void DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) = 0;
  virtual void DoFlush() = 0;

  // Scores a probe hit on the entry owning `stamp` and memoizes it.
  // `class_hits` is the design's per-class hit counter to bump with it
  // (superpage or PSB hits), or nullptr.
  LookupOutcome Hit(Asid asid, Vpn vpn, std::uint64_t& stamp, std::uint64_t* class_hits) {
    memo_asid_ = asid;
    memo_vpn_ = vpn;
    memo_stamp_ = &stamp;
    memo_class_hits_ = class_hits;
    return ReplayHit();
  }
  // Every change to an entry's validity or coverage must call this first.
  void ForgetHit() { memo_stamp_ = nullptr; }

  std::uint64_t NextStamp() { return ++clock_; }
  void RecordHit() {
    ++stats_.accesses;
    ++stats_.hits;
  }
  void RecordMiss(LookupOutcome kind) {
    ++stats_.accesses;
    ++stats_.misses;
    if (kind == LookupOutcome::kBlockMiss) {
      ++stats_.block_misses;
    } else if (kind == LookupOutcome::kSubblockMiss) {
      ++stats_.subblock_misses;
    }
  }

  TlbStats stats_;

 private:
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
  Asid memo_asid_ = 0;  // Fills num_entries_'s padding.
  std::uint64_t clock_ = 0;
  Vpn memo_vpn_{};
  std::uint64_t* memo_stamp_ = nullptr;  // Null: no memo.
  std::uint64_t* memo_class_hits_ = nullptr;
};

}  // namespace cpt::tlb

#endif  // CPT_TLB_TLB_H_
