// Abstract page-table interface shared by all four organizations.
//
// The TLB-miss path (Lookup / LookupBlock) is cache-line accounted through a
// mem::CacheTouchModel, reproducing the paper's "average number of cache
// lines accessed per TLB miss" metric.  The OS update path (Insert*/Remove*/
// ProtectRange) is not line-counted, but range operations report how many
// structure probes they performed so Section 3.1's qualitative claims can be
// measured (clustered tables search once per page block; hashed tables once
// per base page).
//
// Superpage and partial-subblock (PSB) insertion strategies differ per
// organization, per Sections 4 and 5:
//   - linear / forward-mapped: replicate the PTE at every covered base site
//                              (pt/replicate.h; a PSB PTE leaves base PTEs
//                              of unplaced pages in place);
//   - hashed:                  a second page table keyed by page block
//                              (see MultiTableHashed);
//   - clustered:               stored in place, discriminated by the S field.
// Tables that cannot store a format return false from supports().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "common/pte.h"
#include "common/types.h"
#include "mem/cache_model.h"

namespace cpt::pt {

// What a successful page-table walk loads into the TLB.
struct TlbFill {
  MappingKind kind = MappingKind::kBase;
  Vpn base_vpn{};         // First VPN covered by this entry.
  unsigned pages_log2 = 0;  // log2(base pages covered).
  MappingWord word{};

  unsigned pages() const { return 1u << pages_log2; }

  bool Covers(Vpn vpn) const {
    const PageSize size{pages_log2};
    if (SuperpageBaseVpn(vpn, size) != SuperpageBaseVpn(base_vpn, size) || vpn < base_vpn) {
      return false;
    }
    if (kind == MappingKind::kPartialSubblock) {
      return word.subpage_valid(static_cast<unsigned>(vpn - base_vpn));
    }
    return word.valid();
  }

  // Whether the entry's range meets [first, last] (valid bits aside).
  bool Overlaps(Vpn first, Vpn last) const {
    return base_vpn <= last && base_vpn + (pages() - 1) >= first;
  }

  // Physical page for a covered VPN.
  Ppn Translate(Vpn vpn) const {
    const unsigned off = static_cast<unsigned>(vpn - base_vpn);
    switch (kind) {
      case MappingKind::kBase:
        return word.ppn();
      case MappingKind::kSuperpage:
        return word.ppn() + off;
      case MappingKind::kPartialSubblock:
        return word.subpage_ppn(off);
    }
    return word.ppn();
  }
};

// Every TLB stores fills, so TlbFill growth multiplies across all of them;
// the host struct must not silently grow.
static_assert(sizeof(TlbFill) == 32 && alignof(TlbFill) == 8);

// kWalkHit `value` payload for a fill (attribution's page-class dimension).
constexpr obs::WalkHitClass WalkHitClassFor(MappingKind kind) {
  switch (kind) {
    case MappingKind::kBase:
      return obs::WalkHitClass::kBase;
    case MappingKind::kSuperpage:
      return obs::WalkHitClass::kSuperpage;
    case MappingKind::kPartialSubblock:
      return obs::WalkHitClass::kPartialSubblock;
  }
  return obs::WalkHitClass::kBase;
}
constexpr std::uint64_t WalkHitValue(const TlbFill& fill) {
  return obs::EncodeWalkHitClass(WalkHitClassFor(fill.kind), fill.pages_log2);
}

// The walk-event protocol of one probe (DESIGN.md decision 14): one
// kWalkStep{step, lines so far} per chain node or tree level the probe
// reads, numbered from 1, then at most one kWalkHit{step, WalkHitValue} at
// the step that produced the fill.  Each probe builds its own recorder, so
// a table searched second (MultiTableHashed) numbers its steps from 1 again.
// A software-TLB hit is the one hit at step 0: it reads no structure.
class WalkRecorder {
 public:
  WalkRecorder(const mem::CacheTouchModel& cache, Vpn vpn)
      : cache_(cache), tracer_(cache.tracer()), vpn_(vpn) {}

  void Step() {
    ++step_;
    if (tracer_ != nullptr) {
      tracer_->Record({.kind = obs::EventKind::kWalkStep,
                       .vpn = vpn_,
                       .step = step_,
                       .lines = cache_.LinesThisWalk()});
    }
  }

  // Records the hit at the current step and hands the fill back.
  const TlbFill& Hit(const TlbFill& fill) const {
    if (tracer_ != nullptr) {
      tracer_->Record({.kind = obs::EventKind::kWalkHit,
                       .vpn = vpn_,
                       .step = step_,
                       .value = WalkHitValue(fill)});
    }
    return fill;
  }

  // A TSB hit: kSwTlbHit, then the step-0 kWalkHit of class kSwTlb.
  void SwTlbHit(const TlbFill& fill) const {
    if (tracer_ != nullptr) {
      tracer_->Record({.kind = obs::EventKind::kSwTlbHit, .vpn = vpn_});
      tracer_->Record({.kind = obs::EventKind::kWalkHit,
                       .vpn = vpn_,
                       .step = 0,
                       .value = obs::EncodeWalkHitClass(obs::WalkHitClass::kSwTlb,
                                                        fill.pages_log2)});
    }
  }

 private:
  const mem::CacheTouchModel& cache_;
  obs::WalkTracer* const tracer_;
  const Vpn vpn_;
  std::uint32_t step_ = 0;
};

// Capability bits: which PTE formats a table can store natively or via its
// designated strategy.
struct PtFeatures {
  bool superpages = false;
  bool partial_subblock = false;
  bool adjacent_block_fetch = false;  // Block prefetch reads adjacent memory.
};

class PageTable {
 public:
  explicit PageTable(mem::CacheTouchModel& cache) : cache_(cache) {}
  virtual ~PageTable() = default;
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  // ---- TLB miss path (cache-line counted) ----

  // Walks the table for `va`.  Returns nullopt on page fault.  The walk's
  // cache-line touches are recorded in cache() between BeginWalk/EndWalk,
  // which the caller (sim::Machine or WalkScope) brackets.
  [[nodiscard]] CPT_HOT virtual std::optional<TlbFill> Lookup(VirtAddr va) = 0;

  // Complete-subblock prefetch (Section 4.4): fetches mappings for every
  // resident base page of va's page block of `subblock_factor` pages.
  // The default implementation performs one full Lookup per base page, which
  // is the multiple-probe cost the paper charges hashed tables; tables with
  // adjacent PTE storage override it.
  CPT_HOT virtual void LookupBlock(VirtAddr va, unsigned subblock_factor,
                                   std::vector<TlbFill>& out);

  // Lookup inside a walk that is then aborted, so it counts no lines.  Its
  // one caller is the reference-TLB refill (sim::Machine::Access).  A tracer
  // still sees its steps, closed by kWalkAbort.
  [[nodiscard]] CPT_HOT std::optional<TlbFill> LookupUncounted(VirtAddr va);

  // ---- OS update path ----

  virtual void InsertBase(Vpn vpn, Ppn ppn, Attr attr) = 0;
  virtual bool RemoveBase(Vpn vpn) = 0;

  virtual PtFeatures features() const { return {}; }

  // Installs one superpage PTE covering [base_vpn, base_vpn + size.pages()).
  // base_vpn and base_ppn must be size-aligned.  Precondition: supports
  // superpages.
  virtual void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr);
  virtual bool RemoveSuperpage(Vpn base_vpn, PageSize size);

  // Installs or updates the partial-subblock PTE for the page block starting
  // at block_base_vpn (block_base_ppn block-aligned, one valid bit per base
  // page).  Precondition: supports partial-subblock PTEs.
  virtual void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                     Ppn block_base_ppn, Attr attr, std::uint16_t valid_vector);
  virtual bool RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor);

  // Rewrites attributes for [first_vpn, first_vpn + npages) where mapped.
  // Returns the number of structure searches performed (Section 3.1 metric).
  virtual std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) = 0;

  // The one R/M-bit primitive (DESIGN.md decision 15): ORs `set_mask` into
  // and clears `clear_mask` from the attribute bits of the word covering
  // vpn, atomically and without a lock, and returns those bits as they were
  // before the update; nullopt when nothing maps vpn.  It is the TLB miss
  // handler's referenced/modified-bit update (Section 3.1), the page
  // daemon's test-and-clear and, with both masks zero, a read-only peek.
  // The table that stores the word owns its bits: a wrapper forwards, and
  // a word replicated per site or per page block is updated at every
  // replica.  It touches no cache model (the miss handler already read the
  // word's line), so any thread may call it while the structure is frozen.
  CPT_HOT virtual std::optional<Attr> UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                                      std::uint16_t clear_mask) = 0;

  // The attribute bits of the word covering vpn: UpdateAttrFlags(vpn, 0, 0).
  std::optional<Attr> PeekAttr(Vpn vpn) { return UpdateAttrFlags(vpn, 0, 0); }

  // Clock-daemon sweep: one test-and-clear of the referenced bit per page of
  // [first_vpn, first_vpn+npages); returns how many were set (Section 3.1's
  // page-aging scan).
  std::uint64_t ScanAndClearReferenced(Vpn first_vpn, std::uint64_t npages);

  // ---- Metrics ----

  // Page-table bytes under the paper's appendix accounting (payload bytes
  // per PTE / per tree node; empty buckets free).
  virtual std::uint64_t SizeBytesPaperModel() const = 0;

  // Physically-allocated bytes, including bucket arrays and slack.
  virtual std::uint64_t SizeBytesActual() const = 0;

  // Number of base-page translations currently stored (superpage/PSB PTEs
  // count each valid covered page).
  virtual std::uint64_t live_translations() const = 0;

  virtual std::string name() const = 0;

  // Reports the table's audit view (check/audit_visitor.h): a header with
  // its format rules and counters, then its nodes.  A wrapper reports the
  // table it wraps; a composite reports each constituent in turn.
  virtual void AuditVisit(check::PtAuditVisitor& visitor) const = 0;

  mem::CacheTouchModel& cache() { return cache_; }

 protected:
  mem::CacheTouchModel& cache_;
};

}  // namespace cpt::pt
