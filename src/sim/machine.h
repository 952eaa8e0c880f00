// The simulated machine: one TLB, per-process page tables and address
// spaces, a shared physical frame pool with page reservation, and a cache-
// line touch model — the equivalent of the paper's in-kernel trap-driven
// simulator (Section 6.1).
//
// An Access() models one memory reference:
//   TLB probe → on a miss, a cache-line-counted page-table walk → TLB fill.
// A walk that page-faults is aborted (uncounted), the OS fault handler runs
// (frame allocation, PTE insertion, possible promotion), and the walk
// re-runs counted.  Complete-subblock block misses optionally prefetch the
// whole block's mappings in one walk (Section 4.4).
//
// Linear page tables get the paper's reserved-entry treatment: the effective
// TLB loses kLinearReservedTlbEntries entries to page-table mappings, while
// a full-size reference TLB provides the normalization denominator, so the
// reported cache-lines-per-miss metric includes the opportunity cost of the
// reserved entries (Section 6.1).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/auditor.h"
#include "common/hotpath.h"
#include "mem/cache_model.h"
#include "mem/reservation.h"
#include "os/address_space.h"
#include "pt/page_table.h"
#include "tlb/tlb.h"
#include "workload/workload.h"

namespace cpt::check {
class ShadowedPageTable;
}  // namespace cpt::check

namespace cpt::sim {

enum class PtKind : std::uint8_t {
  kLinear6,        // Multi-level (6-level) linear page table.
  kLinear1,        // Linear, optimistic 1-level size accounting.
  kLinearHashed,   // Linear leaves + hashed upper levels (Table 2 row).
  kForward,        // 7-level forward-mapped tree.
  kHashed,         // Conventional hashed page table.
  kHashedMulti,    // Hashed + second block-keyed table for SP/PSB PTEs.
  kHashedSpIndex,  // Superpage-index hashed (single table, block hash).
  kClustered,      // Clustered page table (the paper's contribution).
  kClusteredAdaptive,  // Clustered with varying subblock factors (Section 3).
  kHashedInverted,     // Inverted organization: bucket array of pointers.
};

enum class TlbKind : std::uint8_t {
  kSinglePage,
  kSuperpage,
  kPartialSubblock,
  kCompleteSubblock,
};

std::string ToString(PtKind kind);
std::string ToString(TlbKind kind);

// Linear tables live in virtual memory and so reserve TLB entries for
// their own mappings (see Machine).
constexpr bool IsLinearTable(PtKind kind) {
  return kind == PtKind::kLinear6 || kind == PtKind::kLinear1 || kind == PtKind::kLinearHashed;
}

// TLB entries a linear page table reserves for its own mappings: the
// paper's 8 of 64 (Section 6.1).
inline constexpr unsigned kLinearReservedTlbEntries = 8;
// Associativity of the software TLB (MachineOptions::swtlb_sets).
inline constexpr unsigned kSwTlbWays = 2;

struct MachineOptions {
  PtKind pt_kind = PtKind::kClustered;
  TlbKind tlb_kind = TlbKind::kSinglePage;
  unsigned tlb_entries = 64;
  unsigned subblock_factor = kDefaultSubblockFactor;
  std::uint32_t num_buckets = kDefaultHashBuckets;
  std::uint32_t line_size = kDefaultCacheLineSize;
  bool prefetch_on_block_miss = true;  // Complete-subblock TLBs only.
  // MultiTableHashed only: search the block-keyed table before the 4KB
  // table (the Section 6.3 suggestion for PSB-heavy workloads).
  bool hashed_block_first = false;
  // Interpose a software TLB (TSB) between the hardware TLB and the page
  // table (Sections 2 & 7).  0 disables it.
  std::uint32_t swtlb_sets = 0;
  bool swtlb_clustered_entries = false;
  // Section 7: use one page table shared by all processes (global effective
  // addresses, as in single-address-space or segmented systems) instead of
  // one table per process.  Process ids are folded into the high VPN bits,
  // so user-space addresses must stay below 2^48 (all trace workloads do).
  bool shared_page_table = false;
  // Section 3.1: the TLB miss handler updates the referenced (and, for
  // stores, modified) bits of the PTE it loads, lock-free.  Off by default
  // so the Figure 11 metrics stay pure walk costs.
  bool maintain_ref_bits = false;
  std::uint64_t phys_frames = 1ull << 22;  // 16GB: ample for every workload.
  // Invariant auditing (src/check): wraps every page table in the shadow-map
  // differential oracle and logs reservation grants so AuditAll() can verify
  // them.  Off by default — the oracle costs a hash probe per table access,
  // which would perturb the Figure 11 timing comparisons.
  bool audit = false;
  // PTE strategy; defaults to the natural match for the TLB kind
  // (base-only / superpage / partial-subblock / base-only).
  std::optional<os::PteStrategy> strategy;
};

// Creates a page table of the given kind (shared by Machine and the
// snapshot-only size experiments).
std::unique_ptr<pt::PageTable> MakePageTable(PtKind kind, mem::CacheTouchModel& cache,
                                             const MachineOptions& opts);

class Machine {
 public:
  Machine(MachineOptions opts, unsigned num_processes);
  ~Machine();

  // Models one memory reference by process `asid`.  This is the hot root of
  // the whole simulator (common/hotpath.h): replays under cpt::HotPathScope
  // prove its steady state allocation-free.
  CPT_HOT void Access(tlb::Asid asid, VirtAddr va, bool is_write = false);

  // Models a workload::Run: `run.count` (at most workload::kMaxRunRefs)
  // references by `run.asid` to the page of `run.va`.  The effect is that
  // of one Access() per reference, with reference i's store bit taken from
  // run.StoreBits(), which is drawn only when options().maintain_ref_bits
  // is set: nothing else reads a store bit.  References run through
  // Access() until both the effective and the reference TLB memoize the
  // page; the rest are then certain hits and are scored in one step
  // (Tlb::ReplayHits).  A tracer receives their kTlbHit events as one
  // WalkTracer::RecordRepeat call, whose contract is the effect of one
  // Record() per reference, so every consumer sees the stream Access()
  // would have published.
  CPT_HOT void AccessRun(const workload::Run& run);

  // ---- Telemetry (src/obs) ----
  // Publishes every TLB probe, walk step, page fault, promotion, and
  // reservation grant through `tracer` (nullptr detaches).  Simulated counts
  // are identical with and without a tracer; only wall-clock time differs.
  void AttachTracer(obs::WalkTracer* tracer);
  obs::WalkTracer* tracer() const { return tracer_; }

  // Pre-faults every page so the trace starts with a fully-populated page
  // table (the paper's simulators see resident pages only).
  void Preload(const workload::Snapshot& snapshot);

  // ---- Metrics ----
  const mem::CacheTouchModel& cache() const { return cache_; }
  tlb::Tlb& tlb() { return *tlb_; }
  const tlb::Tlb& tlb() const { return *tlb_; }

  // Denominator misses: the full-size reference TLB when one exists
  // (linear page tables), otherwise the effective TLB's own misses.
  std::uint64_t DenominatorMisses() const;
  // The paper's access-time metric.
  double AvgLinesPerMiss() const;

  std::uint64_t TotalPtBytesPaperModel() const;
  std::uint64_t TotalPtBytesActual() const;
  std::uint64_t TotalPageFaults() const;
  // Faults that found no free frame; each one dropped its reference.
  std::uint64_t TotalOomFaults() const;

  unsigned num_processes() const { return num_processes_; }
  pt::PageTable& page_table(tlb::Asid asid) { return *CtxOf(asid).table; }
  os::AddressSpace& address_space(tlb::Asid asid) { return *CtxOf(asid).aspace; }
  mem::ReservationAllocator& frames() { return frames_; }
  const mem::ReservationAllocator& frames() const { return frames_; }
  const MachineOptions& options() const { return opts_; }

  // Runs every structural audit — each process's page table, the frame
  // allocator, and the TLB(s) — plus, when options().audit is set, each
  // shadow oracle's final check.  An ok() report means every invariant held.
  check::AuditReport AuditAll() const;

 private:
  struct ProcessCtx {
    std::unique_ptr<pt::PageTable> table;
    std::unique_ptr<os::AddressSpace> aspace;
  };

  os::PteStrategy EffectiveStrategy() const;
  std::unique_ptr<tlb::Tlb> MakeTlb(unsigned entries) const;
  ProcessCtx& CtxOf(tlb::Asid asid) {
    return procs_[opts_.shared_page_table ? 0 : asid];
  }
  const ProcessCtx& CtxOf(tlb::Asid asid) const {
    return procs_[opts_.shared_page_table ? 0 : asid];
  }
  // Folds the process id into the high VPN bits under a shared table.  The
  // salt deliberately erases the domain: it is a raw-bit perturbation.
  VirtAddr EffectiveVa(tlb::Asid asid, VirtAddr va) const {
    return opts_.shared_page_table ? VirtAddr{va.raw() ^ (std::uint64_t{asid} << 49)} : va;
  }
  // The fault-and-rewalk protocol of every counted walk: runs `walk` (true
  // when it served va's page) between BeginWalk and EndWalk.  On a page
  // fault the walk is aborted, the OS fault handler runs and the walk runs
  // again, counted.  Returns false only if memory is exhausted.
  template <typename Walk>
  CPT_HOT bool WalkOrFault(ProcessCtx& proc, VirtAddr va, Walk walk);

  MachineOptions opts_;
  unsigned num_processes_ = 1;
  mem::CacheTouchModel cache_;
  mem::ReservationAllocator frames_;
  std::vector<ProcessCtx> procs_;
  std::unique_ptr<tlb::Tlb> tlb_;      // Effective TLB (56 entries for linear).
  std::unique_ptr<tlb::Tlb> ref_tlb_;  // Full-size reference TLB (linear only).
  std::vector<pt::TlbFill> block_fills_;  // Scratch for prefetch.
  obs::WalkTracer* tracer_ = nullptr;
  // Under options().audit, the shadow oracle that is each process's table.
  std::vector<const check::ShadowedPageTable*> oracles_;
};

}  // namespace cpt::sim
