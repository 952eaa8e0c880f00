#include "sim/machine.h"

#include <algorithm>

#include "check/shadow_oracle.h"
#include "common/check.h"
#include "core/adaptive.h"
#include "core/clustered.h"
#include "pt/forward.h"
#include "pt/hashed.h"
#include "pt/linear.h"
#include "pt/multi_hashed.h"
#include "pt/software_tlb.h"
#include "tlb/complete_subblock.h"
#include "tlb/partial_subblock.h"
#include "tlb/single_page.h"
#include "tlb/superpage.h"

namespace cpt::sim {

std::string ToString(PtKind kind) {
  switch (kind) {
    case PtKind::kLinear6:
      return "linear-6level";
    case PtKind::kLinear1:
      return "linear-1level";
    case PtKind::kLinearHashed:
      return "linear-hashed";
    case PtKind::kForward:
      return "forward-mapped";
    case PtKind::kHashed:
      return "hashed";
    case PtKind::kHashedMulti:
      return "hashed-multi";
    case PtKind::kHashedSpIndex:
      return "hashed-spindex";
    case PtKind::kClustered:
      return "clustered";
    case PtKind::kClusteredAdaptive:
      return "clustered-adaptive";
    case PtKind::kHashedInverted:
      return "hashed-inverted";
  }
  return "?";
}

std::string ToString(TlbKind kind) {
  switch (kind) {
    case TlbKind::kSinglePage:
      return "single-page";
    case TlbKind::kSuperpage:
      return "superpage";
    case TlbKind::kPartialSubblock:
      return "partial-subblock";
    case TlbKind::kCompleteSubblock:
      return "complete-subblock";
  }
  return "?";
}

namespace {

std::unique_ptr<pt::PageTable> MakeBareTable(PtKind kind, mem::CacheTouchModel& cache,
                                             const MachineOptions& opts) {
  switch (kind) {
    case PtKind::kLinear6:
      return std::make_unique<pt::LinearPageTable>(
          cache, pt::LinearPageTable::Options{
                     .size_model = pt::LinearPageTable::SizeModel::kSixLevel});
    case PtKind::kLinear1:
      return std::make_unique<pt::LinearPageTable>(
          cache, pt::LinearPageTable::Options{
                     .size_model = pt::LinearPageTable::SizeModel::kOneLevel});
    case PtKind::kLinearHashed:
      return std::make_unique<pt::LinearPageTable>(
          cache, pt::LinearPageTable::Options{
                     .size_model = pt::LinearPageTable::SizeModel::kHashedUpper});
    case PtKind::kForward:
      return std::make_unique<pt::ForwardMappedPageTable>(cache,
                                                          pt::ForwardMappedPageTable::Options{});
    case PtKind::kHashed:
      return std::make_unique<pt::HashedPageTable>(
          cache, pt::HashedPageTable::Options{.num_buckets = opts.num_buckets});
    case PtKind::kHashedMulti:
      return std::make_unique<pt::MultiTableHashed>(
          cache,
          pt::MultiTableHashed::Options{
              .num_buckets = opts.num_buckets,
              .subblock_factor = opts.subblock_factor,
              .order = opts.hashed_block_first ? pt::MultiTableHashed::SearchOrder::kBlockFirst
                                               : pt::MultiTableHashed::SearchOrder::kBaseFirst});
    case PtKind::kHashedSpIndex:
      return std::make_unique<pt::HashedPageTable>(
          cache, pt::HashedPageTable::Options{.num_buckets = opts.num_buckets,
                                              .tag_shift = Log2(opts.subblock_factor)});
    case PtKind::kClustered:
      return std::make_unique<core::ClusteredPageTable>(
          cache, core::ClusteredPageTable::Options{.num_buckets = opts.num_buckets,
                                                   .subblock_factor = opts.subblock_factor});
    case PtKind::kClusteredAdaptive:
      return std::make_unique<core::AdaptiveClusteredPageTable>(
          cache,
          core::AdaptiveClusteredPageTable::Options{.num_buckets = opts.num_buckets,
                                                    .subblock_factor = opts.subblock_factor});
    case PtKind::kHashedInverted:
      return std::make_unique<pt::HashedPageTable>(
          cache, pt::HashedPageTable::Options{.num_buckets = opts.num_buckets,
                                              .inverted = true});
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<pt::PageTable> MakePageTable(PtKind kind, mem::CacheTouchModel& cache,
                                             const MachineOptions& opts) {
  auto table = MakeBareTable(kind, cache, opts);
  if (opts.swtlb_sets != 0) {
    table = std::make_unique<pt::SoftwareTlb>(
        cache, std::move(table),
        pt::SoftwareTlb::Options{.num_sets = opts.swtlb_sets,
                                 .ways = kSwTlbWays,
                                 .clustered_entries = opts.swtlb_clustered_entries,
                                 .subblock_factor = opts.subblock_factor});
  }
  return table;
}

os::PteStrategy Machine::EffectiveStrategy() const {
  if (opts_.strategy) {
    return *opts_.strategy;
  }
  switch (opts_.tlb_kind) {
    case TlbKind::kSuperpage:
      return os::PteStrategy::kSuperpage;
    case TlbKind::kPartialSubblock:
      return os::PteStrategy::kPartialSubblock;
    case TlbKind::kSinglePage:
    case TlbKind::kCompleteSubblock:
      return os::PteStrategy::kBaseOnly;
  }
  return os::PteStrategy::kBaseOnly;
}

std::unique_ptr<tlb::Tlb> Machine::MakeTlb(unsigned entries) const {
  switch (opts_.tlb_kind) {
    case TlbKind::kSinglePage:
      return std::make_unique<tlb::SinglePageTlb>(entries);
    case TlbKind::kSuperpage:
      return std::make_unique<tlb::SuperpageTlb>(entries);
    case TlbKind::kPartialSubblock:
      return std::make_unique<tlb::PartialSubblockTlb>(entries, opts_.subblock_factor);
    case TlbKind::kCompleteSubblock:
      return std::make_unique<tlb::CompleteSubblockTlb>(entries, opts_.subblock_factor);
  }
  return nullptr;
}

Machine::Machine(MachineOptions opts, unsigned num_processes)
    : opts_(opts),
      num_processes_(num_processes),
      cache_(opts.line_size),
      frames_(opts.phys_frames, opts.subblock_factor) {
  CPT_CHECK(num_processes >= 1);
  if (opts_.audit) {
    frames_.EnableGrantLog();
  }
  // The block-prefetch scratch must never grow mid-replay: Access() runs
  // under the hot-path allocation guard in tests (common/hotguard.h), and a
  // block fetch yields at most one fill per base page of the block.
  block_fills_.reserve(opts_.subblock_factor);
  const os::PteStrategy strategy = EffectiveStrategy();
  // A shared page table (Section 7) serves every process through one
  // context; per-process tables get one context each.
  const unsigned num_ctx = opts_.shared_page_table ? 1 : num_processes;
  procs_.reserve(num_ctx);
  for (unsigned p = 0; p < num_ctx; ++p) {
    ProcessCtx ctx;
    ctx.table = MakePageTable(opts_.pt_kind, cache_, opts_);
    if (opts_.audit) {
      // The oracle wraps outermost — above any software TLB — so it also
      // cross-checks the software TLB's write-through invalidation.
      auto oracle = std::make_unique<check::ShadowedPageTable>(cache_, std::move(ctx.table));
      oracles_.push_back(oracle.get());
      ctx.table = std::move(oracle);
    }
    ctx.aspace = std::make_unique<os::AddressSpace>(
        p, *ctx.table, frames_,
        os::AddressSpaceOptions{.strategy = strategy,
                                .subblock_factor = opts_.subblock_factor});
    procs_.push_back(std::move(ctx));
  }
  // Linear page tables live in virtual memory: kLinearReservedTlbEntries of
  // the TLB's entries are reserved for mappings to the table itself, so the
  // workload effectively has fewer entries, while the normalization
  // denominator still uses the full-size TLB (Section 6.1).
  if (IsLinearTable(opts_.pt_kind)) {
    CPT_CHECK(opts_.tlb_entries > kLinearReservedTlbEntries);
    tlb_ = MakeTlb(opts_.tlb_entries - kLinearReservedTlbEntries);
    ref_tlb_ = MakeTlb(opts_.tlb_entries);
  } else {
    tlb_ = MakeTlb(opts_.tlb_entries);
  }
}

Machine::~Machine() = default;

void Machine::AttachTracer(obs::WalkTracer* tracer) {
  tracer_ = tracer;
  // One pointer on the cache-touch model makes every page table observable
  // (they all count lines through it); the frame allocator reports grants.
  cache_.set_tracer(tracer);
  frames_.set_tracer(tracer);
}

template <typename Walk>
bool Machine::WalkOrFault(ProcessCtx& proc, VirtAddr va, Walk walk) {
  cache_.BeginWalk();
  if (walk()) [[likely]] {
    cache_.EndWalk();
    return true;
  }
  // Page fault: the failed walk is OS work, not TLB-miss service.
  cache_.AbortWalk();
  if (!proc.aspace->TouchPage(va)) {
    return false;  // Out of physical memory.
  }
  cache_.BeginWalk();
  const bool served = walk();
  cache_.EndWalk();
  CPT_DCHECK(served, "fault handler mapped the page; the walk must succeed");
  return true;
}

void Machine::Access(tlb::Asid asid, VirtAddr va, bool is_write) {
  CPT_DCHECK(asid < num_processes_);
  ProcessCtx& proc = CtxOf(asid);
  va = EffectiveVa(asid, va);
  const Vpn vpn = VpnOf(va);

  bool ref_missed = false;
  if (ref_tlb_) {
    ref_missed = tlb::IsMiss(ref_tlb_->Lookup(asid, vpn));
  }

  const tlb::LookupOutcome outcome = tlb_->Lookup(asid, vpn);
  if (tracer_ != nullptr) {
    obs::EventKind kind = obs::EventKind::kTlbHit;
    switch (outcome) {
      case tlb::LookupOutcome::kHit:
        break;
      case tlb::LookupOutcome::kMiss:
        kind = obs::EventKind::kTlbMiss;
        break;
      case tlb::LookupOutcome::kBlockMiss:
        kind = obs::EventKind::kTlbBlockMiss;
        break;
      case tlb::LookupOutcome::kSubblockMiss:
        kind = obs::EventKind::kTlbSubblockMiss;
        break;
    }
    tracer_->Record({.kind = kind, .asid = asid, .vpn = vpn});
  }
  if (!tlb::IsMiss(outcome)) {
    if (ref_missed) {
      // Can only happen transiently (different effective/reference insert
      // histories); refill the reference TLB without counting the walk.
      if (auto fill = proc.table->LookupUncounted(va)) {
        ref_tlb_->Insert(asid, vpn, *fill);
      }
    }
    return;
  }

  // TLB miss: service it with a counted page-table walk.
  if (opts_.tlb_kind == TlbKind::kCompleteSubblock && opts_.prefetch_on_block_miss &&
      outcome == tlb::LookupOutcome::kBlockMiss) {
    // The block walk serves the miss if one of its fills covers the page.
    const bool served = WalkOrFault(proc, va, [&] {
      block_fills_.clear();
      proc.table->LookupBlock(va, opts_.subblock_factor, block_fills_);
      return std::ranges::any_of(block_fills_,
                                 [vpn](const pt::TlbFill& f) { return f.Covers(vpn); });
    });
    if (!served) {
      return;  // Out of memory; drop the reference.
    }
    static_cast<tlb::CompleteSubblockTlb&>(*tlb_).InsertBlock(asid, vpn, block_fills_);
    if (tracer_ != nullptr) {
      tracer_->Record({.kind = obs::EventKind::kBlockPrefetch,
                       .asid = asid,
                       .vpn = vpn,
                       .value = block_fills_.size()});
    }
    if (ref_missed) {
      static_cast<tlb::CompleteSubblockTlb&>(*ref_tlb_).InsertBlock(asid, vpn, block_fills_);
    }
  } else {
    std::optional<pt::TlbFill> fill;
    if (!WalkOrFault(proc, va, [&] { return (fill = proc.table->Lookup(va)).has_value(); })) {
      return;  // Out of memory; drop the reference.
    }
    tlb_->Insert(asid, vpn, *fill);
    if (ref_missed) {
      ref_tlb_->Insert(asid, vpn, *fill);
    }
  }
  if (opts_.maintain_ref_bits) {
    // The handler already holds the PTE's line: set R (and M for stores)
    // without locks (Section 3.1).
    const std::uint16_t set =
        Attr::kReferenced | (is_write ? Attr::kModified : std::uint16_t{0});
    proc.table->UpdateAttrFlags(vpn, set, 0);
  }
}

void Machine::AccessRun(const workload::Run& run) {
  CPT_DCHECK(run.count <= workload::kMaxRunRefs);
  const tlb::Asid asid = run.asid;
  const std::uint32_t count = run.count;
  // Access() reads a store bit only under maintain_ref_bits.
  const std::uint64_t writes = opts_.maintain_ref_bits ? run.StoreBits() : 0;
  const Vpn vpn = VpnOf(EffectiveVa(asid, run.va));
  // A page is settled once both TLBs memoize it: Access() would then only
  // re-score a memo hit in each and publish one kTlbHit.  Until then a
  // reference can miss, walk, fault or refill, so it runs in full.  A page
  // dropped for lack of memory never settles and so takes one Access() per
  // reference.
  const auto settled = [&] {
    return tlb_->Memoizes(asid, vpn) && (!ref_tlb_ || ref_tlb_->Memoizes(asid, vpn));
  };
  std::uint32_t i = 0;
  for (; i < count && !settled(); ++i) {
    Access(asid, run.va, ((writes >> i) & 1) != 0);
  }
  if (i < count) {
    tlb_->ReplayHits(count - i);
    if (ref_tlb_) {
      ref_tlb_->ReplayHits(count - i);
    }
    if (tracer_ != nullptr) {
      tracer_->RecordRepeat({.kind = obs::EventKind::kTlbHit, .asid = asid, .vpn = vpn},
                            count - i);
    }
  }
}

void Machine::Preload(const workload::Snapshot& snapshot) {
  CPT_CHECK(snapshot.pages.size() == num_processes_);
  for (std::size_t p = 0; p < snapshot.pages.size(); ++p) {
    const auto asid = static_cast<tlb::Asid>(p);
    os::AddressSpace& aspace = *CtxOf(asid).aspace;
    for (const auto& seg_pages : snapshot.pages[p]) {
      for (const Vpn vpn : seg_pages) {
        aspace.TouchPage(EffectiveVa(asid, VaOf(vpn)));
      }
    }
  }
}

std::uint64_t Machine::DenominatorMisses() const {
  return ref_tlb_ ? ref_tlb_->stats().misses : tlb_->stats().misses;
}

double Machine::AvgLinesPerMiss() const {
  const std::uint64_t denom = DenominatorMisses();
  return denom == 0 ? 0.0
                    : static_cast<double>(cache_.total_lines()) / static_cast<double>(denom);
}

std::uint64_t Machine::TotalPtBytesPaperModel() const {
  std::uint64_t total = 0;
  for (const ProcessCtx& p : procs_) {
    total += p.table->SizeBytesPaperModel();
  }
  return total;
}

std::uint64_t Machine::TotalPtBytesActual() const {
  std::uint64_t total = 0;
  for (const ProcessCtx& p : procs_) {
    total += p.table->SizeBytesActual();
  }
  return total;
}

check::AuditReport Machine::AuditAll() const {
  check::AuditReport report;
  for (std::size_t p = 0; p < procs_.size(); ++p) {
    const std::string prefix = "proc " + std::to_string(p);
    if (opts_.audit) {
      report.Merge(oracles_[p]->FinalCheck(), prefix + " oracle");
    }
    report.Merge(check::StructuralAuditor::Audit(*procs_[p].table), prefix);
  }
  report.Merge(check::StructuralAuditor::Audit(frames_), "frames");
  report.Merge(check::StructuralAuditor::Audit(*tlb_), "tlb");
  if (ref_tlb_) {
    report.Merge(check::StructuralAuditor::Audit(*ref_tlb_), "ref-tlb");
  }
  return report;
}

std::uint64_t Machine::TotalPageFaults() const {
  std::uint64_t total = 0;
  for (const ProcessCtx& p : procs_) {
    total += p.aspace->stats().faults;
  }
  return total;
}

std::uint64_t Machine::TotalOomFaults() const {
  std::uint64_t total = 0;
  for (const ProcessCtx& p : procs_) {
    total += p.aspace->stats().oom_faults;
  }
  return total;
}

}  // namespace cpt::sim
