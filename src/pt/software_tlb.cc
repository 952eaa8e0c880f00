#include "pt/software_tlb.h"

#include <bit>
#include "common/check.h"

namespace cpt::pt {

SoftwareTlb::SoftwareTlb(mem::CacheTouchModel& cache, std::unique_ptr<PageTable> backing,
                         Options opts)
    : PageTable(cache),
      opts_(opts),
      backing_(std::move(backing)),
      hasher_(opts.num_sets),
      alloc_(cache.line_size()) {
  CPT_CHECK(IsPowerOfTwo(opts.num_sets) && opts.ways >= 1);
  CPT_CHECK(backing_ != nullptr);
  slot_stride_ = std::bit_ceil(EntryBytes());
  array_base_ =
      alloc_.Allocate(std::uint64_t{opts_.num_sets} * opts_.ways * slot_stride_);
  entries_.resize(std::size_t{opts_.num_sets} * opts_.ways);
}

SoftwareTlb::~SoftwareTlb() = default;

PhysAddr SoftwareTlb::SlotAddr(std::uint32_t set, unsigned way) const {
  return array_base_ + (std::uint64_t{set} * opts_.ways + way) * slot_stride_;
}

SoftwareTlb::Entry* SoftwareTlb::FindEntry(std::uint64_t key, bool count_touch) {
  const std::uint32_t set = hasher_(key);
  for (unsigned way = 0; way < opts_.ways; ++way) {
    Entry& e = entries_[std::size_t{set} * opts_.ways + way];
    if (count_touch) {
      // The handler reads each way's tag (and the mapping on a match); the
      // whole slot fits the line-aligned stride.
      cache_.Touch(SlotAddr(set, way), EntryBytes());
    }
    if (e.valid && e.key == key) {
      e.stamp = ++clock_;
      return &e;
    }
  }
  return nullptr;
}

std::optional<TlbFill> SoftwareTlb::Lookup(VirtAddr va) {
  const Vpn vpn = VpnOf(va);
  const std::uint64_t key = KeyOf(vpn);
  if (Entry* e = FindEntry(key, /*count_touch=*/true)) {
    for (const TlbFill& fill : e->fills) {
      if (fill.Covers(vpn)) {
        ++hits_;
        // A TSB hit resolves the walk without reaching the backing table.
        WalkRecorder(cache_, vpn).SwTlbHit(fill);
        return fill;
      }
    }
    // The slot caches the key but not this page (e.g. a clustered entry
    // whose block gained a page since the refill): fall through.
  }
  ++misses_;
  if (obs::WalkTracer* const tracer = cache_.tracer()) {
    tracer->Record({.kind = obs::EventKind::kSwTlbMiss, .vpn = vpn});
  }
  // Miss: consult the backing page table (full walk cost) and refill.
  auto fill = backing_->Lookup(va);
  if (fill.has_value()) {
    Refill(key, vpn, *fill);
  }
  return fill;
}

void SoftwareTlb::Refill(std::uint64_t key, Vpn vpn, const TlbFill& fill) {
  const std::uint32_t set = hasher_(key);
  // Pick an invalid or LRU way.
  Entry* victim = &entries_[std::size_t{set} * opts_.ways];
  for (unsigned way = 0; way < opts_.ways; ++way) {
    Entry& e = entries_[std::size_t{set} * opts_.ways + way];
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.stamp < victim->stamp) {
      victim = &e;
    }
  }
  victim->key = key;
  victim->valid = true;
  victim->stamp = ++clock_;
  victim->fills.clear();
  // No-op once the entry has refilled before: clear() keeps capacity, so
  // steady-state refills recycle it and never allocate.
  victim->fills.reserve(opts_.clustered_entries ? opts_.subblock_factor : 1);
  if (opts_.clustered_entries) {
    // Cache every mapping of the page block, like a clustered PTE slot.
    // For backing tables with adjacent PTEs this costs no extra lines; for
    // a hashed backing it pays the multiple-probe price once per refill.
    backing_->LookupBlock(VaOf(vpn), opts_.subblock_factor, victim->fills);
    if (victim->fills.empty()) {
      victim->fills.push_back(fill);
    }
  } else {
    victim->fills.push_back(fill);
  }
}

void SoftwareTlb::InvalidateKey(std::uint64_t key) {
  if (Entry* e = FindEntry(key, /*count_touch=*/false)) {
    e->valid = false;
  }
}

void SoftwareTlb::InvalidateRange(Vpn first_vpn, std::uint64_t npages) {
  if (npages == 0) {
    return;
  }
  const std::uint64_t first_key = KeyOf(first_vpn);
  const std::uint64_t last_key = KeyOf(first_vpn + npages - 1);
  for (std::uint64_t key = first_key; key <= last_key; ++key) {
    InvalidateKey(key);
  }
}

void SoftwareTlb::LookupBlock(VirtAddr va, unsigned subblock_factor,
                              std::vector<TlbFill>& out) {
  // Complete-subblock prefetch goes straight to the backing table; caching
  // policy is orthogonal to block fetches.
  backing_->LookupBlock(va, subblock_factor, out);
}

void SoftwareTlb::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  backing_->InsertBase(vpn, ppn, attr);
  InvalidateKey(KeyOf(vpn));
}

bool SoftwareTlb::RemoveBase(Vpn vpn) {
  InvalidateKey(KeyOf(vpn));
  return backing_->RemoveBase(vpn);
}

void SoftwareTlb::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  backing_->InsertSuperpage(base_vpn, size, base_ppn, attr);
  InvalidateRange(base_vpn, size.pages());
}

bool SoftwareTlb::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  InvalidateRange(base_vpn, size.pages());
  return backing_->RemoveSuperpage(base_vpn, size);
}

void SoftwareTlb::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                        Ppn block_base_ppn, Attr attr,
                                        std::uint16_t valid_vector) {
  backing_->UpsertPartialSubblock(block_base_vpn, subblock_factor, block_base_ppn, attr,
                                  valid_vector);
  InvalidateRange(block_base_vpn, subblock_factor);
}

bool SoftwareTlb::RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) {
  InvalidateRange(block_base_vpn, subblock_factor);
  return backing_->RemovePartialSubblock(block_base_vpn, subblock_factor);
}

std::uint64_t SoftwareTlb::ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
  InvalidateRange(first_vpn, npages);
  return backing_->ProtectRange(first_vpn, npages, attr);
}

std::uint64_t SoftwareTlb::SizeBytesPaperModel() const {
  // The pre-allocated array is real memory the design commits to, unlike a
  // chained table's demand-allocated nodes.
  return std::uint64_t{opts_.num_sets} * opts_.ways * EntryBytes() +
         backing_->SizeBytesPaperModel();
}

std::uint64_t SoftwareTlb::SizeBytesActual() const {
  return alloc_.bytes_live() + backing_->SizeBytesActual();
}

std::string SoftwareTlb::name() const {
  return std::string(opts_.clustered_entries ? "swtlb-clustered+" : "swtlb+") +
         backing_->name();
}

}  // namespace cpt::pt
