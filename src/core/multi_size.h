// Multi-page-size clustered system — Section 7.
//
// Processors like the MIPS R4000 support many page sizes (4KB, 16KB, 64KB,
// 256KB, 1MB, ...).  Conventional page tables need roughly one table per
// page size; Section 7 argues that *two* clustered page tables suffice for
// every size between 4KB and 1MB:
//
//   - a small-block table (subblock factor 16, 64KB blocks) holds base
//     pages, partial-subblock PTEs, and superpages up to 64KB — all without
//     replication, via sub-size nodes and the S field;
//   - a large-block table (subblock factor 64 over base pages, 256KB
//     blocks) holds larger superpages: 128KB superpages as two-word
//     sub-size nodes, 256KB as compact nodes, and 512KB/1MB with 2/4
//     compact replicas — a factor of `s` fewer replicas than conventional
//     tables would store.
//
// A TLB miss probes the small table first (small pages miss most often),
// then the large table.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/hotpath.h"
#include "core/clustered.h"
#include "pt/page_table.h"

namespace cpt::core {

class MultiSizeClustered final : public pt::PageTable {
 public:
  struct Options {
    std::uint32_t num_buckets = kDefaultHashBuckets;  // Per constituent table.
    unsigned small_factor = 16;  // Small-block table: pages per block.
    unsigned large_factor = 64;  // Large-block table: pages per block.
  };

  MultiSizeClustered(mem::CacheTouchModel& cache, Options opts);

  [[nodiscard]] CPT_HOT std::optional<pt::TlbFill> Lookup(VirtAddr va) override;
  CPT_HOT void LookupBlock(VirtAddr va, unsigned subblock_factor,
                           std::vector<pt::TlbFill>& out) override;
  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) override;
  bool RemoveBase(Vpn vpn) override;
  pt::PtFeatures features() const override {
    return {.superpages = true, .partial_subblock = true, .adjacent_block_fetch = true};
  }
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) override;
  bool RemoveSuperpage(Vpn base_vpn, PageSize size) override;
  void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor, Ppn block_base_ppn,
                             Attr attr, std::uint16_t valid_vector) override;
  bool RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) override;
  CPT_HOT std::optional<Attr> UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                              std::uint16_t clear_mask) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  std::uint64_t SizeBytesPaperModel() const override;
  std::uint64_t SizeBytesActual() const override;
  std::uint64_t live_translations() const override;
  std::string name() const override { return "clustered-multisize"; }
  // Each constituent under its own header.
  void AuditVisit(check::PtAuditVisitor& visitor) const override;

  ClusteredPageTable& small_table() { return small_; }
  ClusteredPageTable& large_table() { return large_; }
  const ClusteredPageTable& small_table() const { return small_; }
  const ClusteredPageTable& large_table() const { return large_; }

 private:
  Options opts_;
  ClusteredPageTable small_;
  ClusteredPageTable large_;
};

}  // namespace cpt::core
