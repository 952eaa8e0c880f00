// Dumps struct layouts — sizeof / alignof / offsetof — as the compiled
// binary sees them, as JSON.  tests/lint/layout_sync_check.py diffs this
// against `tools/cpt_lint.py --layout-report`, so the Python linter's
// *layout model* (the Itanium-style padding arithmetic behind the
// false-sharing, layout-ledger and model-truth-sync rules) is pinned to
// what the C++ compiler actually built: if either side drifts (a reordered
// field, a changed alignas, a model arithmetic bug), the ctest
// `lint_layout_sync` turns red.
//
// Private nested node/entry types are reached through the layout-probe
// aliases on check::TestBackdoor — the same friend the invariant-auditor
// tests use — so no class widens its real API for the dump.
//
// offsetof on non-standard-layout classes is conditionally-supported;
// GCC/Clang define it for every type we probe (the tools/CMakeLists.txt
// target compiles with -Wno-invalid-offsetof to keep the dump exhaustive).
#include <cstddef>
#include <iostream>

#include "check/test_backdoor.h"
#include "common/hash.h"
#include "common/pte.h"
#include "common/stats.h"
#include "common/types.h"
#include "core/multi_size.h"
#include "mem/cache_model.h"
#include "mem/reservation.h"
#include "mem/sim_alloc.h"
#include "obs/json_writer.h"
#include "os/address_space.h"
#include "pt/page_table.h"
#include "sim/machine.h"
#include "tlb/tlb.h"
#include "workload/workload.h"

namespace {

cpt::obs::JsonWriter* g_w = nullptr;

// Each STRUCT(...) block emits one ledger-keyed object; FIELD(name) rows
// are offsetof probes against the block's type.  `Cur` is rebound per block.
#define STRUCT_BEGIN(qual, ...)                            \
  {                                                        \
    using Cur = __VA_ARGS__;                               \
    g_w->Key(qual);                                        \
    g_w->BeginObject();                                    \
    g_w->KV("size", std::uint64_t{sizeof(Cur)});           \
    g_w->KV("align", std::uint64_t{alignof(Cur)});         \
    g_w->Key("fields");                                    \
    g_w->BeginObject();

#define FIELD(name) g_w->KV(#name, std::uint64_t{offsetof(Cur, name)});

#define STRUCT_END() \
    g_w->EndObject(); \
    g_w->EndObject(); \
  }

void DumpStructs() {
  using cpt::check::TestBackdoor;

  // ---- common ----
  STRUCT_BEGIN("MappingWord", cpt::MappingWord) STRUCT_END()
  STRUCT_BEGIN("AtomicMappingWord", cpt::AtomicMappingWord) STRUCT_END()
  STRUCT_BEGIN("Attr", cpt::Attr) STRUCT_END()
  STRUCT_BEGIN("PageSize", cpt::PageSize) STRUCT_END()
  STRUCT_BEGIN("BlockSpan", cpt::BlockSpan)
    FIELD(first) FIELD(pages)
  STRUCT_END()
  STRUCT_BEGIN("Histogram", cpt::Histogram) STRUCT_END()
  STRUCT_BEGIN("RunningStats", cpt::RunningStats) STRUCT_END()
  STRUCT_BEGIN("BucketHasher", cpt::BucketHasher) STRUCT_END()

  // ---- pt ----
  STRUCT_BEGIN("TlbFill", cpt::pt::TlbFill)
    FIELD(kind) FIELD(base_vpn) FIELD(pages_log2) FIELD(word)
  STRUCT_END()
  STRUCT_BEGIN("PageTable", cpt::pt::PageTable) STRUCT_END()
  STRUCT_BEGIN("HashedPageTable", cpt::pt::HashedPageTable) STRUCT_END()
  STRUCT_BEGIN("HashedPageTable::Options", cpt::pt::HashedPageTable::Options)
    FIELD(num_buckets) FIELD(tag_shift) FIELD(packed_pte) FIELD(inverted)
    FIELD(hash_kind) FIELD(placement)
  STRUCT_END()
  STRUCT_BEGIN("HashedPageTable::Node", TestBackdoor::HashedNode)
    FIELD(key) FIELD(base_vpn) FIELD(word) FIELD(next) FIELD(addr)
  STRUCT_END()
  STRUCT_BEGIN("SuperpageIndexHashed", cpt::pt::SuperpageIndexHashed) STRUCT_END()
  STRUCT_BEGIN("SuperpageIndexHashed::Node", TestBackdoor::SuperpageIndexNode)
    FIELD(base_vpn) FIELD(pages_log2) FIELD(word) FIELD(next) FIELD(addr)
  STRUCT_END()
  STRUCT_BEGIN("MultiTableHashed", cpt::pt::MultiTableHashed) STRUCT_END()
  STRUCT_BEGIN("ForwardMappedPageTable", cpt::pt::ForwardMappedPageTable) STRUCT_END()
  STRUCT_BEGIN("ForwardMappedPageTable::Leaf", TestBackdoor::ForwardLeaf)
    FIELD(addr) FIELD(slots) FIELD(live)
  STRUCT_END()
  STRUCT_BEGIN("ForwardMappedPageTable::Inner", TestBackdoor::ForwardInner)
    FIELD(addr) FIELD(children) FIELD(super_slots)
  STRUCT_END()
  STRUCT_BEGIN("LinearPageTable", cpt::pt::LinearPageTable) STRUCT_END()
  STRUCT_BEGIN("LinearPageTable::Leaf", TestBackdoor::LinearLeaf)
    FIELD(addr) FIELD(slots) FIELD(live)
  STRUCT_END()
  STRUCT_BEGIN("SoftwareTlb", cpt::pt::SoftwareTlb) STRUCT_END()
  STRUCT_BEGIN("SoftwareTlb::Entry", TestBackdoor::SoftwareTlbEntry)
    FIELD(key) FIELD(valid) FIELD(stamp) FIELD(fills)
  STRUCT_END()

  // ---- core ----
  STRUCT_BEGIN("ClusteredPageTable", cpt::core::ClusteredPageTable) STRUCT_END()
  STRUCT_BEGIN("ClusteredPageTable::Node", TestBackdoor::ClusteredNode)
    FIELD(tag) FIELD(sub_log2) FIELD(next) FIELD(addr) FIELD(words)
  STRUCT_END()
  STRUCT_BEGIN("AdaptiveClusteredPageTable", cpt::core::AdaptiveClusteredPageTable) STRUCT_END()
  STRUCT_BEGIN("AdaptiveClusteredPageTable::Node", TestBackdoor::AdaptiveNode)
    FIELD(tag) FIELD(kind) FIELD(boff) FIELD(next) FIELD(addr) FIELD(words)
  STRUCT_END()
  STRUCT_BEGIN("MultiSizeClustered", cpt::core::MultiSizeClustered) STRUCT_END()

  // ---- tlb ----
  STRUCT_BEGIN("Tlb", cpt::tlb::Tlb) STRUCT_END()
  STRUCT_BEGIN("TlbStats", cpt::tlb::TlbStats)
    FIELD(accesses) FIELD(hits) FIELD(misses) FIELD(block_misses)
    FIELD(subblock_misses)
  STRUCT_END()
  STRUCT_BEGIN("SinglePageTlb", cpt::tlb::SinglePageTlb) STRUCT_END()
  STRUCT_BEGIN("SinglePageTlb::Entry", TestBackdoor::SinglePageEntry)
    FIELD(asid) FIELD(vpn) FIELD(ppn) FIELD(valid) FIELD(stamp)
  STRUCT_END()
  STRUCT_BEGIN("SuperpageTlb", cpt::tlb::SuperpageTlb) STRUCT_END()
  STRUCT_BEGIN("SuperpageTlb::Entry", TestBackdoor::SuperpageEntry)
    FIELD(asid) FIELD(base_vpn) FIELD(base_ppn) FIELD(pages_log2)
    FIELD(valid) FIELD(stamp)
  STRUCT_END()
  STRUCT_BEGIN("PartialSubblockTlb", cpt::tlb::PartialSubblockTlb) STRUCT_END()
  STRUCT_BEGIN("PartialSubblockTlb::Entry", TestBackdoor::PartialSubblockEntry)
    FIELD(asid) FIELD(vpbn) FIELD(block_ppn) FIELD(vector) FIELD(block_entry)
    FIELD(single_vpn) FIELD(single_ppn) FIELD(valid) FIELD(stamp)
  STRUCT_END()
  STRUCT_BEGIN("CompleteSubblockTlb", cpt::tlb::CompleteSubblockTlb) STRUCT_END()
  STRUCT_BEGIN("CompleteSubblockTlb::Entry", TestBackdoor::CompleteSubblockEntry)
    FIELD(asid) FIELD(vpbn) FIELD(vector) FIELD(ppns) FIELD(valid) FIELD(stamp)
  STRUCT_END()
  STRUCT_BEGIN("DualSizeSetAssocTlb", cpt::tlb::DualSizeSetAssocTlb) STRUCT_END()
  STRUCT_BEGIN("DualSizeSetAssocTlb::Entry", TestBackdoor::DualSizeEntry)
    FIELD(asid) FIELD(base_vpn) FIELD(base_ppn) FIELD(pages_log2)
    FIELD(valid) FIELD(stamp)
  STRUCT_END()

  // ---- mem ----
  STRUCT_BEGIN("CacheTouchModel", cpt::mem::CacheTouchModel) STRUCT_END()
  STRUCT_BEGIN("SimAllocator", cpt::mem::SimAllocator) STRUCT_END()
  STRUCT_BEGIN("ReservationAllocator", cpt::mem::ReservationAllocator) STRUCT_END()
  STRUCT_BEGIN("ReservationAllocator::FrameGrant",
               cpt::mem::ReservationAllocator::FrameGrant)
    FIELD(ppn) FIELD(properly_placed)
  STRUCT_END()

  // ---- os / sim / workload ----
  STRUCT_BEGIN("AddressSpace", cpt::os::AddressSpace) STRUCT_END()
  STRUCT_BEGIN("Machine", cpt::sim::Machine) STRUCT_END()
  STRUCT_BEGIN("MachineOptions", cpt::sim::MachineOptions) STRUCT_END()
  STRUCT_BEGIN("Reference", cpt::workload::Reference)
    FIELD(asid) FIELD(va) FIELD(is_write)
  STRUCT_END()
}

#undef STRUCT_BEGIN
#undef FIELD
#undef STRUCT_END

}  // namespace

int main() {
  cpt::obs::JsonWriter w(std::cout, /*pretty=*/true);
  g_w = &w;
  w.BeginObject();
  w.KV("schema", "cpt-dump-layout");
  w.KV("version", std::uint64_t{1});
  w.KV("host_line_bytes", std::uint64_t{CPT_CACHE_LINE});
  w.KV("sim_line_bytes", std::uint64_t{cpt::kDefaultCacheLineSize});
  w.KV("word_bytes", std::uint64_t{sizeof(cpt::MappingWord)});
  w.Key("structs");
  w.BeginObject();
  DumpStructs();
  w.EndObject();
  w.EndObject();
  std::cout << '\n';
  return 0;
}
