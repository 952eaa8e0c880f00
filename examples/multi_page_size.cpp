// Multi-page-size page tables (Section 7): two clustered tables cover
// every page size from 4KB to 1MB, where conventional designs need one
// table (or replication blow-up) per size.
//
//   $ build/examples/multi_page_size
//
// Maps a MIPS-R4000-style mix of page sizes and compares:
//   - two clustered tables (4KB-64KB + 128KB-1MB), vs
//   - per-size hashed tables (one per page size in use), vs
//   - a single linear table with replicated PTEs.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/multi_size.h"
#include "mem/cache_model.h"
#include "pt/hashed.h"
#include "pt/linear.h"

using namespace cpt;

namespace {

struct Mapping {
  Vpn base_vpn;
  unsigned size_log2;  // 0 = 4KB base page.
};

// A server-style mix: code/heap base pages, buffer superpages, a frame
// buffer and database pool in large superpages.
std::vector<Mapping> BuildWorkload() {
  std::vector<Mapping> maps;
  for (unsigned i = 0; i < 300; ++i) {
    maps.push_back({Vpn{0x100000 + i}, 0});  // 300 x 4KB.
  }
  for (unsigned i = 0; i < 40; ++i) {
    maps.push_back({Vpn{0x200000 + i * 4}, 2});  // 40 x 16KB.
  }
  for (unsigned i = 0; i < 24; ++i) {
    maps.push_back({Vpn{0x300000 + i * 16}, 4});  // 24 x 64KB.
  }
  for (unsigned i = 0; i < 8; ++i) {
    maps.push_back({Vpn{0x400000 + i * 64}, 6});  // 8 x 256KB.
  }
  for (unsigned i = 0; i < 3; ++i) {
    maps.push_back({Vpn{0x500000 + i * 256}, 8});  // 3 x 1MB.
  }
  return maps;
}

}  // namespace

int main() {
  const std::vector<Mapping> maps = BuildWorkload();
  mem::CacheTouchModel cache(256);

  // --- Two clustered tables ---
  core::MultiSizeClustered clustered(cache, {});
  for (const Mapping& m : maps) {
    if (m.size_log2 == 0) {
      clustered.InsertBase(m.base_vpn, Ppn{m.base_vpn.raw() & kPpnMask}, Attr::ReadWrite());
    } else {
      clustered.InsertSuperpage(
          m.base_vpn, PageSize{m.size_log2},
          Ppn{m.base_vpn.raw() & kPpnMask & ~((1ull << m.size_log2) - 1)},
          Attr::ReadWrite());
    }
  }

  // --- One hashed table per page size (the conventional multi-table way) ---
  std::vector<std::unique_ptr<pt::HashedPageTable>> per_size;
  std::uint64_t hashed_bytes = 0;
  for (const unsigned log2 : {0u, 2u, 4u, 6u, 8u}) {
    auto table = std::make_unique<pt::HashedPageTable>(
        cache, pt::HashedPageTable::Options{.tag_shift = log2});
    for (const Mapping& m : maps) {
      if (m.size_log2 != log2) {
        continue;
      }
      if (log2 == 0) {
        table->InsertBase(m.base_vpn, Ppn{m.base_vpn.raw() & kPpnMask}, Attr::ReadWrite());
      } else {
        table->InsertSuperpage(m.base_vpn, PageSize{log2},
                               Ppn{m.base_vpn.raw() & kPpnMask & ~((1ull << log2) - 1)},
                               Attr::ReadWrite());
      }
    }
    hashed_bytes += table->SizeBytesPaperModel();
    per_size.push_back(std::move(table));
  }

  // --- Linear with replicated PTEs ---
  pt::LinearPageTable linear(cache, {.size_model = pt::LinearPageTable::SizeModel::kOneLevel});
  for (const Mapping& m : maps) {
    if (m.size_log2 == 0) {
      linear.InsertBase(m.base_vpn, Ppn{m.base_vpn.raw() & kPpnMask}, Attr::ReadWrite());
    } else {
      linear.InsertSuperpage(
          m.base_vpn, PageSize{m.size_log2},
          Ppn{m.base_vpn.raw() & kPpnMask & ~((1ull << m.size_log2) - 1)},
          Attr::ReadWrite());
    }
  }

  std::printf("375 mappings across five page sizes (4KB..1MB), as on a MIPS R4000:\n\n");
  std::printf("  two clustered tables:     %6llu bytes, 2 tables to search\n",
              (unsigned long long)clustered.SizeBytesPaperModel());
  std::printf("  per-size hashed tables:   %6llu bytes, 5 tables to search\n",
              (unsigned long long)hashed_bytes);
  std::printf("  linear w/ replicate-PTEs: %6llu bytes, 1 table (every superpage\n"
              "                            replicated at all of its base sites)\n\n",
              (unsigned long long)linear.SizeBytesPaperModel());

  // Verify the clustered system translates every size correctly.
  unsigned errors = 0;
  for (const Mapping& m : maps) {
    const unsigned span = 1u << m.size_log2;
    for (unsigned off = 0; off < span; off += (span + 3) / 4 + 1) {
      cache.BeginWalk();
      auto fill = clustered.Lookup(VaOf(m.base_vpn + off));
      cache.EndWalk();
      if (!fill || !fill->Covers(m.base_vpn + off)) {
        ++errors;
      }
    }
  }
  std::printf("translation check: %u errors; avg %.2f cache lines per lookup\n", errors,
              cache.AvgLinesPerWalk());
  std::printf(
      "\nSection 7's point: clustered tables co-store sizes up to the block\n"
      "size in place (S field), so two tables cover 4KB-1MB, while larger\n"
      "sizes replicate once per *block* instead of once per *base page*.\n");
  return 0;
}
