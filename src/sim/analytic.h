// The appendix's analytic formulae (Table 2): closed-form approximations of
// page-table size and of the average number of cache lines accessed per TLB
// miss.  The paper's results use simulation; these formulae exist to sanity-
// check the simulators (bench_table2 prints both side by side, and property
// tests require exact agreement where the accounting is exact).
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace cpt::sim::analytic {

// Nactive(P): the number of aligned P-base-page virtual regions containing
// at least one mapped page (Table 2's central term).  `mapped` need not be
// sorted; duplicates are tolerated.
std::uint64_t Nactive(const std::vector<Vpn>& mapped, std::uint64_t region_pages);

// ---- Page table size (bytes), per Table 2 ----

// Multi-level linear: sum over levels i=1..nlevels of 4KB * Nactive(2^(9i)).
std::uint64_t MultiLevelLinearBytes(const std::vector<Vpn>& mapped, unsigned nlevels = 6);

// Linear with hashed upper levels: (4KB + 24) * Nactive(512).
std::uint64_t LinearWithHashedBytes(const std::vector<Vpn>& mapped);

// Forward-mapped: sum over levels of n_i * 8 * Nactive(pb_i) for this
// library's level split (leaf 256 entries, root 16).
std::uint64_t ForwardMappedBytes(const std::vector<Vpn>& mapped);

// Hashed: 24 * Nactive(1).
std::uint64_t HashedBytes(const std::vector<Vpn>& mapped);

// Clustered: (8s + 16) * Nactive(s).
std::uint64_t ClusteredBytes(const std::vector<Vpn>& mapped, unsigned subblock_factor);

// Clustered with superpage/PSB PTEs:
//   24 * Nactive(s) * fss + (8s + 16) * Nactive(s) * (1 - fss).
double ClusteredWithSpBytes(const std::vector<Vpn>& mapped, unsigned subblock_factor,
                            double fss);

// ---- Average cache lines per TLB miss, per Table 2 ----

// Hashed / clustered: 1 + alpha/2, where alpha is the hash-table load.
double HashChainLines(double load_factor);

// Linear: 1 + r*m (r = nested-miss ratio, m = lines per nested miss).
double LinearLines(double nested_miss_ratio, double nested_lines);

// Forward-mapped: one line per level.
double ForwardLines(unsigned nlevels = 7);

}  // namespace cpt::sim::analytic
