// Fixture: raw-address-param.  Address-domain values (VAs, VPNs, VPBNs,
// PPNs, block numbers) cross public-header APIs as the strong types from
// common/types.h; raw std::uint64_t parameters and returns named after an
// address domain are flagged.
#pragma once

#include <cstdint>

namespace fx {

class Table {
 public:
  // BAD: a VPN and a PPN crossing as raw integers (two findings).
  void Insert(std::uint64_t vpn, std::uint64_t ppn);

  // BAD: returns a PPN raw, and takes a raw VPN (two findings).
  std::uint64_t TranslatePpn(std::uint64_t vpn) const;

  // GOOD: counts, factors, and opaque hash keys are genuinely integral.
  void Reserve(std::uint64_t npages, unsigned subblock_factor);
  void Probe(std::uint64_t key) const;
  std::uint64_t node_count() const;

  // GOOD: a sanctioned domain crossing carries a suppression.
  // cpt-lint: allow(raw-address-param)
  std::uint64_t BlockKeyOf(std::uint64_t raw) const;

  // BAD: snake_case domain word inside the parameter name.
  void MapRange(std::uint64_t first_vpn, std::uint64_t n);
};

// BAD: free function returning a fault VA as a raw integer.
std::uint64_t FaultVaOf(std::uint64_t cause);

}  // namespace fx
