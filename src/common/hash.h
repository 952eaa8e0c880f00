// Hash functions for hashed and clustered page tables.
//
// The paper's hash tables index 4096 buckets with a function of the VPN (or
// VPBN for clustered tables).  Every hashed structure here uses one full
// 64-bit avalanche mix, so aligned region bases spread over the buckets.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace cpt {

// Fibonacci/xor-fold mix of a 64-bit key; full-avalanche.
constexpr std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

// Maps a VPN/VPBN to a bucket index in [0, num_buckets) through Mix64.
// num_buckets must be a power of two.
class BucketHasher {
 public:
  constexpr explicit BucketHasher(std::uint32_t num_buckets) : mask_(num_buckets - 1) {}

  // Strong address keys (Vpn for hashed tables, Vpbn for clustered ones)
  // unwrap here: hashing is a sanctioned .raw() boundary.
  template <class Tag>
  constexpr std::uint32_t operator()(TaggedU64<Tag> key) const {
    return (*this)(key.raw());
  }

  constexpr std::uint32_t operator()(std::uint64_t key) const {
    return static_cast<std::uint32_t>(Mix64(key) & mask_);
  }

  constexpr std::uint32_t num_buckets() const { return static_cast<std::uint32_t>(mask_ + 1); }

 private:
  std::uint64_t mask_;
};

}  // namespace cpt
