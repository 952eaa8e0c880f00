// Fixture: nodiscard-query.  Lookup-style query declarations must be
// [[nodiscard]] — discarding a lookup result is always a bug.
#pragma once

#include <cstdint>

namespace fx {

struct Result {
  bool hit = false;
};

class Table {
 public:
  // BAD: missing [[nodiscard]].
  Result Lookup(std::uint64_t slot) const;

  // GOOD: already annotated.
  [[nodiscard]] Result LookupKey(std::uint64_t key) const;

  // GOOD: void-returning mutator named Lookup-ish is not a query.
  void Insert(std::uint64_t slot);
};

}  // namespace fx
