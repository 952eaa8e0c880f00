// The per-entry state every fully-associative TLB design keeps, stored as
// parallel arrays (one element per entry) rather than one struct per entry.
//
// Every miss scans all entries, and over 99% of those scans compare a tag
// and move on.  With the tags in one contiguous array a scan reads 8 bytes
// per entry; the asid, valid flag and LRU stamp are read only for the few
// entries whose tag matches, and a design's payload columns (PPNs, valid
// vectors, page sizes) only on a hit or a fill.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tlb/tlb.h"

namespace cpt::tlb {

struct EntryColumns {
  explicit EntryColumns(unsigned n) : tags(n), asids(n), valid(n), stamps(n) {}

  unsigned size() const { return static_cast<unsigned>(tags.size()); }

  // True when entry i is live for `asid`.
  bool Live(unsigned i, Asid asid) const { return valid[i] != 0 && asids[i] == asid; }

  // The first live entry of `asid` for which `match(i)` holds, or size().
  template <class Match>
  unsigned FindLive(Asid asid, Match match) const {
    for (unsigned i = 0; i < size(); ++i) {
      if (match(i) && Live(i, asid)) {
        return i;
      }
    }
    return size();
  }

  // The LRU victim: the last invalid entry, else the oldest stamp (the first
  // such entry on a tie).  Branch-free; the minimum runs over every stamp,
  // which is the minimum over the live ones whenever no entry is invalid.
  unsigned LastInvalidOrOldest() const {
    const unsigned n = size();
    unsigned invalid = n;
    unsigned oldest = 0;
    std::uint64_t oldest_stamp = stamps[0];
    for (unsigned i = 0; i < n; ++i) {
      const bool older = stamps[i] < oldest_stamp;
      oldest_stamp = older ? stamps[i] : oldest_stamp;
      oldest = older ? i : oldest;
      invalid = valid[i] != 0 ? invalid : i;
    }
    return invalid < n ? invalid : oldest;
  }

  // The victim rule of CompleteSubblockTlb: the first invalid entry, else
  // the oldest stamp (the first such entry on a tie).
  unsigned FirstInvalidOrOldest() const {
    const auto first_invalid = std::find(valid.begin(), valid.end(), std::uint8_t{0});
    if (first_invalid != valid.end()) {
      return static_cast<unsigned>(first_invalid - valid.begin());
    }
    return static_cast<unsigned>(std::min_element(stamps.begin(), stamps.end()) - stamps.begin());
  }

  // Rewrites entry i's key as a live entry of `asid` with `tag`.
  void Claim(unsigned i, Asid asid, std::uint64_t tag) {
    tags[i] = tag;
    asids[i] = asid;
    valid[i] = 1;
  }

  void InvalidateAll() { std::fill(valid.begin(), valid.end(), std::uint8_t{0}); }

  // Each design's tag word: a VPN or a block number, or a VPN with its low
  // bits masked off.  The columns compare it as a plain word (bit-packing).
  std::vector<std::uint64_t> tags;
  std::vector<Asid> asids;
  std::vector<std::uint8_t> valid;  // 1: live.  Bytes, not a packed bitset.
  std::vector<std::uint64_t> stamps;

  // Host bytes these columns spend per entry.
  static constexpr std::size_t kEntryBytes =
      sizeof(decltype(tags)::value_type) + sizeof(decltype(asids)::value_type) +
      sizeof(decltype(valid)::value_type) + sizeof(decltype(stamps)::value_type);
};

}  // namespace cpt::tlb
