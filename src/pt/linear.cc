#include "pt/linear.h"

#include "common/check.h"

namespace cpt::pt {

LinearPageTable::LinearPageTable(mem::CacheTouchModel& cache, Options opts)
    : ReplicatedLeafTable(cache), opts_(opts) {}

LinearPageTable::~LinearPageTable() = default;

void LinearPageTable::OnLeafAdded(Vpn vpn) {
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    if (upper_[level][vpn.raw() >> (kBitsPerLevel * level)]++ != 0) {
      break;  // This subtree already existed; ancestors are already counted.
    }
  }
}

void LinearPageTable::OnLeafFreed(Vpn vpn) {
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    auto it = upper_[level].find(vpn.raw() >> (kBitsPerLevel * level));
    CPT_DCHECK(it != upper_[level].end() && it->second > 0);
    if (--it->second != 0) {
      break;
    }
    upper_[level].erase(it);
  }
}

void LinearPageTable::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  // Replicate-PTEs (Section 4.2): the superpage PTE is stored at the page
  // table site of every base page it covers.
  CPT_DCHECK(IsSuperpageAligned(base_vpn, size) && IsSuperpageAligned(base_ppn, size));
  WriteReplicas(base_vpn, size.pages(), MappingWord::Superpage(base_ppn, attr, size),
                ReplicaSites::kAll);
}

bool LinearPageTable::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  return WriteReplicas(base_vpn, size.pages(), MappingWord::Invalid(), ReplicaSites::kAll);
}

std::array<std::uint64_t, LinearPageTable::kNumLevels> LinearPageTable::ActiveNodesPerLevel()
    const {
  std::array<std::uint64_t, kNumLevels> counts{};
  counts[0] = leaf_count();
  for (unsigned level = 2; level <= kNumLevels; ++level) {
    counts[level - 1] = upper_[level].size();
  }
  return counts;
}

std::uint64_t LinearPageTable::SizeBytesPaperModel() const {
  std::uint64_t pages = leaf_count();
  if (opts_.size_model == SizeModel::kSixLevel) {
    for (unsigned level = 2; level <= kNumLevels; ++level) {
      pages += upper_[level].size();
    }
  }
  std::uint64_t bytes = pages * kBasePageSize;
  if (opts_.size_model == SizeModel::kHashedUpper) {
    // A hashed table (24-byte PTEs) stores the translations to the
    // first-level linear page table: (4KB + 24) * Nactive(512).
    bytes += leaf_count() * 24;
  }
  return bytes;
}

std::uint64_t LinearPageTable::SizeBytesActual() const {
  std::uint64_t bytes = alloc_.bytes_live();
  if (opts_.size_model == SizeModel::kSixLevel) {
    for (unsigned level = 2; level <= kNumLevels; ++level) {
      bytes += upper_[level].size() * kBasePageSize;
    }
  }
  return bytes;
}

std::string LinearPageTable::name() const {
  switch (opts_.size_model) {
    case SizeModel::kSixLevel:
      return "linear-6level";
    case SizeModel::kOneLevel:
      return "linear-1level";
    case SizeModel::kHashedUpper:
      return "linear-hashed";
  }
  return "linear";
}

}  // namespace cpt::pt
