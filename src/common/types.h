// Core address types and page geometry for the clustered-page-table library.
//
// Terminology follows Talluri, Hill & Khalidi (SOSP '95):
//   - base page:   the smallest translation unit (4KB).
//   - page block:  an aligned group of `subblock_factor` consecutive base
//                  pages (e.g. sixteen 4KB pages = one 64KB block).
//   - VPN:         virtual page number  (va >> 12).
//   - VPBN:        virtual page block number (vpn / subblock_factor).
//   - Boff:        block offset (vpn % subblock_factor).
//   - PPN:         physical page number.
//
// Each of those domains is a distinct strong type (TaggedU64 below), so the
// translation arithmetic the paper's Sections 4-5 are built on — VA -> VPN ->
// (VPBN, Boff) -> PPN — can only be written through the named crossing
// functions (VpnOf, VpbnOf, FirstVpnOfBlock, ...).  Passing a VPN where a
// VPBN is expected, or feeding an unshifted virtual address into a page-table
// probe, is a compile error instead of a silently wrong count deep in a
// bench run.  See DESIGN.md "Address domains" for the taxonomy and the
// `.raw()` escape-hatch policy.
#pragma once

#include <bit>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>

#include "common/check.h"

namespace cpt {

constexpr bool IsPowerOfTwo(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

// Floor of log2.  The argument must be nonzero: countl_zero(0) would
// underflow the subtraction to a huge unsigned value.
constexpr unsigned Log2(std::uint64_t x) {
  CPT_DCHECK(x != 0, "Log2(0) is undefined");
  return static_cast<unsigned>(63 - std::countl_zero(x));
}

// Zero-overhead strong wrapper over std::uint64_t, parameterized by an empty
// tag struct per address domain.  Construction from a raw integer is
// explicit; there is no implicit conversion back.  Within one domain the
// natural affine operations are allowed (compare, offset by a count,
// distance between two values); everything that crosses domains goes through
// a named constexpr function below so every `>> kBasePageShift` in the tree
// has exactly one audited home.
//
// A tag may declare `static constexpr std::uint64_t kMaxRaw` to give the
// domain a representable range; construction then CPT_DCHECKs the bound
// (used by Ppn, whose 28 bits come from the paper's PTE format, Figure 1).
//
// `.raw()` is the escape hatch for genuine boundaries — hashing,
// serialization, bit-packing.  Policy (enforced by review + the
// raw-address-param lint rule keeping raw u64 out of public signatures):
// call sites outside those boundaries carry a justifying comment.
template <class Tag>
class TaggedU64 {
 public:
  constexpr TaggedU64() = default;
  explicit constexpr TaggedU64(std::uint64_t raw) : raw_(raw) {
    if constexpr (requires { Tag::kMaxRaw; }) {
      CPT_DCHECK(raw <= Tag::kMaxRaw, "value outside the domain's representable range");
    }
  }

  constexpr std::uint64_t raw() const { return raw_; }

  friend constexpr bool operator==(TaggedU64 a, TaggedU64 b) = default;
  friend constexpr std::strong_ordering operator<=>(TaggedU64 a, TaggedU64 b) = default;

  // Distance between two values of the same domain (number of pages between
  // two VPNs, bytes between two addresses).
  friend constexpr std::uint64_t operator-(TaggedU64 a, TaggedU64 b) { return a.raw_ - b.raw_; }

  // Offsetting within a domain stays in the domain (vpn + 3 pages is a VPN).
  friend constexpr TaggedU64 operator+(TaggedU64 a, std::uint64_t n) {
    return TaggedU64(a.raw_ + n);
  }
  friend constexpr TaggedU64 operator-(TaggedU64 a, std::uint64_t n) {
    return TaggedU64(a.raw_ - n);
  }
  constexpr TaggedU64& operator+=(std::uint64_t n) { return *this = *this + n; }
  constexpr TaggedU64& operator-=(std::uint64_t n) { return *this = *this - n; }
  constexpr TaggedU64& operator++() { return *this += 1; }
  constexpr TaggedU64 operator++(int) {
    TaggedU64 old = *this;
    ++*this;
    return old;
  }

 private:
  std::uint64_t raw_ = 0;
};

// 4KB base pages, as in the paper's base configuration.
inline constexpr unsigned kBasePageShift = 12;
inline constexpr std::uint64_t kBasePageSize = std::uint64_t{1} << kBasePageShift;
inline constexpr std::uint64_t kBasePageMask = kBasePageSize - 1;

// Paper's PTE format (Figure 1): 28-bit PPN => 40-bit physical addresses.
inline constexpr unsigned kPpnBits = 28;
inline constexpr std::uint64_t kPpnMask = (std::uint64_t{1} << kPpnBits) - 1;

struct VirtAddrTag {};
struct PhysAddrTag {};
struct VpnTag {};
struct VpbnTag {};
struct PpnTag {
  static constexpr std::uint64_t kMaxRaw = kPpnMask;
};

using VirtAddr = TaggedU64<VirtAddrTag>;  // 64-bit virtual address.
using PhysAddr = TaggedU64<PhysAddrTag>;  // Physical byte address (simulated).
using Vpn = TaggedU64<VpnTag>;            // Virtual page number.
using Vpbn = TaggedU64<VpbnTag>;          // Virtual page block number.
using Ppn = TaggedU64<PpnTag>;            // Physical page number (28 bits).

inline constexpr Ppn kMaxPpn{kPpnMask};

// The strong types must stay layout-identical to the raw words they wrap:
// they live inside 8-byte PTE-adjacent structs, vectors, and trace payloads.
static_assert(sizeof(Vpn) == 8 && std::is_trivially_copyable_v<Vpn>);
static_assert(sizeof(Vpbn) == 8 && std::is_trivially_copyable_v<Vpbn>);
static_assert(sizeof(Ppn) == 8 && std::is_trivially_copyable_v<Ppn>);
static_assert(sizeof(VirtAddr) == 8 && std::is_trivially_copyable_v<VirtAddr>);
static_assert(sizeof(PhysAddr) == 8 && std::is_trivially_copyable_v<PhysAddr>);

// The whole point: no domain converts to another (or back to a raw integer)
// without going through a named crossing.
static_assert(!std::is_convertible_v<Vpn, Vpbn> && !std::is_convertible_v<Vpbn, Vpn>);
static_assert(!std::is_convertible_v<Vpn, Ppn> && !std::is_convertible_v<Ppn, Vpn>);
static_assert(!std::is_convertible_v<std::uint64_t, Vpn> &&
              !std::is_convertible_v<Vpn, std::uint64_t>);
static_assert(!std::is_convertible_v<VirtAddr, Vpn> && !std::is_convertible_v<Vpn, VirtAddr>);

// Default subblock factor used throughout the paper's evaluation.
inline constexpr unsigned kDefaultSubblockFactor = 16;

// Default (level-two) cache line size assumed when counting page-table
// cache-line touches (Section 6.1).
inline constexpr unsigned kDefaultCacheLineSize = 256;

// Default number of hash buckets for hashed/clustered tables (Section 6.1).
inline constexpr unsigned kDefaultHashBuckets = 4096;

// ---- Domain crossings ------------------------------------------------------

constexpr Vpn VpnOf(VirtAddr va) { return Vpn(va.raw() >> kBasePageShift); }
constexpr VirtAddr VaOf(Vpn vpn) { return VirtAddr(vpn.raw() << kBasePageShift); }
constexpr std::uint64_t PageOffset(VirtAddr va) { return va.raw() & kBasePageMask; }

constexpr Ppn PpnOf(PhysAddr pa) { return Ppn(pa.raw() >> kBasePageShift); }
constexpr PhysAddr PaOf(Ppn ppn) { return PhysAddr(ppn.raw() << kBasePageShift); }

// Splits a VPN into (VPBN, Boff).  `subblock_factor` must be a power of two
// (the paper's subblock factors are 2^k; every table rounds its factor up),
// which lets the crossings compile to shift/mask.
constexpr Vpbn VpbnOf(Vpn vpn, unsigned subblock_factor) {
  CPT_DCHECK(IsPowerOfTwo(subblock_factor), "subblock factor must be a power of two");
  return Vpbn(vpn.raw() >> Log2(subblock_factor));
}
constexpr unsigned BoffOf(Vpn vpn, unsigned subblock_factor) {
  CPT_DCHECK(IsPowerOfTwo(subblock_factor), "subblock factor must be a power of two");
  return static_cast<unsigned>(vpn.raw() & (subblock_factor - 1));
}
constexpr Vpn FirstVpnOfBlock(Vpbn vpbn, unsigned subblock_factor) {
  CPT_DCHECK(IsPowerOfTwo(subblock_factor), "subblock factor must be a power of two");
  return Vpn(vpbn.raw() << Log2(subblock_factor));
}

// A page size expressed as a power-of-two multiple of the base page size.
// size_log2 == 0 is a 4KB base page; size_log2 == 4 is a 64KB superpage.
struct PageSize {
  unsigned size_log2 = 0;

  constexpr unsigned pages() const { return 1u << size_log2; }
  constexpr std::uint64_t bytes() const { return kBasePageSize << size_log2; }
  constexpr bool is_base() const { return size_log2 == 0; }

  friend constexpr bool operator==(PageSize a, PageSize b) = default;
};

inline constexpr PageSize kPage4K{0};
inline constexpr PageSize kPage8K{1};
inline constexpr PageSize kPage16K{2};
inline constexpr PageSize kPage64K{4};

// First VPN of the naturally-aligned superpage of `size` containing `vpn`
// (a superpage mapping's base_vpn, Section 4.2).
constexpr Vpn SuperpageBaseVpn(Vpn vpn, PageSize size) {
  return Vpn(vpn.raw() & ~std::uint64_t{size.pages() - 1u});
}
// Like SuperpageBaseVpn for PPNs: superpage mappings require size-aligned
// physical placement.
constexpr Ppn SuperpageBasePpn(Ppn ppn, PageSize size) {
  return Ppn(ppn.raw() & ~std::uint64_t{size.pages() - 1u});
}
constexpr bool IsSuperpageAligned(Vpn vpn, PageSize size) {
  return SuperpageBaseVpn(vpn, size) == vpn;
}
constexpr bool IsSuperpageAligned(Ppn ppn, PageSize size) {
  return SuperpageBasePpn(ppn, size) == ppn;
}

// The half-open VPN range [first, first + pages) of one aligned span: a page
// block (BlockSpanOf) or a superpage.  Keeps "which page of the block is
// this" arithmetic in one audited place.
struct BlockSpan {
  Vpn first{};
  unsigned pages = 0;

  constexpr Vpn end() const { return first + pages; }
  constexpr bool Contains(Vpn vpn) const { return first <= vpn && vpn < end(); }
  constexpr unsigned IndexOf(Vpn vpn) const {
    CPT_DCHECK(Contains(vpn), "vpn outside the span");
    return static_cast<unsigned>(vpn - first);
  }

  friend constexpr bool operator==(BlockSpan a, BlockSpan b) = default;
};

constexpr BlockSpan BlockSpanOf(Vpbn vpbn, unsigned subblock_factor) {
  return BlockSpan{FirstVpnOfBlock(vpbn, subblock_factor), subblock_factor};
}
constexpr BlockSpan BlockSpanContaining(Vpn vpn, unsigned subblock_factor) {
  return BlockSpanOf(VpbnOf(vpn, subblock_factor), subblock_factor);
}

// Streams print the raw word (diagnostics and test failure messages only;
// simulated output goes through the obs JSON writers).  Constrained so this
// never resurrects integer `<<` shifts on tagged values.
template <class Stream, class Tag>
  requires(!std::is_arithmetic_v<Stream> && requires(Stream& s) {
    typename Stream::char_type;
    s << std::uint64_t{};
  })
Stream& operator<<(Stream& os, TaggedU64<Tag> v) {
  os << v.raw();
  return os;
}

}  // namespace cpt

// Strong address types hash as their raw word so they drop into
// unordered containers (this, hashing, is a sanctioned .raw() boundary).
template <class Tag>
struct std::hash<cpt::TaggedU64<Tag>> {
  std::size_t operator()(cpt::TaggedU64<Tag> v) const noexcept {
    return std::hash<std::uint64_t>{}(v.raw());
  }
};
