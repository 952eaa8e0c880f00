// Tests for the strong address types (common/types.h): the compile-time
// round-trip identities the domain crossings promise, the non-convertibility
// that makes the tags worth having, and the contract checks (Log2(0),
// non-power-of-two subblock factors) that die instead of corrupting counts.
//
// Most of this file is static_asserts: the crossings are constexpr, so the
// identities are proved at compile time and the TESTs merely anchor them to
// the runner's output.
#include "common/types.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <type_traits>
#include <unordered_set>

namespace cpt {
namespace {

// ---------------------------------------------------------------------------
// VA <-> VPN round trips.
// ---------------------------------------------------------------------------

static_assert(VpnOf(VirtAddr{0x0000123456789ABCull}) == Vpn{0x0000123456789ull});
static_assert(VaOf(Vpn{0x0000123456789ull}) == VirtAddr{0x0000123456789000ull});
static_assert(PageOffset(VirtAddr{0x0000123456789ABCull}) == 0xABCull);
// VaOf . VpnOf truncates to the page base; VpnOf . VaOf is the identity.
static_assert(VpnOf(VaOf(Vpn{0x12345})) == Vpn{0x12345});
static_assert(VaOf(VpnOf(VirtAddr{0x1000F})) == VirtAddr{0x10000});

// PA <-> PPN round trips (28-bit PPNs; Figure 1).
static_assert(PpnOf(PaOf(Ppn{0xABCDEF1})) == Ppn{0xABCDEF1});
static_assert(PpnOf(PaOf(kMaxPpn)) == kMaxPpn);

// ---------------------------------------------------------------------------
// VPN <-> (VPBN, Boff) round trips for every subblock factor the paper's
// evaluation uses (4, 16, 64).
// ---------------------------------------------------------------------------

constexpr bool BlockRoundTrips(std::uint64_t raw_vpn, unsigned factor) {
  const Vpn vpn{raw_vpn};
  const Vpbn vpbn = VpbnOf(vpn, factor);
  const unsigned boff = BoffOf(vpn, factor);
  return boff < factor && FirstVpnOfBlock(vpbn, factor) + boff == vpn &&
         BlockSpanOf(vpbn, factor).Contains(vpn) &&
         BlockSpanContaining(vpn, factor).IndexOf(vpn) == boff;
}

static_assert(BlockRoundTrips(0x12345, 4));
static_assert(BlockRoundTrips(0x12345, 16));
static_assert(BlockRoundTrips(0x12345, 64));
static_assert(BlockRoundTrips(0, 16));
static_assert(BlockRoundTrips((1ull << 52) - 1, 16));
static_assert(BlockRoundTrips((1ull << 52) - 1, 64));

static_assert(VpbnOf(Vpn{0x12345}, 16) == Vpbn{0x1234});
static_assert(BoffOf(Vpn{0x12345}, 16) == 5u);
static_assert(FirstVpnOfBlock(Vpbn{0x1234}, 16) == Vpn{0x12340});

// ---------------------------------------------------------------------------
// PageSize geometry and superpage alignment.
// ---------------------------------------------------------------------------

static_assert(kPage4K.bytes() == 4096u && kPage4K.pages() == 1u && kPage4K.is_base());
static_assert(kPage8K.bytes() == 8192u && kPage8K.pages() == 2u);
static_assert(kPage16K.bytes() == 16384u && kPage16K.pages() == 4u);
static_assert(kPage64K.bytes() == 65536u && kPage64K.pages() == 16u && !kPage64K.is_base());

static_assert(SuperpageBaseVpn(Vpn{0x1234F}, kPage64K) == Vpn{0x12340});
static_assert(SuperpageBasePpn(Ppn{0x8007}, kPage64K) == Ppn{0x8000});
static_assert(IsSuperpageAligned(Vpn{0x12340}, kPage64K));
static_assert(!IsSuperpageAligned(Vpn{0x12341}, kPage64K));
static_assert(IsSuperpageAligned(Ppn{0x8000}, kPage64K));
static_assert(!IsSuperpageAligned(Ppn{0x8008}, kPage64K));

// ---------------------------------------------------------------------------
// Negative checks: the domains must NOT interconvert.  These are the
// guarantees the tree-wide sweep leans on; losing one silently reopens the
// unshifted-address bug class.
// ---------------------------------------------------------------------------

static_assert(!std::is_convertible_v<Vpn, Vpbn>);
static_assert(!std::is_convertible_v<Vpbn, Vpn>);
static_assert(!std::is_convertible_v<Vpn, Ppn>);
static_assert(!std::is_convertible_v<Ppn, Vpn>);
static_assert(!std::is_convertible_v<VirtAddr, Vpn>);
static_assert(!std::is_convertible_v<Vpn, VirtAddr>);
static_assert(!std::is_convertible_v<VirtAddr, PhysAddr>);
static_assert(!std::is_convertible_v<PhysAddr, VirtAddr>);
static_assert(!std::is_convertible_v<std::uint64_t, Vpn>);
static_assert(!std::is_convertible_v<Vpn, std::uint64_t>);
static_assert(!std::is_convertible_v<int, Ppn>);
static_assert(!std::is_constructible_v<Vpn, Vpbn>);
static_assert(!std::is_constructible_v<Ppn, Vpn>);

// Explicit construction from the raw word is the only way in.
static_assert(std::is_constructible_v<Vpn, std::uint64_t>);
static_assert(std::is_nothrow_default_constructible_v<Vpn>);

// ABI pin: the tags add nothing to the representation.
static_assert(sizeof(Vpn) == 8 && std::is_trivially_copyable_v<Vpn>);
static_assert(sizeof(VirtAddr) == 8 && std::is_trivially_copyable_v<VirtAddr>);

// Same-domain affine algebra stays in the domain; distance is a raw count.
static_assert(Vpn{0x100} + 5 == Vpn{0x105});
static_assert(Vpn{0x105} - 5 == Vpn{0x100});
static_assert(Vpn{0x105} - Vpn{0x100} == 5u);
static_assert(std::is_same_v<decltype(Vpn{1} + 1), Vpn>);
static_assert(std::is_same_v<decltype(Vpn{2} - Vpn{1}), std::uint64_t>);

// Log2 / IsPowerOfTwo on valid inputs.
static_assert(Log2(1) == 0u && Log2(16) == 4u && Log2(4096) == 12u);
static_assert(IsPowerOfTwo(64) && !IsPowerOfTwo(48) && !IsPowerOfTwo(0));

TEST(TypesTest, CompileTimeIdentitiesAnchored) {
  // The static_asserts above are the test; this anchors them in the runner.
  SUCCEED();
}

TEST(TypesTest, IncrementWalksThePageSequence) {
  Vpn vpn{0x0FFF};
  EXPECT_EQ(++vpn, Vpn{0x1000});
  EXPECT_EQ(vpn++, Vpn{0x1000});
  EXPECT_EQ(vpn, Vpn{0x1001});
  vpn += 15;
  EXPECT_EQ(vpn, Vpn{0x1010});
  vpn -= 16;
  EXPECT_EQ(vpn, Vpn{0x1000});
}

TEST(TypesTest, StreamInsertionPrintsRawWord) {
  std::ostringstream os;
  os << Vpn{42} << " " << Ppn{7};
  EXPECT_EQ(os.str(), "42 7");
}

TEST(TypesTest, HashesDropIntoUnorderedContainers) {
  std::unordered_set<Vpn> set;
  set.insert(Vpn{0x100});
  set.insert(Vpn{0x100});
  set.insert(Vpn{0x101});
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.count(Vpn{0x100}));
  EXPECT_FALSE(set.count(Vpn{0x102}));
}

TEST(TypesTest, BlockSpanEdges) {
  const BlockSpan span = BlockSpanOf(Vpbn{0x10}, 16);
  EXPECT_EQ(span.first, Vpn{0x100});
  EXPECT_EQ(span.end(), Vpn{0x110});
  EXPECT_TRUE(span.Contains(Vpn{0x100}));
  EXPECT_TRUE(span.Contains(Vpn{0x10F}));
  EXPECT_FALSE(span.Contains(Vpn{0x110}));
  EXPECT_FALSE(span.Contains(Vpn{0xFF}));
  EXPECT_EQ(span.IndexOf(Vpn{0x10F}), 15u);
}

// ---------------------------------------------------------------------------
// Contract checks die loudly instead of producing wrong counts.
// ---------------------------------------------------------------------------

TEST(TypesDeathTest, Log2OfZeroIsAContractViolation) {
#ifdef NDEBUG
  GTEST_SKIP() << "CPT_DCHECK compiled out";
#else
  // A volatile operand keeps the call out of constant evaluation, where the
  // failed DCHECK would be a compile error rather than a death.
  volatile std::uint64_t zero = 0;
  EXPECT_DEATH(Log2(zero), "Log2\\(0\\) is undefined");
#endif
}

TEST(TypesDeathTest, NonPowerOfTwoSubblockFactorsAreRejected) {
#ifdef NDEBUG
  GTEST_SKIP() << "CPT_DCHECK compiled out";
#else
  EXPECT_DEATH(VpbnOf(Vpn{0x100}, 12), "power of two");
  EXPECT_DEATH(BoffOf(Vpn{0x100}, 12), "power of two");
  EXPECT_DEATH(FirstVpnOfBlock(Vpbn{0x10}, 12), "power of two");
#endif
}

TEST(TypesDeathTest, PpnConstructionChecksTheRange) {
#ifdef NDEBUG
  GTEST_SKIP() << "CPT_DCHECK compiled out";
#else
  volatile std::uint64_t too_big = kPpnMask + 1;
  EXPECT_DEATH(Ppn{too_big}, "representable range");
#endif
}

TEST(TypesDeathTest, BlockSpanIndexOfOutsideTheSpan) {
#ifdef NDEBUG
  GTEST_SKIP() << "CPT_DCHECK compiled out";
#else
  const BlockSpan span = BlockSpanOf(Vpbn{0x10}, 16);
  EXPECT_DEATH(span.IndexOf(Vpn{0x110}), "outside the span");
#endif
}

// ---------------------------------------------------------------------------
// Atomic storage of the strong types (Section 3.1's lock-free claim).
// ---------------------------------------------------------------------------

// Referenced/modified bits live in atomic PTE words, and strong-typed values
// may sit in atomics beside them; the paper's "lock-free" language only
// holds if none of these specializations fall back to a lock table.
static_assert(std::atomic<Vpn>::is_always_lock_free);
static_assert(std::atomic<Vpbn>::is_always_lock_free);
static_assert(std::atomic<Ppn>::is_always_lock_free);
static_assert(std::atomic<VirtAddr>::is_always_lock_free);
static_assert(std::atomic<PhysAddr>::is_always_lock_free);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

// The tags must not grow the cell: an atomic strong type is exactly the
// 8-byte word the size model accounts for.
static_assert(sizeof(std::atomic<Vpn>) == sizeof(std::uint64_t));

}  // namespace
}  // namespace cpt
