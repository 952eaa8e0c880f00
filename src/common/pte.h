// Bit-level mapping-word formats from the paper (Figures 1, 6 and 7).
//
// All mapping information fits in one 64-bit word:
//
//   Base page mapping (Figure 1):
//     bit  63      V        valid
//     bits 62..42  PAD      reserved (we carve S out of PAD, below)
//     bits 41..40  S        mapping kind discriminator (Figure 7/8)
//     bits 39..12  PPN      28-bit physical page number (40-bit phys addrs)
//     bits 11..0   ATTR     software/hardware attributes
//
//   Superpage mapping (Figure 6 top):
//     bit  63      V
//     bits 62..59  SZ       log2(page size / base page size), any power of two
//     bits 39..12  PPN      (aligned to the superpage size)
//     bits 11..0   ATTR
//
//   Partial-subblock mapping (Figure 6 bottom, subblock factor 16):
//     bits 63..48  V15..V0  per-base-page valid bit vector
//     bits 39..12  PPN      block-aligned; the low log2(16) PPN bits are
//                           unused because the block is properly placed
//     bits 11..0   ATTR
//
// The S field (named for Subblock/Superpage in Section 5) distinguishes the
// three formats when they co-reside in a clustered page table.  The paper
// does not pin S to a bit position; we place it at bits 41..40, inside PAD,
// where it does not collide with the PSB valid vector (bits 63..48) or the
// superpage SZ field (bits 62..59).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace cpt {

// The twelve ATTR bits of Figure 1.  Bits 0..7 mirror common MMU hardware
// attributes; bits 8..11 are software-defined.
struct Attr {
  std::uint16_t bits = 0;  // Only the low 12 bits are meaningful.

  static constexpr std::uint16_t kRead = 1u << 0;
  static constexpr std::uint16_t kWrite = 1u << 1;
  static constexpr std::uint16_t kExecute = 1u << 2;
  static constexpr std::uint16_t kUser = 1u << 3;
  static constexpr std::uint16_t kGlobal = 1u << 4;
  static constexpr std::uint16_t kCacheable = 1u << 5;
  static constexpr std::uint16_t kReferenced = 1u << 6;
  static constexpr std::uint16_t kModified = 1u << 7;
  static constexpr std::uint16_t kSoft0 = 1u << 8;
  static constexpr std::uint16_t kSoft1 = 1u << 9;
  static constexpr std::uint16_t kSoft2 = 1u << 10;
  static constexpr std::uint16_t kSoft3 = 1u << 11;

  static constexpr Attr ReadWrite() { return Attr{kRead | kWrite | kCacheable}; }
  static constexpr Attr ReadOnly() { return Attr{kRead | kCacheable}; }
  static constexpr Attr ReadExec() { return Attr{kRead | kExecute | kCacheable}; }

  constexpr bool test(std::uint16_t flag) const { return (bits & flag) != 0; }
  constexpr Attr with(std::uint16_t flag) const {
    return Attr{static_cast<std::uint16_t>(bits | flag)};
  }
  constexpr Attr without(std::uint16_t flag) const {
    return Attr{static_cast<std::uint16_t>(bits & ~flag)};
  }

  friend constexpr bool operator==(Attr a, Attr b) = default;
};

// Discriminates the three mapping-word formats (the S field of Figure 7).
enum class MappingKind : std::uint8_t {
  kBase = 0,             // One base-page mapping (Figure 1).
  kPartialSubblock = 1,  // Block-aligned PPN + valid bit vector (Figure 6).
  kSuperpage = 2,        // One mapping covering 2^SZ base pages (Figure 6).
};

// One 64-bit mapping word.  Immutable constructors build each format;
// accessors decode it.  Subblock factors above 16 are not representable in
// the partial-subblock format (only 16 valid bits), matching the paper's
// observation that large subblock factors are impractical for PSB PTEs.
class MappingWord {
 public:
  static constexpr unsigned kMaxPsbFactor = 16;

  constexpr MappingWord() = default;

  // An all-zero word: invalid base mapping.
  static constexpr MappingWord Invalid() { return MappingWord(); }

  static constexpr MappingWord Base(Ppn ppn, Attr attr) {
    MappingWord w;
    w.bits_ = kVBit | EncodeCommon(ppn, attr) | EncodeKind(MappingKind::kBase);
    return w;
  }

  static constexpr MappingWord Superpage(Ppn ppn, Attr attr, PageSize size) {
    MappingWord w;
    w.bits_ = kVBit | (std::uint64_t{size.size_log2 & 0xF} << kSzShift) |
              EncodeCommon(ppn, attr) | EncodeKind(MappingKind::kSuperpage);
    return w;
  }

  // `block_ppn` must be aligned to `factor`; `valid_vector` has one bit per
  // base page in the block (low `factor` bits meaningful).
  static constexpr MappingWord PartialSubblock(Ppn block_ppn, Attr attr,
                                               std::uint16_t valid_vector) {
    MappingWord w;
    w.bits_ = (std::uint64_t{valid_vector} << kVecShift) | EncodeCommon(block_ppn, attr) |
              EncodeKind(MappingKind::kPartialSubblock);
    return w;
  }

  // A superpage word with the size encoded but V clear: empty slots of
  // sub-size clustered nodes stay self-describing (the S/SZ fields remain
  // readable even when no mapping is present).
  static constexpr MappingWord InvalidSuperpage(PageSize size) {
    MappingWord w;
    w.bits_ = (std::uint64_t{size.size_log2 & 0xF} << kSzShift) |
              EncodeKind(MappingKind::kSuperpage);
    return w;
  }

  static constexpr MappingWord FromBits(std::uint64_t raw) {
    MappingWord w;
    w.bits_ = raw;
    return w;
  }

  constexpr std::uint64_t bits() const { return bits_; }

  constexpr MappingKind kind() const {
    return static_cast<MappingKind>((bits_ >> kSShift) & 0x3);
  }

  // For base and superpage words: the V bit.  For partial-subblock words:
  // true iff any base page in the block is valid.
  constexpr bool valid() const {
    if (kind() == MappingKind::kPartialSubblock) {
      return valid_vector() != 0;
    }
    return (bits_ & kVBit) != 0;
  }

  constexpr Ppn ppn() const { return Ppn((bits_ >> kPpnShift) & kPpnMask); }

  constexpr Attr attr() const {
    return Attr{static_cast<std::uint16_t>(bits_ & kAttrMask)};
  }

  // Superpage words only: the mapped size.
  constexpr PageSize page_size() const {
    return PageSize{static_cast<unsigned>((bits_ >> kSzShift) & 0xF)};
  }

  // Partial-subblock words only: the 16-bit valid vector.
  constexpr std::uint16_t valid_vector() const {
    return static_cast<std::uint16_t>(bits_ >> kVecShift);
  }

  constexpr bool subpage_valid(unsigned boff) const {
    return (valid_vector() >> boff) & 1u;
  }

  // Physical page of base page `boff` inside a properly-placed block: the
  // block-aligned PPN with the low bits replaced by the block offset.
  constexpr Ppn subpage_ppn(unsigned boff) const { return ppn() + boff; }

  constexpr MappingWord with_subpage_valid(unsigned boff) const {
    MappingWord w = *this;
    w.bits_ |= std::uint64_t{1} << (kVecShift + boff);
    return w;
  }

  constexpr MappingWord without_subpage_valid(unsigned boff) const {
    MappingWord w = *this;
    w.bits_ &= ~(std::uint64_t{1} << (kVecShift + boff));
    return w;
  }

  constexpr MappingWord with_attr(Attr a) const {
    MappingWord w = *this;
    w.bits_ = (w.bits_ & ~kAttrMask) | (a.bits & kAttrMask);
    return w;
  }

  std::string ToString() const;

  friend constexpr bool operator==(MappingWord a, MappingWord b) = default;

 private:
  static constexpr unsigned kPpnShift = 12;
  static constexpr unsigned kSShift = 40;
  static constexpr unsigned kSzShift = 59;
  static constexpr unsigned kVecShift = 48;
  static constexpr std::uint64_t kVBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kAttrMask = 0xFFF;

  static constexpr std::uint64_t EncodeCommon(Ppn ppn, Attr attr) {
    // No masking needed: the Ppn type itself guarantees raw() <= kPpnMask
    // (bit-packing is a sanctioned .raw() boundary).
    return (ppn.raw() << kPpnShift) | (attr.bits & kAttrMask);
  }
  static constexpr std::uint64_t EncodeKind(MappingKind k) {
    return std::uint64_t{static_cast<std::uint8_t>(k)} << kSShift;
  }

  std::uint64_t bits_ = 0;
};

static_assert(sizeof(MappingWord) == 8, "mapping information must take 8 bytes");

// The simulated word size.  Every paper-model node format (§3, Figure 5)
// is a small header plus a whole number of these words, and the accounting
// functions (HashedPageTable::NodeBytes and friends) are written from it.
inline constexpr std::uint64_t kWordBytes = sizeof(MappingWord);

// Round-trip sanity checks on the bit layout.
static_assert(MappingWord::Base(Ppn{0x123456}, Attr::ReadWrite()).ppn() == Ppn{0x123456});
static_assert(MappingWord::Base(kMaxPpn, Attr{}).ppn() == kMaxPpn);
static_assert(MappingWord::Base(Ppn{1}, Attr{}).kind() == MappingKind::kBase);
static_assert(MappingWord::Superpage(Ppn{0x10}, Attr{}, kPage64K).page_size() == kPage64K);
static_assert(MappingWord::Superpage(Ppn{0x10}, Attr{}, kPage64K).kind() ==
              MappingKind::kSuperpage);
static_assert(MappingWord::PartialSubblock(Ppn{0x20}, Attr{}, 0xBEEF).valid_vector() == 0xBEEF);
static_assert(MappingWord::PartialSubblock(Ppn{0x20}, Attr{}, 0xBEEF).kind() ==
              MappingKind::kPartialSubblock);
static_assert(MappingWord::PartialSubblock(Ppn{0x20}, Attr{}, 0x8001).subpage_ppn(15) ==
              Ppn{0x2F});
static_assert(!MappingWord::Invalid().valid());
static_assert(MappingWord::PartialSubblock(Ppn{0x20}, Attr{}, 0).valid() == false);

// ---------------------------------------------------------------------------
// Atomic PTE storage (Section 3.1).
// ---------------------------------------------------------------------------

// The storage cell for a mapping word that may be touched by more than one
// thread: the paper's Section 3.1 has the TLB miss handler set the
// Referenced/Modified attribute bits "lock-free" while other processors walk
// the same table.  This wrapper makes that real:
//
//   - R/M-bit sets are a single fetch_or on the word (no lock, no CAS);
//   - the rare full-word rewrite that must also CLEAR bits goes through a
//     CAS loop (ApplyAttrUpdate below);
//   - structural writes (insert/remove, done single-threaded or under the
//     owning table's locks) use plain release stores, and walkers read with
//     acquire loads, so a concurrently published word is seen whole.
//
// There are deliberately no implicit conversions to or from MappingWord:
// every access site must choose load() / store() / FetchOrAttr(), which is
// what lets the compiler enumerate the entire R/M-bit path.  Copying is NOT
// atomic — it exists solely for single-threaded structural phases (vector
// growth, node cloning in tests, audit snapshots).
class AtomicMappingWord {
 public:
  constexpr AtomicMappingWord() = default;
  explicit constexpr AtomicMappingWord(MappingWord w) : cell_(w.bits()) {}

  // relaxed: structural copy, only legal while no other thread accesses
  // either cell (see the class comment).
  AtomicMappingWord(const AtomicMappingWord& other)
      : cell_(other.cell_.load(std::memory_order_relaxed)) {}
  AtomicMappingWord& operator=(const AtomicMappingWord& other) {
    // relaxed: structural copy (single-threaded phases only; class comment).
    cell_.store(other.cell_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }

  // acquire: a walker that observes a word published by store() must also
  // observe every write the publisher sequenced before it.
  MappingWord load() const {
    return MappingWord::FromBits(cell_.load(std::memory_order_acquire));
  }

  // release: publishes the word (and everything written before it) to
  // concurrent acquire loaders.
  void store(MappingWord w) { cell_.store(w.bits(), std::memory_order_release); }

  // Section 3.1 lock-free R/M set: OR the attribute bits into the word in
  // one atomic step.  The mask must stay within the low 12 ATTR bits, so the
  // operation can never corrupt the PPN/kind/valid fields regardless of what
  // the word holds concurrently.
  // Returns the word as it was before the OR.
  MappingWord FetchOrAttr(std::uint16_t set_mask) {
    CPT_DCHECK((set_mask & ~std::uint16_t{0xFFF}) == 0, "attr mask beyond the 12 ATTR bits");
    // acq_rel: the RMW both observes the latest word and publishes the
    // updated attribute bits to subsequent acquire loaders.
    return MappingWord::FromBits(
        cell_.fetch_or(std::uint64_t{set_mask}, std::memory_order_acq_rel));
  }

  // CAS step for read-modify-write updates that cannot be expressed as a
  // fetch_or (attribute clears, full-word rewrites).  On failure `expected`
  // is refreshed with the observed word.
  bool CompareExchange(MappingWord& expected, MappingWord desired) {
    std::uint64_t raw = expected.bits();
    // acq_rel / acquire: success publishes the new word; failure still
    // acquires the observed word so the retry sees its payload.
    const bool ok = cell_.compare_exchange_weak(raw, desired.bits(), std::memory_order_acq_rel,
                                                std::memory_order_acquire);
    if (!ok) {
      expected = MappingWord::FromBits(raw);
    }
    return ok;
  }

 private:
  std::atomic<std::uint64_t> cell_{0};
};

// The §3.1 claim only holds if the atomic word really is a bare 64-bit cell:
// no lock table, no size penalty versus the plain word it replaces.
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "PTE words must be lock-free atomics (Section 3.1)");
static_assert(sizeof(AtomicMappingWord) == sizeof(MappingWord),
              "atomic PTE storage must not change the paper's size model");

// Applies an attribute-flag update to one PTE cell and returns its
// attribute bits from before the update: the test-and-set (or -clear) that
// every R/M-bit read and write goes through.  A zero-mask update is a plain
// atomic load, so a peek stays read-only; the common set-only case (R/M
// maintenance from the miss handler) is a single lock-free fetch_or;
// updates that clear bits take the CAS path.  Bits outside the 12-bit ATTR
// field are never touched, and a concurrent FetchOrAttr can interleave with
// the CAS loop without losing either update.
inline Attr ApplyAttrUpdate(AtomicMappingWord& cell, std::uint16_t set_mask,
                            std::uint16_t clear_mask) {
  if (clear_mask == 0) {
    return (set_mask == 0 ? cell.load() : cell.FetchOrAttr(set_mask)).attr();
  }
  MappingWord expected = cell.load();
  for (;;) {
    const auto bits =
        static_cast<std::uint16_t>((expected.attr().bits | set_mask) & ~clear_mask);
    if (cell.CompareExchange(expected, expected.with_attr(Attr{bits}))) {
      return expected.attr();
    }
  }
}

// The one attribute write of ProtectRange: gives one PTE cell `attr`'s
// protection bits and keeps its Referenced/Modified bits, in one atomic
// update, so an mprotect loses neither the R/M history nor an R/M bit a
// concurrent miss handler sets.
inline void ProtectWord(AtomicMappingWord& cell, Attr attr) {
  constexpr std::uint16_t kAttrBits = 0xFFF;
  constexpr std::uint16_t kKept = Attr::kReferenced | Attr::kModified;
  const auto set = static_cast<std::uint16_t>(attr.bits & kAttrBits & ~kKept);
  ApplyAttrUpdate(cell, set, static_cast<std::uint16_t>(kAttrBits & ~kKept & ~set));
}

}  // namespace cpt
