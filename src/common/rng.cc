// Rng::Jump's table.  xoshiro256**'s state step (Next() without its output
// scrambler) only XORs, shifts and rotates the four state words, so it is a
// linear map M on the 256-bit state over GF(2), and Skip(n) applies M^n.
// M^n is linear too: it maps a state to the XOR of the images of the
// state's 32 bytes, each alone in an otherwise zero state.  The table holds
// those images for every byte position and value, 32 x 256 entries of 256
// bits (256 KiB), so one jump is 32 loads XORed together.
#include "common/rng.h"

#include <cstring>

namespace cpt {
namespace {

constexpr int kStateWords = 4;
constexpr int kStateBytes = 8 * kStateWords;
constexpr int kByteValues = 256;

struct JumpTable {
  // image[b][v]: M^kJumpDraws of the state whose byte b is v, all else 0.
  // Plain arrays: GCC evaluates std::array's operator[] calls ~5x slower.
  // 32-byte aligned, so no image straddles a cache line.
  alignas(32) std::uint64_t image[kStateBytes][kByteValues][kStateWords];
};

// Each state bit's image is stepped out by Next()'s state step, written
// inline (GCC memoizes every constexpr call, which costs it seconds here).
// A byte value's image is then its highest bit's image XOR the image of
// the value without that bit, filled in before it.  About 1 s of GCC time
// and ~3.5e5 constant-evaluation steps, a third of clang's default limit.
constexpr JumpTable BuildJumpTable() {
  JumpTable table{};
  for (int bit = 0; bit < 64 * kStateWords; ++bit) {
    std::uint64_t s[kStateWords] = {};
    s[bit / 64] = std::uint64_t{1} << (bit % 64);
    for (std::uint64_t i = 0; i < Rng::kJumpDraws; ++i) {
      const std::uint64_t t = s[1] << 17;
      s[2] ^= s[0];
      s[3] ^= s[1];
      s[1] ^= s[2];
      s[0] ^= s[3];
      s[2] ^= t;
      s[3] = (s[3] << 45) | (s[3] >> 19);
    }
    auto& images = table.image[bit / 8];
    const int high = 1 << (bit % 8);
    for (int v = high; v < 2 * high; ++v) {
      for (int w = 0; w < kStateWords; ++w) {
        images[v][w] = images[v - high][w] ^ s[w];
      }
    }
  }
  return table;
}

constexpr JumpTable kJumpTable = BuildJumpTable();

// The table's jump of `s`, for the known-answer check below.
using State = std::array<std::uint64_t, kStateWords>;
constexpr State TableJump(const State& s) {
  State out{};
  for (std::size_t b = 0; b < kStateBytes; ++b) {
    const auto& image = kJumpTable.image[b][(s[b / 8] >> (8 * (b % 8))) & 0xFF];
    for (std::size_t w = 0; w < out.size(); ++w) {
      out[w] ^= image[w];
    }
  }
  return out;
}

// Known answer: Rng(1)'s state, and its state after Skip(127) by Next().
static_assert(TableJump({0x910a2dec89025cc1, 0xbeeb8da1658eec67, 0xf893a2eefb32555e,
                         0x71c18690ee42c90b}) == State{0x87bf5fb27136534f, 0x18efc3463898a50a,
                                                       0x4aabc001828f265d, 0x9096cbbf724dd879},
              "the jump table is not M^127");

}  // namespace

void Rng::Jump() {
  // The state as two 128-bit halves, XORed with SSE2 (x86-64's baseline).
  using Half = std::uint64_t __attribute__((vector_size(16)));
  Half lo{};
  Half hi{};
  for (std::size_t w = 0; w < state_.size(); ++w) {
    std::uint64_t word = state_[w];
    for (std::size_t k = 0; k < 8; ++k) {
      const std::uint64_t* image = kJumpTable.image[8 * w + k][word & 0xFF];
      word >>= 8;
      Half x{};
      Half y{};
      std::memcpy(&x, image, sizeof x);
      std::memcpy(&y, image + 2, sizeof y);
      lo ^= x;
      hi ^= y;
    }
  }
  std::memcpy(state_.data(), &lo, sizeof lo);
  std::memcpy(state_.data() + 2, &hi, sizeof hi);
}

}  // namespace cpt
