// Crc16::update_run: a step of 16 writes to one register folded with
// carry-less multiplies.
//
// A step's new register is linear in (register, data, address), so its
// parts add up (XOR) independently. On the bit-reversed register bit i
// stands for z^(15-i), and a data word read the same way is a polynomial
// of degree < 32. Word j of a step of W writes is followed by its 5 address
// bits and the 37 bits of each later write, so it reaches the register
// times z^(16+5+37*(W-1-j)): one PCLMULQDQ against the constant
// k_j = that power mod P. The W products XOR into one 47-bit sum whose bit
// m stands for z^(46-m): bits 31..46 are already a reversed register, and
// bits 0..30 are reduced with byte tables (those bits fed from zero). The
// running register only moves by z^(37*W), two byte lookups, and the
// address bits add make_crc16_tail_table(W).
#include "bitstream/crc16.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace jpg {

#if defined(__x86_64__)
namespace {

using detail::crc16_feed;

constexpr int kFoldWrites = static_cast<int>(Crc16::kRunStep);

/// z^e mod P on the reversed register: the register 1 fed e zero bits.
consteval std::uint64_t crc16_zpow(int e) { return crc16_feed(0x8000u, 0, e); }

consteval std::array<std::uint64_t, kFoldWrites> make_fold_constants() {
  std::array<std::uint64_t, kFoldWrites> k{};
  for (int j = 0; j < kFoldWrites; ++j) {
    k[j] = crc16_zpow(21 + 37 * (kFoldWrites - 1 - j));
  }
  return k;
}

// Byte k of a 31-bit sum, those bits fed from zero (bit 30 last).
consteval detail::Crc16ByteTables make_reduce_tables() {
  detail::Crc16ByteTables t{};
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = crc16_feed(0, (i << (8 * k)) & 0x7FFFFFFFu, 31);
    }
  }
  return t;
}

// Byte k of the register times z^(37 * kFoldWrites), built from the 16
// single-bit registers (the product is linear in the register).
consteval std::array<std::array<std::uint16_t, 256>, 2> make_advance_tables() {
  std::array<std::uint16_t, 16> bit{};
  for (int b = 0; b < 16; ++b) {
    bit[b] = crc16_feed(1u << b, 0, 37 * kFoldWrites);
  }
  std::array<std::array<std::uint16_t, 256>, 2> t{};
  for (int k = 0; k < 2; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (int b = 0; b < 8; ++b) {
        if ((i >> b) & 1u) t[k][i] ^= bit[8 * k + b];
      }
    }
  }
  return t;
}

constexpr auto kFold = make_fold_constants();
constexpr auto kReduce = make_reduce_tables();
constexpr auto kAdvance = make_advance_tables();
constexpr auto kFoldTail = detail::make_crc16_tail_table(kFoldWrites);

/// Folds `steps` steps of kFoldWrites words at `p` into register `r`.
__attribute__((target("pclmul"))) std::uint16_t fold_steps(
    std::uint16_t r, std::uint16_t tail, const std::uint32_t* p,
    std::size_t steps) noexcept {
  const __m128i low32 = _mm_set1_epi64x(0xFFFFFFFFll);
  for (std::size_t s = 0; s < steps; ++s, p += kFoldWrites) {
    __m128i sum = _mm_setzero_si128();
    for (int j = 0; j < kFoldWrites; j += 4) {
      // Words j, j+2 and j+1, j+3 zero-extended to 64-bit lanes: a mask
      // and a shift, no shuffles (which share PCLMULQDQ's port).
      const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + j));
      const __m128i even = _mm_and_si128(d, low32);
      const __m128i odd = _mm_srli_epi64(d, 32);
      const __m128i k_even = _mm_set_epi64x(
          static_cast<long long>(kFold[j + 2]), static_cast<long long>(kFold[j]));
      const __m128i k_odd =
          _mm_set_epi64x(static_cast<long long>(kFold[j + 3]),
                         static_cast<long long>(kFold[j + 1]));
      sum = _mm_xor_si128(
          sum, _mm_xor_si128(
                   _mm_xor_si128(_mm_clmulepi64_si128(even, k_even, 0x00),
                                 _mm_clmulepi64_si128(even, k_even, 0x11)),
                   _mm_xor_si128(_mm_clmulepi64_si128(odd, k_odd, 0x00),
                                 _mm_clmulepi64_si128(odd, k_odd, 0x11))));
    }
    const auto x = static_cast<std::uint64_t>(_mm_cvtsi128_si64(sum));
    const auto data = static_cast<std::uint16_t>(
        detail::crc16_lookup(kReduce, static_cast<std::uint32_t>(x) &
                                          0x7FFFFFFFu) ^
        (x >> 31) ^ tail);
    r = static_cast<std::uint16_t>(kAdvance[0][r & 0xFFu] ^
                                   kAdvance[1][r >> 8] ^ data);
  }
  return r;
}

/// The CPU's PCLMULQDQ support, read once.
bool has_clmul() noexcept {
  static const bool has =
      (__builtin_cpu_init(), __builtin_cpu_supports("pclmul") != 0);
  return has;
}

}  // namespace
#endif  // __x86_64__

void Crc16::update_run(std::uint32_t reg_addr,
                       std::span<const std::uint32_t> data) noexcept {
  std::size_t i = 0;
#if defined(__x86_64__)
  if (data.size() >= kRunStep && has_clmul()) {
    const std::size_t steps = data.size() / kRunStep;
    reg_ = fold_steps(reg_, kFoldTail[reg_addr & 0x1Fu], data.data(), steps);
    i = steps * kRunStep;
  }
#endif
  for (; i < data.size(); ++i) update(reg_addr, data[i]);
}

}  // namespace jpg
