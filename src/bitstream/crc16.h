// CRC-16 integrity check of the configuration stream.
//
// Mirrors the Virtex discipline: the device maintains a running CRC over
// every configuration register write (the 32 data bits LSB-first, then the
// 5-bit register address), the RCRC command resets it, and a write to the
// CRC register compares the written value against the accumulator (and
// resets it on success). Polynomial: CRC-16/IBM, x^16 + x^15 + x^2 + 1
// (0x8005), zero initial value.
//
// Crc16 is the table-driven implementation used on the hot paths (every
// configuration word clocked through ConfigPort, every word emitted by
// BitstreamWriter, and every verified-download attempt pays one update per
// word). Crc16Serial is the bit-serial formulation straight from the
// definition above; it exists as the cross-check reference — the test
// suite asserts the two agree over random register-write streams.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace jpg {

namespace detail {

// Crc16 keeps its register bit-reversed. Feeding a bit b to the
// left-shifting register of the definition,
//   crc' = (crc << 1) ^ ((b ^ crc[15]) ? 0x8005 : 0),
// is, on the reversed register r,
//   r' = (r >> 1) ^ ((b ^ r[0]) ? 0xA001 : 0),
// which takes the LSB-first stream as it comes: no per-byte bit reversal.
inline constexpr std::uint32_t kCrc16PolyReflected = 0xA001u;

/// Feeds the low `n` bits of `bits`, LSB first, then zeros past bit 31.
consteval std::uint16_t crc16_feed(std::uint32_t r, std::uint32_t bits,
                                   int n) {
  for (int i = 0; i < n; ++i) {
    const std::uint32_t b = i < 32 ? bits >> i : 0u;
    r = (r >> 1) ^ (((r ^ b) & 1u) != 0 ? kCrc16PolyReflected : 0u);
  }
  return static_cast<std::uint16_t>(r);
}

// One update is linear in (register, data, address), so it splits into
// independent lookups. With x = r ^ data (the register overlaps the first
// 16 data bits), byte k of x contributes T[k][byte]: the register after
// that byte, the 3 - k data bytes behind it and the `trailing` bits that
// follow the word, all fed from zero with everything else zero. For one
// write the trailing bits are the 5 address bits, whose own contribution
// is kCrc16TailTable[addr].
consteval std::array<std::array<std::uint16_t, 256>, 4> make_crc16_tables(
    int trailing) {
  std::array<std::array<std::uint16_t, 256>, 4> t{};
  for (int k = 0; k < 4; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[static_cast<std::size_t>(k)][i] =
          crc16_feed(crc16_feed(0, i, 8), 0, 8 * (3 - k) + trailing);
    }
  }
  return t;
}

// The address tail of `writes` consecutive writes to one register: each
// write's 5 address bits followed by the 37 bits of every later write.
consteval std::array<std::uint16_t, 32> make_crc16_tail_table(int writes) {
  std::array<std::uint16_t, 32> t{};
  for (std::uint32_t a = 0; a < 32; ++a) {
    std::uint16_t r = 0;
    for (int w = 0; w < writes; ++w) r = crc16_feed(crc16_feed(r, 0, 32), a, 5);
    t[a] = r;
  }
  return t;
}

inline constexpr auto kCrc16Tables = make_crc16_tables(5);
inline constexpr auto kCrc16TailTable = make_crc16_tail_table(1);
// Two writes per step (Crc16::update_run): the first word's bytes are
// followed by its address and the whole second write.
inline constexpr auto kCrc16PairTables = make_crc16_tables(5 + 37);
inline constexpr auto kCrc16PairTailTable = make_crc16_tail_table(2);

constexpr std::uint16_t reverse16(std::uint16_t v) noexcept {
  std::uint16_t r = 0;
  for (int i = 0; i < 16; ++i) {
    r = static_cast<std::uint16_t>((r << 1) | ((v >> i) & 1u));
  }
  return r;
}

}  // namespace detail

class Crc16 {
 public:
  void reset() noexcept { reg_ = 0; }

  /// Accumulates one register write: 32 data bits LSB-first, then the 5
  /// register-address bits LSB-first.
  void update(std::uint32_t reg_addr, std::uint32_t data) noexcept {
    const std::uint32_t x = reg_ ^ data;
    const auto& t = detail::kCrc16Tables;
    reg_ = static_cast<std::uint16_t>(
        t[0][x & 0xFFu] ^ t[1][(x >> 8) & 0xFFu] ^ t[2][(x >> 16) & 0xFFu] ^
        t[3][x >> 24] ^ detail::kCrc16TailTable[reg_addr & 0x1Fu]);
  }

  /// Accumulates one write of each word of `data` to the same register,
  /// in order — update(reg_addr, w) per word, two words per step. Only
  /// the first word of a pair depends on the running register, so a pair
  /// costs one dependent lookup round instead of two.
  void update_run(std::uint32_t reg_addr,
                  std::span<const std::uint32_t> data) noexcept {
    const auto& t = detail::kCrc16Tables;
    const auto& p = detail::kCrc16PairTables;
    const std::uint16_t tail = detail::kCrc16PairTailTable[reg_addr & 0x1Fu];
    std::uint16_t r = reg_;
    std::size_t i = 0;
    for (; i + 2 <= data.size(); i += 2) {
      const std::uint32_t x = r ^ data[i];
      const std::uint32_t y = data[i + 1];
      r = static_cast<std::uint16_t>(
          p[0][x & 0xFFu] ^ p[1][(x >> 8) & 0xFFu] ^ p[2][(x >> 16) & 0xFFu] ^
          p[3][x >> 24] ^ t[0][y & 0xFFu] ^ t[1][(y >> 8) & 0xFFu] ^
          t[2][(y >> 16) & 0xFFu] ^ t[3][y >> 24] ^ tail);
    }
    reg_ = r;
    if (i < data.size()) update(reg_addr, data[i]);
  }

  [[nodiscard]] std::uint16_t value() const noexcept {
    return detail::reverse16(reg_);
  }

 private:
  std::uint16_t reg_ = 0;  ///< the CRC register, bit-reversed
};

/// Bit-serial reference implementation (the definition, one bit at a time).
class Crc16Serial {
 public:
  void reset() noexcept { crc_ = 0; }

  void update(std::uint32_t reg_addr, std::uint32_t data) noexcept {
    for (int i = 0; i < 32; ++i) {
      feed_bit((data >> i) & 1u);
    }
    for (int i = 0; i < 5; ++i) {
      feed_bit((reg_addr >> i) & 1u);
    }
  }

  [[nodiscard]] std::uint16_t value() const noexcept { return crc_; }

 private:
  void feed_bit(std::uint32_t bit) noexcept {
    const std::uint32_t x = bit ^ (crc_ >> 15);
    crc_ = static_cast<std::uint16_t>((crc_ << 1) ^ (x ? 0x8005u : 0u));
  }

  std::uint16_t crc_ = 0;
};

}  // namespace jpg
