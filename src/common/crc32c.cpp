#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define DOCEPH_CRC32C_X86 1
#endif

namespace doceph {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};

  Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = t[0][i];
      for (std::size_t j = 1; j < 8; ++j) {
        c = t[0][c & 0xff] ^ (c >> 8);
        t[j][i] = c;
      }
    }
  }
};

const Tables& tables() {
  static const Tables t;  // thread-safe magic static
  return t;
}

inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

#ifdef DOCEPH_CRC32C_X86

// Hardware kernel: the SSE4.2 crc32 instruction computes the same raw
// (un-inverted) register update as the tables above, 8 bytes at a time.
// One crc32 has a 3-cycle latency but a 1-cycle throughput, so the kernel
// runs three independent lanes over three adjacent blocks and joins them.
// Joining uses linearity over GF(2): the register after A||B equals the
// register after A shifted through len(B) zero bytes, xor the register of
// B alone from 0. The shift is a 32x32 bit matrix applied as four
// byte-indexed tables (Mark Adler's crc32c.c zero-operator construction).
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

using ZeroShift = std::array<std::array<std::uint32_t, 256>, 4>;

// Tables that advance a raw register through `len` zero bytes.
ZeroShift make_zero_shift(std::size_t len) {
  const auto& t0 = tables().t[0];
  // Column k: the image of register bit k after `len` zero bytes.
  std::array<std::uint32_t, 32> col{};
  for (std::size_t k = 0; k < 32; ++k) {
    std::uint32_t c = 1u << k;
    for (std::size_t n = 0; n < len; ++n) c = t0[c & 0xff] ^ (c >> 8);
    col[k] = c;
  }
  ZeroShift z{};
  for (std::size_t byte = 0; byte < 4; ++byte) {
    for (std::uint32_t v = 0; v < 256; ++v) {
      std::uint32_t sum = 0;
      for (std::size_t bit = 0; bit < 8; ++bit) {
        if ((v >> bit) & 1u) sum ^= col[byte * 8 + bit];
      }
      z[byte][v] = sum;
    }
  }
  return z;
}

struct ZeroShifts {
  ZeroShift long_block = make_zero_shift(kLongBlock);
  ZeroShift short_block = make_zero_shift(kShortBlock);
};

const ZeroShifts& zero_shifts() {
  static const ZeroShifts z;  // thread-safe magic static
  return z;
}

inline std::uint32_t shift(const ZeroShift& z, std::uint32_t crc) noexcept {
  return z[0][crc & 0xff] ^ z[1][(crc >> 8) & 0xff] ^ z[2][(crc >> 16) & 0xff] ^
         z[3][crc >> 24];
}

inline std::uint64_t load_u64(const unsigned char* p) noexcept {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

// Three lanes over [p, p + 3 * block); returns the joined register.
__attribute__((target("sse4.2"))) std::uint32_t crc3_lanes(std::uint32_t crc,
                                                           const unsigned char* p,
                                                           std::size_t block,
                                                           const ZeroShift& z) noexcept {
  std::uint64_t c0 = crc;
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  for (const unsigned char* end = p + block; p < end; p += 8) {
    c0 = _mm_crc32_u64(c0, load_u64(p));
    c1 = _mm_crc32_u64(c1, load_u64(p + block));
    c2 = _mm_crc32_u64(c2, load_u64(p + 2 * block));
  }
  crc = shift(z, static_cast<std::uint32_t>(c0)) ^ static_cast<std::uint32_t>(c1);
  return shift(z, crc) ^ static_cast<std::uint32_t>(c2);
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(std::uint32_t crc,
                                                          const void* data,
                                                          std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;

  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --len;
  }

  if (len >= 3 * kShortBlock) {
    const ZeroShifts& z = zero_shifts();
    for (; len >= 3 * kLongBlock; p += 3 * kLongBlock, len -= 3 * kLongBlock) {
      crc = crc3_lanes(crc, p, kLongBlock, z.long_block);
    }
    for (; len >= 3 * kShortBlock; p += 3 * kShortBlock, len -= 3 * kShortBlock) {
      crc = crc3_lanes(crc, p, kShortBlock, z.short_block);
    }
  }

  std::uint64_t c = crc;
  for (; len >= 8; p += 8, len -= 8) c = _mm_crc32_u64(c, load_u64(p));
  crc = static_cast<std::uint32_t>(c);
  while (len-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return ~crc;
}

#endif  // DOCEPH_CRC32C_X86

using Crc32cFn = std::uint32_t (*)(std::uint32_t, const void*, std::size_t) noexcept;

Crc32cFn choose_crc32c() noexcept {
#ifdef DOCEPH_CRC32C_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_hw;
#endif
  return crc32c_sw;
}

}  // namespace

std::uint32_t crc32c_sw(std::uint32_t crc, const void* data, std::size_t len) noexcept {
  const auto& t = tables().t;
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;

  // Align to 8 bytes.
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
    --len;
  }

  while (len >= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][(lo >> 24) & 0xff] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][(hi >> 24) & 0xff];
    p += 8;
    len -= 8;
  }

  while (len-- > 0) crc = t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return ~crc;
}

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t len) noexcept {
  static const Crc32cFn impl = choose_crc32c();  // CPUID once
  return impl(crc, data, len);
}

}  // namespace doceph
