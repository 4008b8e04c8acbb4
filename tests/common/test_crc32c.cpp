#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace doceph {
namespace {

// Reference vectors for CRC-32C (Castagnoli), as used by iSCSI/ext4/Ceph.
TEST(Crc32c, KnownVectors) {
  // RFC 3720 B.4 test: 32 bytes of zeros.
  std::vector<unsigned char> zeros(32, 0);
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  // 32 bytes of 0xFF.
  std::vector<unsigned char> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones.data(), ones.size()), 0x62A8AB43u);

  // Ascending 0..31.
  std::vector<unsigned char> asc(32);
  for (int i = 0; i < 32; ++i) asc[static_cast<std::size_t>(i)] = static_cast<unsigned char>(i);
  EXPECT_EQ(crc32c(asc.data(), asc.size()), 0x46DD794Eu);

  // "123456789" — the classic check value.
  const std::string digits = "123456789";
  EXPECT_EQ(crc32c(digits.data(), digits.size()), 0xE3069283u);
}

TEST(Crc32c, EmptyInput) {
  EXPECT_EQ(crc32c(nullptr, 0), 0u);
  EXPECT_EQ(crc32c(0xDEADBEEF, nullptr, 0), 0xDEADBEEFu);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = crc32c(data.data(), split);
    crc = crc32c(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, UnalignedStartMatches) {
  // Every start alignment must give the same value as an aligned copy and
  // as the software reference (both kernels have an alignment preamble).
  std::vector<unsigned char> buf(64 + 8);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<unsigned char>(i * 7 + 3);
  for (std::size_t off = 1; off < 8; ++off) {
    std::vector<unsigned char> copy(buf.begin() + static_cast<long>(off),
                                    buf.begin() + static_cast<long>(off) + 64);
    const std::uint32_t ref = crc32c_sw(0, copy.data(), 64);
    EXPECT_EQ(crc32c(copy.data(), 64), ref) << "offset " << off;
    EXPECT_EQ(crc32c(buf.data() + off, 64), ref) << "offset " << off;
  }
}

// The run-time-selected kernel against the slice-by-8 reference, at every
// start alignment and at lengths around each of the hardware kernel's block
// boundaries (3x256 and 3x8192 lane blocks, 8-byte words, byte tail), and
// chained across splits that fall inside a lane block.
TEST(Crc32c, MatchesSoftwareReference) {
  constexpr std::size_t kShort = 3 * 256;
  constexpr std::size_t kLong = 3 * 8192;
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (std::size_t n = kShort - 8; n <= kShort + 8; ++n) lengths.push_back(n);
  for (std::size_t n = kLong - 8; n <= kLong + 8; ++n) lengths.push_back(n);
  lengths.push_back((1u << 20) + 3);

  std::mt19937_64 rng(20240917);
  std::vector<unsigned char> buf((1u << 20) + 3 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t len : lengths) {
    for (std::size_t off = 0; off < 8; ++off) {
      const auto seed = static_cast<std::uint32_t>(rng());
      const unsigned char* p = buf.data() + off;
      ASSERT_EQ(crc32c(seed, p, len), crc32c_sw(seed, p, len))
          << "len " << len << " offset " << off << " seed " << seed;
    }
  }

  const std::size_t len = (1u << 20) + 3;
  const std::uint32_t whole = crc32c_sw(0, buf.data(), len);
  for (std::size_t split : {std::size_t{100}, std::size_t{8192 + 5},
                            std::size_t{3 * 8192 + 300}, len - 1}) {
    const std::uint32_t head = crc32c(buf.data(), split);
    EXPECT_EQ(crc32c(head, buf.data() + split, len - split), whole)
        << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlip) {
  std::vector<unsigned char> buf(1024, 0x5A);
  const std::uint32_t ref = crc32c(buf.data(), buf.size());
  for (std::size_t bit : {0u, 1u, 511u * 8u, 1023u * 8u + 7u}) {
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(crc32c(buf.data(), buf.size()), ref);
    buf[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
}

}  // namespace
}  // namespace doceph
