#include "common/buffer.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <string_view>

#include "common/crc32c.h"

namespace doceph {
namespace {

/// One slice per `frag` bytes (a small copying append would coalesce them
/// in the list's append buffer).
BufferList fragmented(const std::string& s, std::size_t frag) {
  BufferList bl;
  for (std::size_t i = 0; i < s.size(); i += frag)
    bl.append(Slice::copy_of(std::string_view(s).substr(i, frag)));
  return bl;
}

TEST(Slice, AllocateAndFill) {
  Slice s = Slice::allocate(16);
  std::memset(s.mutable_data(), 'x', 16);
  EXPECT_EQ(s.size(), 16u);
  EXPECT_EQ(std::string(s.data(), s.size()), std::string(16, 'x'));
}

TEST(Slice, SubsliceSharesStorage) {
  Slice s = Slice::copy_of("hello world");
  Slice sub = s.subslice(6, 5);
  EXPECT_EQ(std::string(sub.data(), sub.size()), "world");
  // Shared storage: mutating the parent is visible in the subslice.
  s.mutable_data()[6] = 'W';
  EXPECT_EQ(sub.data()[0], 'W');
}

TEST(BufferList, EmptyBasics) {
  const BufferList bl;
  EXPECT_TRUE(bl.empty());
  EXPECT_EQ(bl.length(), 0u);
  EXPECT_EQ(bl.to_string(), "");
  EXPECT_EQ(bl.crc32c(), 0u);
}

TEST(BufferList, AppendAndToString) {
  BufferList bl;
  bl.append("abc");
  bl.append("def");
  bl.append('g');
  EXPECT_EQ(bl.length(), 7u);
  // Small appends grow one slice of the append buffer in place.
  EXPECT_EQ(bl.num_slices(), 1u);
  EXPECT_EQ(bl.to_string(), "abcdefg");
}

TEST(BufferList, SmallAppendsFillBlocksInOrder) {
  BufferList bl;
  std::string want;
  for (int i = 0; i < 300; ++i) {
    const std::string field = std::to_string(i) + ",";
    bl.append(field);
    want += field;
  }
  bl.append(std::string(300, 'L'));  // too long for the append buffer
  want += std::string(300, 'L');
  bl.append("tail");
  want += "tail";
  EXPECT_EQ(bl.to_string(), want);
  EXPECT_LT(bl.num_slices(), 10u);
}

TEST(BufferList, CopyNeverSeesLaterAppends) {
  BufferList a;
  a.append("abc");
  BufferList copy = a;
  BufferList assigned;
  assigned.append("zz");
  assigned = a;
  const BufferList sub = a.substr(0, 3);
  a.append("def");
  EXPECT_EQ(copy.to_string(), "abc");
  EXPECT_EQ(assigned.to_string(), "abc");
  EXPECT_EQ(sub.to_string(), "abc");
  // Appending to a copy must not write into the bytes `a` owns next.
  copy.append("XYZ");
  assigned.append("123");
  a.append("ghi");
  EXPECT_EQ(a.to_string(), "abcdefghi");
  EXPECT_EQ(copy.to_string(), "abcXYZ");
  EXPECT_EQ(assigned.to_string(), "abc123");
  EXPECT_EQ(sub.to_string(), "abc");
}

TEST(BufferList, AppendsAfterClaimAndListAppendStayCorrect) {
  BufferList a;
  a.append("ab");
  BufferList b;
  b.append("cd");
  a.claim_append(b);  // a's last slice is now b's, ending where a's fill does
  a.append("ef");
  b.append("gh");
  EXPECT_EQ(a.to_string(), "abcdef");
  EXPECT_EQ(b.to_string(), "gh");

  BufferList c;
  c.append("xy");
  const BufferList snapshot = c;
  c.append(snapshot);  // last slice is a copy of c's own
  c.append("z");
  EXPECT_EQ(c.to_string(), "xyxyz");
  EXPECT_EQ(snapshot.to_string(), "xy");

  BufferList moved = std::move(c);
  moved.append("!");
  EXPECT_EQ(moved.to_string(), "xyxyz!");
  EXPECT_TRUE(c.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  c.append("new");
  EXPECT_EQ(c.to_string(), "new");
  EXPECT_EQ(moved.to_string(), "xyxyz!");
}

TEST(BufferList, AppendZero) {
  BufferList bl;
  bl.append_zero(5);
  EXPECT_EQ(bl.to_string(), std::string(5, '\0'));
}

TEST(BufferList, AppendOtherIsZeroCopy) {
  BufferList a = fragmented("0123456789", 3);
  BufferList b;
  b.append("xx");
  b.append(a);
  EXPECT_EQ(b.to_string(), "xx0123456789");
  EXPECT_EQ(b.num_slices(), 1u + a.num_slices());
}

TEST(BufferList, ClaimAppendEmptiesSource) {
  BufferList a = fragmented("abcdef", 2);
  BufferList b;
  b.append("Z");
  b.claim_append(a);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.num_slices(), 0u);
  EXPECT_EQ(b.to_string(), "Zabcdef");
}

TEST(BufferList, SubstrWithinOneSlice) {
  BufferList bl;
  bl.append("hello world");
  EXPECT_EQ(bl.substr(6, 5).to_string(), "world");
}

TEST(BufferList, SubstrAcrossSlices) {
  BufferList bl = fragmented("hello cruel world", 4);
  EXPECT_EQ(bl.substr(6, 5).to_string(), "cruel");
  EXPECT_EQ(bl.substr(0, 17).to_string(), "hello cruel world");
}

TEST(BufferList, SubstrClampsPastEnd) {
  BufferList bl = fragmented("abcdef", 2);
  EXPECT_EQ(bl.substr(4, 100).to_string(), "ef");
  EXPECT_TRUE(bl.substr(6, 5).empty());
  EXPECT_TRUE(bl.substr(100, 5).empty());
}

TEST(BufferList, SubstrIsZeroCopy) {
  BufferList bl = fragmented(std::string(1000, 'q'), 100);
  BufferList sub = bl.substr(150, 700);
  EXPECT_EQ(sub.length(), 700u);
  EXPECT_LE(sub.num_slices(), 8u);  // views, not copies
}

TEST(BufferList, CopyOut) {
  BufferList bl = fragmented("0123456789", 3);
  char buf[5] = {};
  EXPECT_EQ(bl.copy_out(2, 5, buf), 5u);
  EXPECT_EQ(std::string(buf, 5), "23456");
  EXPECT_EQ(bl.copy_out(8, 10, buf), 2u);  // clamped
}

TEST(BufferList, Crc32cMatchesContiguous) {
  const std::string s = "some payload for checksumming, long enough to span";
  const std::uint32_t ref = crc32c(s.data(), s.size());
  for (std::size_t frag : {1u, 2u, 7u, 16u, 64u}) {
    EXPECT_EQ(fragmented(s, frag).crc32c(), ref) << "frag " << frag;
  }
}

TEST(BufferList, EqualityIgnoresFragmentation) {
  const std::string s = "equality is content-based";
  EXPECT_EQ(fragmented(s, 3), fragmented(s, 7));
  EXPECT_FALSE(fragmented(s, 3) == fragmented(s + "x", 3));
  EXPECT_FALSE(fragmented("abc", 1) == fragmented("abd", 3));
}

TEST(BufferList, ContiguousFlattens) {
  BufferList bl = fragmented("xyzw", 1);
  Slice s = bl.contiguous();
  EXPECT_EQ(std::string(s.data(), s.size()), "xyzw");
  // Single-slice lists are returned as-is (no copy).
  BufferList one;
  one.append("solo");
  EXPECT_EQ(one.contiguous().data(), one.slices().front().data());
}

TEST(BufferListCursor, SequentialReads) {
  BufferList bl = fragmented("0123456789", 4);
  BufferList::Cursor cur(bl);
  char a[3], b[4];
  EXPECT_TRUE(cur.copy(3, a));
  EXPECT_EQ(std::string(a, 3), "012");
  EXPECT_TRUE(cur.skip(2));
  EXPECT_TRUE(cur.copy(4, b));
  EXPECT_EQ(std::string(b, 4), "5678");
  EXPECT_EQ(cur.remaining(), 1u);
  EXPECT_FALSE(cur.copy(2, a));       // not enough left
  EXPECT_EQ(cur.remaining(), 1u);     // failed read does not advance
}

TEST(BufferListCursor, GetBufferListZeroCopy) {
  BufferList bl = fragmented(std::string(256, 'k'), 64);
  BufferList::Cursor cur(bl);
  BufferList out;
  EXPECT_TRUE(cur.get_buffer_list(128, out));
  EXPECT_EQ(out.length(), 128u);
  EXPECT_EQ(cur.remaining(), 128u);
  BufferList rest;
  EXPECT_FALSE(cur.get_buffer_list(200, rest));
  EXPECT_TRUE(cur.get_buffer_list(128, rest));
  EXPECT_EQ(cur.remaining(), 0u);
}

TEST(BufferList, LargePayloadRoundTrip) {
  std::string big(1 << 20, '\0');
  std::iota(big.begin(), big.end(), 0);
  BufferList bl = fragmented(big, 4096);
  EXPECT_EQ(bl.length(), big.size());
  EXPECT_EQ(bl.to_string(), big);
  EXPECT_EQ(bl.crc32c(), crc32c(big.data(), big.size()));
}

}  // namespace
}  // namespace doceph
