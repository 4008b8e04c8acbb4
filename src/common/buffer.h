#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace doceph {

/// A reference-counted, immutable-after-fill view of raw bytes.
/// Copying a Slice is O(1); the underlying storage is shared.
class Slice {
 public:
  Slice() noexcept = default;
  Slice(std::shared_ptr<char[]> store, std::size_t off, std::size_t len) noexcept
      : store_(std::move(store)), off_(off), len_(len) {}

  /// Allocate an uninitialized slice of `len` bytes (single owner until shared).
  static Slice allocate(std::size_t len);
  /// Allocate and fill from `data`.
  static Slice copy_of(const void* data, std::size_t len);
  static Slice copy_of(std::string_view sv) { return copy_of(sv.data(), sv.size()); }

  [[nodiscard]] const char* data() const noexcept { return store_.get() + off_; }
  [[nodiscard]] char* mutable_data() noexcept { return store_.get() + off_; }
  [[nodiscard]] std::size_t size() const noexcept { return len_; }
  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }

  /// Zero-copy sub-view; `off + len` must be within the slice.
  [[nodiscard]] Slice subslice(std::size_t off, std::size_t len) const;

 private:
  friend class BufferList;  // grows its last slice into its append buffer

  std::shared_ptr<char[]> store_;
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

/// A rope of Slices, modeled after Ceph's bufferlist: appending, zero-copy
/// substr/claim, checksumming, and a decode Cursor. This is the unit of
/// payload throughout the messenger, object store, and proxy layers.
///
/// Small copying appends (encoded fields) land in a private append buffer,
/// like Ceph's bufferlist append buffer: a block owned by this list alone
/// whose bytes past its fill point no slice anywhere covers. An append
/// writes there and grows the last slice in place when that slice ends at
/// the fill point, so encoding a message costs one allocation per block
/// rather than one per field. Copies and substrs never inherit the block,
/// so nothing appended later is visible through them.
class BufferList {
 public:
  BufferList() = default;
  BufferList(const BufferList& other) : slices_(other.slices_), len_(other.len_) {}
  BufferList& operator=(const BufferList& other) {
    slices_ = other.slices_;
    len_ = other.len_;
    return *this;
  }
  BufferList(BufferList&& other) noexcept
      : slices_(std::move(other.slices_)),
        len_(std::exchange(other.len_, 0)),
        tail_(std::move(other.tail_)),
        tail_fill_(std::exchange(other.tail_fill_, 0)) {}
  BufferList& operator=(BufferList&& other) noexcept {
    slices_ = std::move(other.slices_);
    len_ = std::exchange(other.len_, 0);
    tail_ = std::move(other.tail_);
    tail_fill_ = std::exchange(other.tail_fill_, 0);
    return *this;
  }

  [[nodiscard]] std::size_t length() const noexcept { return len_; }
  [[nodiscard]] bool empty() const noexcept { return len_ == 0; }
  void clear() noexcept {
    slices_.clear();
    len_ = 0;
  }

  void append(Slice s);
  void append(const void* data, std::size_t len);
  void append(std::string_view sv) { append(sv.data(), sv.size()); }
  void append(char c) { append(&c, 1); }
  /// Append `len` zero bytes.
  void append_zero(std::size_t len);
  /// Append another list's slices (zero copy).
  void append(const BufferList& other);
  /// Move another list's slices onto the end of this one; `other` is emptied.
  void claim_append(BufferList& other);

  static BufferList copy_of(const void* data, std::size_t len) {
    BufferList bl;
    bl.append(data, len);
    return bl;
  }
  static BufferList copy_of(std::string_view sv) { return copy_of(sv.data(), sv.size()); }

  /// Zero-copy sub-list [off, off+len). Clamps to the available length.
  [[nodiscard]] BufferList substr(std::size_t off, std::size_t len) const;

  /// Copy out [off, off+len) into dst; returns bytes copied (clamped).
  std::size_t copy_out(std::size_t off, std::size_t len, void* dst) const;

  [[nodiscard]] std::string to_string() const;

  /// CRC-32C over the whole content, continuing from `seed`.
  [[nodiscard]] std::uint32_t crc32c(std::uint32_t seed = 0) const;

  /// Number of underlying slices (for tests / copy-avoidance assertions).
  [[nodiscard]] std::size_t num_slices() const noexcept { return slices_.size(); }
  [[nodiscard]] const std::vector<Slice>& slices() const noexcept { return slices_; }

  /// Flatten into a single contiguous slice (copies only if fragmented).
  [[nodiscard]] Slice contiguous() const;

  /// Byte-wise equality (content, not fragmentation).
  friend bool operator==(const BufferList& a, const BufferList& b);

  /// Sequential reader over a BufferList, used by decoders.
  class Cursor {
   public:
    explicit Cursor(const BufferList& bl) noexcept : bl_(&bl) {}
    explicit Cursor(const BufferList&& bl) = delete;  // no binding to temporaries

    [[nodiscard]] std::size_t remaining() const noexcept { return bl_->len_ - pos_; }
    [[nodiscard]] std::size_t position() const noexcept { return pos_; }

    /// Copy `len` bytes to dst and advance. Returns false (without moving)
    /// if fewer than `len` bytes remain.
    bool copy(std::size_t len, void* dst);
    /// Extract `len` bytes as a zero-copy BufferList and advance.
    bool get_buffer_list(std::size_t len, BufferList& out);
    bool skip(std::size_t len);

   private:
    const BufferList* bl_;
    std::size_t pos_ = 0;
  };

 private:
  /// Appends up to this long go to the append buffer; longer ones get a
  /// slice of their own.
  static constexpr std::size_t kSmallAppend = 256;
  static constexpr std::size_t kAppendBlock = 512;

  std::vector<Slice> slices_;
  std::size_t len_ = 0;
  std::shared_ptr<char[]> tail_;  ///< append buffer (never shared by copies)
  std::size_t tail_fill_ = 0;     ///< bytes of `tail_` handed out so far
};

}  // namespace doceph
