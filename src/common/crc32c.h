#pragma once

#include <cstddef>
#include <cstdint>

namespace doceph {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum Ceph uses for message integrity. Like Ceph's
/// ceph_choose_crc32(), the kernel is picked once at run time from CPUID:
/// on x86-64 with SSE4.2 it is the crc32 instruction over three interleaved
/// lanes; everywhere else it is crc32c_sw(). Both give identical results.
///
/// `crc` is the running value (start with 0 or a seed); data may be null only
/// if len == 0. Compatible with iSCSI/ext4/Ceph crc32c.
std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t len) noexcept;

/// Portable software slice-by-8 CRC-32C; tables are built once on first use.
/// The fallback on CPUs without a hardware kernel, and the reference the
/// tests check crc32c() against. Same contract as crc32c().
std::uint32_t crc32c_sw(std::uint32_t crc, const void* data, std::size_t len) noexcept;

/// Convenience overload starting from crc 0.
inline std::uint32_t crc32c(const void* data, std::size_t len) noexcept {
  return crc32c(0, data, len);
}

}  // namespace doceph
