// Fixed-width byte primitives for every binary codec in gapart (delta rows,
// session images, WAL and replication frames).  Values are memcpy'd in host
// byte order, little-endian on every supported target.  ByteReader throws
// gapart::Error on any read past the end, so truncated input becomes a
// typed error, never an out-of-bounds read.  put_at and get_at are the raw
// cursors of the whole-graph passes (graph/delta_codec.cpp), which check
// a region's size once up front instead of per value.
#pragma once

#include <bit>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/assert.hpp"

namespace gapart {

static_assert(std::endian::native == std::endian::little,
              "gapart's binary formats are little-endian byte copies");

template <typename T>
void put(std::string& out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.append(buf, sizeof(T));
}

/// Writes `value` at `at` and returns the byte after it, with no bounds
/// check: for a writer that sized its buffer exactly before the first byte.
template <typename T>
char* put_at(char* at, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(at, &value, sizeof(T));
  return at + sizeof(T);
}

/// Reads the value at `at` and moves `at` past it, with no bounds check:
/// for a reader that has already proven the bytes present.
template <typename T>
T get_at(const char*& at) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memcpy(&value, at, sizeof(T));
  at += sizeof(T);
  return value;
}

/// Sequential reader over a byte range it does not own.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
    return value;
  }

  /// The next `n` bytes, as a view into the underlying range.
  std::string_view take(std::size_t n) {
    GAPART_REQUIRE(n <= remaining(), "byte stream truncated: need ", n,
                   " bytes at ", pos_, ", have ", bytes_.size());
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace gapart
