#include "common/checksum.hpp"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define GAPART_CRC_CLMUL 1
#endif

namespace gapart {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the CRC kernels read their blocks as little-endian words");

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// tables[0] is the bytewise table; tables[j][b] is the CRC register after
// byte b followed by j zero bytes, so eight lookups fold an 8-byte block
// (slicing-by-8).  Built at compile time: no static-init order involved.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t j = 1; j < t.size(); ++j) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[j][i] = t[0][t[j - 1][i] & 0xffu] ^ (t[j - 1][i] >> 8);
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// The CRC register `c` after `len` more bytes at `p`, by slicing-by-8.
std::uint32_t slice(const unsigned char* p, std::size_t len, std::uint32_t c) {
  const auto& t = kCrcTables;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c;
}

#ifdef GAPART_CRC_CLMUL

#define GAPART_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

GAPART_CLMUL_TARGET inline __m128i load16(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Lane x carried forward past the span that `k` stands for (its low half
/// times k's low constant, its high half times k's high one), summed with
/// the lane it lands on.
GAPART_CLMUL_TARGET inline __m128i fold_onto(__m128i x, __m128i k,
                                             __m128i onto) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       onto);
}

/// The CRC register `c` after `len` more bytes at `p` (len >= 64, a
/// multiple of 16), by carry-less-multiply folding: four 128-bit lanes fold
/// 64 bytes per step, fold into one lane, which folds 16 bytes per step,
/// and a Barrett reduction takes its last 128 bits to 32.  The constants
/// are the reflected polynomial's (the zlib and Linux values): k1..k4 stand
/// for x^(4*128+32), x^(4*128-32), x^(128+32) and x^(128-32) mod P, k5 for
/// x^64 mod P, then P itself and mu = x^64 / P.
GAPART_CLMUL_TARGET std::uint32_t fold(const unsigned char* p, std::size_t len,
                                       std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x0 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load16(p + 16);
  __m128i x2 = load16(p + 32);
  __m128i x3 = load16(p + 48);
  for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
    x0 = fold_onto(x0, k1k2, load16(p));
    x1 = fold_onto(x1, k1k2, load16(p + 16));
    x2 = fold_onto(x2, k1k2, load16(p + 32));
    x3 = fold_onto(x3, k1k2, load16(p + 48));
  }
  x0 = fold_onto(x0, k3k4, x1);
  x0 = fold_onto(x0, k3k4, x2);
  x0 = fold_onto(x0, k3k4, x3);
  for (; len >= 16; p += 16, len -= 16) x0 = fold_onto(x0, k3k4, load16(p));

  // 128 bits to 64, then Barrett-reduce to the 32-bit register.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, t), 1));
}

bool cpu_has_clmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
#ifdef GAPART_CRC_CLMUL
  static const bool has_clmul = cpu_has_clmul();
  if (len >= 64 && has_clmul) {
    const std::size_t body = len & ~std::size_t{15};
    c = fold(p, body, c);
    p += body;
    len -= body;
  }
#endif
  return slice(p, len, c) ^ 0xffffffffu;
}

std::uint32_t crc32_sliced(const void* data, std::size_t len,
                           std::uint32_t seed) {
  return slice(static_cast<const unsigned char*>(data), len,
               seed ^ 0xffffffffu) ^
         0xffffffffu;
}

}  // namespace gapart
