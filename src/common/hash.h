#pragma once
// FNV-1a 64 and the width-framed config hasher built on it: the one hash
// behind every checkpoint checksum and manifest identity (fault/checkpoint.h),
// every outcome digest and every stlperf config hash and sim fingerprint
// (perf/). The values are part of on-disk formats and committed goldens;
// never change the byte stream a field contributes.

#include <cstddef>
#include <cstring>
#include <string>

#include "common/bitutil.h"
#include "common/bytes.h"

namespace detstl {

inline constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;

/// FNV-1a 64 over a byte range, chainable via `h`.
inline u64 fnv1a(const void* data, std::size_t n, u64 h = kFnvOffset) {
  const u8* p = static_cast<const u8*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Order-sensitive accumulator for config hashes and fingerprints. Every
/// typed field is framed with its width (integers little-endian, strings
/// length-prefixed) so adjacent fields can never alias; bytes() mixes a raw
/// range unframed.
class ConfigHasher {
 public:
  ConfigHasher& u8v(u8 v) { return bytes(&v, 1); }
  ConfigHasher& u32v(u32 v) {
    u8 b[4];
    store32(b, v);
    return bytes(b, sizeof b);
  }
  ConfigHasher& u64v(u64 v) {
    u8 b[8];
    store64(b, v);
    return bytes(b, sizeof b);
  }
  /// Hashed by bit pattern.
  ConfigHasher& f64v(double v) {
    u64 bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    return u64v(bits);
  }
  ConfigHasher& str(const std::string& s) {
    u64v(s.size());
    return bytes(s.data(), s.size());
  }
  ConfigHasher& bytes(const void* data, std::size_t n) {
    h_ = fnv1a(data, n, h_);
    return *this;
  }
  u64 digest() const { return h_; }

 private:
  u64 h_ = kFnvOffset;
};

}  // namespace detstl
