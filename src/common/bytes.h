#pragma once
// Little-endian byte codec shared by every canonical serialisation (the
// byte-identity units of the campaign results, the DSEV event files and
// audit windows of trace/) and every journal payload (fault/checkpoint.h).
// store32/store64 write into a buffer, put8/put32/put64 append to a byte
// container (std::vector<u8> or std::string); ByteReader reads back with
// bounds checks that fail sticky, so a decoder can read a whole record and
// test ok() once.

#include <cstddef>
#include <string>
#include <vector>

#include "common/bitutil.h"

namespace detstl {

inline void store32(u8* p, u32 v) {
  for (unsigned i = 0; i < 4; ++i) p[i] = static_cast<u8>(v >> (8 * i));
}

inline void store64(u8* p, u64 v) {
  store32(p, static_cast<u32>(v));
  store32(p + 4, static_cast<u32>(v >> 32));
}

template <typename Bytes>
void put8(Bytes& out, u8 v) {
  out.push_back(static_cast<typename Bytes::value_type>(v));
}

template <typename Bytes>
void put32(Bytes& out, u32 v) {
  u8 b[4];
  store32(b, v);
  out.insert(out.end(), b, b + sizeof b);
}

template <typename Bytes>
void put64(Bytes& out, u64 v) {
  u8 b[8];
  store64(b, v);
  out.insert(out.end(), b, b + sizeof b);
}

/// u32 length prefix, then the characters.
inline void put_str(std::vector<u8>& out, const std::string& s) {
  put32(out, static_cast<u32>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

inline u32 load32(const u8* p) {
  u32 v = 0;
  for (unsigned i = 0; i < 4; ++i) v |= static_cast<u32>(p[i]) << (8 * i);
  return v;
}

inline u64 load64(const u8* p) {
  u64 v = 0;
  for (unsigned i = 0; i < 8; ++i) v |= static_cast<u64>(p[i]) << (8 * i);
  return v;
}

/// Bounds-checked little-endian cursor over a byte vector (borrowed). Every
/// get_* past the end returns 0 (or "") and clears ok() for good.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<u8>& bytes) : b_(&bytes) {}

  /// Claim `n` more bytes; false (sticky) when fewer remain.
  bool take(std::size_t n) {
    if (!ok_ || b_->size() - pos_ < n) return ok_ = false;
    return true;
  }
  u8 get8() { return take(1) ? (*b_)[pos_++] : 0; }
  u32 get32() { return take(4) ? load32(advance(4)) : 0; }
  u64 get64() { return take(8) ? load64(advance(8)) : 0; }
  std::string get_str() {
    const u32 n = get32();
    if (!take(n)) return {};
    const u8* p = advance(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  /// The next `n` bytes as a vector (empty on overrun).
  std::vector<u8> get_bytes(std::size_t n) {
    if (!take(n)) return {};
    const u8* p = advance(n);
    return std::vector<u8>(p, p + n);
  }

  bool ok() const { return ok_; }
  /// Every byte consumed and no overrun: the record had no trailing garbage.
  bool done() const { return ok_ && pos_ == b_->size(); }

 private:
  const u8* advance(std::size_t n) {
    const u8* p = b_->data() + pos_;
    pos_ += n;
    return p;
  }

  const std::vector<u8>* b_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace detstl
