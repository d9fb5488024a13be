#pragma once
// Strict unsigned-integer text parse, shared by the tools' flags
// (tools/cli_util.h), the benches' environment knobs and the stlserve spec
// (serve/spec.cpp), so a seed or a count is read by one rule on every path.

#include <cerrno>
#include <cstdlib>
#include <string>

namespace detstl {

/// Parse a decimal (or 0x-prefixed hex) unsigned integer in [lo, hi].
/// Returns false on an empty string, a first character that is not a digit
/// (sign, space), trailing characters, overflow or a range violation.
inline bool parse_u64(const std::string& text, unsigned long long lo,
                      unsigned long long hi, unsigned long long& out) {
  if (text.empty() || text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  if (v < lo || v > hi) return false;
  out = v;
  return true;
}

}  // namespace detstl
