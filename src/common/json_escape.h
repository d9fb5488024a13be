#pragma once
// The one JSON string escaper of the suite: stlperf reports (perf/), the
// stlserve spec (serve/), stlint's --json output and its SARIF log
// (analysis/sarif.h). Emits \" \\ \n \t \r and \u00XX for the other control
// characters; the quotes around the string are the caller's.

#include <cstdio>
#include <string>

namespace detstl {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace detstl
