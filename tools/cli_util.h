#pragma once
// Strict CLI parsing shared by the detstl tools (stlint, detscope, stlperf,
// stlrun, stlserve). Malformed or out-of-range values are usage errors —
// reported on stderr with exit code 2 — never silently clamped or ignored.
//
// Exit-code contract (all tools and table benches):
//   0  completed successfully
//   1  ran to completion but failed (determinism violation, lint finding,
//      shape mismatch, ...)
//   2  usage error (unknown option, malformed value, config-hash mismatch
//      against an existing checkpoint)
//   3  interrupted but RESUMABLE: a cooperative drain (SIGINT/SIGTERM or a
//      --interrupt-after drill) stopped the run after flushing a final
//      checkpoint shard; re-run with --resume to continue.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/version.h"
#include "fault/checkpoint.h"

namespace detstl::cli {

inline constexpr int kExitSuccess = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitInterrupted = 3;  // resumable; see contract above

/// `<tool> --version`: suite version plus the on-disk checkpoint schema the
/// binary reads and writes (fault/checkpoint.h).
inline void print_version(const char* tool) {
  std::printf("%s (detstl %s, checkpoint schema %u)\n", tool,
              detstl::kDetstlVersion, fault::kCheckpointSchemaVersion);
}

/// Walk argv: `parse(option, need)` consumes one option, pulling its value
/// with need() (a missing value exits 2), or returns false for an unknown
/// one (usage on stderr, exit 2). --help/-h prints the usage to stdout.
/// Returns an exit code when the command must stop here, -1 to run it.
template <typename Parse>
int parse_args(const char* tool, void (*usage)(std::FILE*), int argc,
               char** argv, Parse parse) {
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto need = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", tool, a.c_str());
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") {
      usage(stdout);
      return kExitSuccess;
    }
    if (!parse(a, need)) {
      std::fprintf(stderr, "%s: unknown option '%s'\n", tool, a.c_str());
      usage(stderr);
      return kExitUsage;
    }
  }
  return -1;
}

/// Parse a decimal (or 0x-prefixed hex) unsigned integer in [lo, hi].
/// Returns false on garbage, trailing characters, sign or range violation.
inline bool parse_u64(const std::string& text, unsigned long long lo,
                      unsigned long long hi, unsigned long long& out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  if (v < lo || v > hi) return false;
  out = v;
  return true;
}

/// Parse or exit(2) with a diagnostic naming the tool and the option.
inline unsigned long long require_u64(const char* tool, const char* opt,
                                      const std::string& text,
                                      unsigned long long lo,
                                      unsigned long long hi) {
  unsigned long long v = 0;
  if (!parse_u64(text, lo, hi, v)) {
    std::fprintf(stderr, "%s: %s expects an integer in [%llu, %llu], got '%s'\n",
                 tool, opt, lo, hi, text.c_str());
    std::exit(2);
  }
  return v;
}

inline unsigned require_unsigned(const char* tool, const char* opt,
                                 const std::string& text, unsigned lo,
                                 unsigned hi) {
  return static_cast<unsigned>(require_u64(tool, opt, text, lo, hi));
}

/// Comma-separated list of integers, each in [lo, hi]; empty list or any
/// malformed entry is a usage error.
inline std::vector<unsigned> require_unsigned_list(const char* tool,
                                                   const char* opt,
                                                   const std::string& text,
                                                   unsigned lo, unsigned hi) {
  std::vector<unsigned> out;
  std::size_t p = 0;
  while (p <= text.size()) {
    const std::size_t comma = text.find(',', p);
    const std::string item =
        text.substr(p, comma == std::string::npos ? std::string::npos : comma - p);
    out.push_back(require_unsigned(tool, opt, item, lo, hi));
    if (comma == std::string::npos) break;
    p = comma + 1;
  }
  if (out.empty()) {
    std::fprintf(stderr, "%s: %s expects a comma-separated integer list\n", tool,
                 opt);
    std::exit(2);
  }
  return out;
}

}  // namespace detstl::cli
