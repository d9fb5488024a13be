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

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/version.h"
#include "fault/units.h"

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

using detstl::parse_u64;  // common/parse.h: digit-led, no sign or space

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

/// Arm the cooperative drain when a run asked for one (a checkpoint journal,
/// an --interrupt-after drill or a --timeout budget): clear the process-wide
/// token, set the drill countdown, install the SIGINT/SIGTERM handlers and
/// start the wall-clock budget. Returns the token for the executor's
/// `interrupt`, or null when no drain was asked for.
inline fault::InterruptToken* arm_drain(bool journalled,
                                        unsigned long long interrupt_after,
                                        unsigned timeout_s) {
  if (!journalled && interrupt_after == 0 && timeout_s == 0) return nullptr;
  fault::InterruptToken& token = fault::global_interrupt();
  token.clear();
  if (interrupt_after != 0) token.arm_after(interrupt_after);
  fault::install_drain_handlers();
  if (timeout_s != 0) fault::arm_wallclock_timeout(timeout_s);
  return &token;
}

/// --help text of the ExecutorFlags group.
inline constexpr const char* kExecutorUsage =
    "executor options (exit 3 = interrupted but resumable):\n"
    "  --threads N              worker threads, 0..256, 0 = hardware threads\n"
    "                           (default 0; the result is the same for any N)\n"
    "  --checkpoint-dir DIR     journal completed units into DIR; SIGINT and\n"
    "                           SIGTERM drain cooperatively, flush a final shard\n"
    "  --checkpoint-interval N  completed units per shard, 1..1000000\n"
    "                           (default 256)\n"
    "  --resume                 load DIR's verified shards, run the remainder\n"
    "  --no-fsync               skip fsync on shard writes (less durable)\n"
    "  --interrupt-after N      drill: request the drain after N units\n"
    "  --timeout SEC            wall-clock budget, 1..86400: drain after SEC\n"
    "                           seconds, same contract as SIGTERM\n";

/// The executor option group of every journalled run (the table benches,
/// `stlrun campaign`, `stlrun soak`), parsed into the run's
/// fault::ExecutorConfig. Usage text: kExecutorUsage.
class ExecutorFlags {
 public:
  ExecutorFlags(const char* tool, fault::ExecutorConfig& ex)
      : tool_(tool), ex_(ex) {}

  /// Consume option `a`, pulling its value with need(); false = not an
  /// executor option.
  template <typename Need>
  bool parse(const std::string& a, Need& need) {
    if (a == "--threads") {
      ex_.threads = require_unsigned(tool_, "--threads", need(), 0, 256);
    } else if (a == "--checkpoint-dir") {
      ex_.checkpoint.dir = need();
    } else if (a == "--checkpoint-interval") {
      ex_.checkpoint.interval = require_unsigned(tool_, "--checkpoint-interval",
                                                 need(), 1, 1'000'000);
      journal_only_ = "--checkpoint-interval";
    } else if (a == "--resume") {
      ex_.checkpoint.resume = true;
      journal_only_ = "--resume";
    } else if (a == "--no-fsync") {
      ex_.checkpoint.fsync = fault::FsyncPolicy::kNone;
      journal_only_ = "--no-fsync";
    } else if (a == "--interrupt-after") {
      interrupt_after_ =
          require_u64(tool_, "--interrupt-after", need(), 1, ~0ull);
    } else if (a == "--timeout") {
      timeout_s_ = require_unsigned(tool_, "--timeout", need(), 1, 86'400);
    } else {
      return false;
    }
    return true;
  }

  /// After parsing: refuse a journal option (--resume,
  /// --checkpoint-interval, --no-fsync) without --checkpoint-dir (exit code
  /// 2), else arm the drain into the config's `interrupt` and return -1 to
  /// run.
  int arm() {
    if (journal_only_ != nullptr && !ex_.checkpoint.enabled()) {
      std::fprintf(stderr, "%s: %s requires --checkpoint-dir\n", tool_,
                   journal_only_);
      return kExitUsage;
    }
    ex_.interrupt =
        arm_drain(ex_.checkpoint.enabled(), interrupt_after_, timeout_s_);
    return -1;
  }

 private:
  const char* tool_;
  fault::ExecutorConfig& ex_;
  const char* journal_only_ = nullptr;  // last journal option seen
  unsigned long long interrupt_after_ = 0;
  unsigned timeout_s_ = 0;
};

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
