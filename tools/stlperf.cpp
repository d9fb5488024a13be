// stlperf — the performance-observability CLI over the BENCH_<name>.json
// trajectory format (src/perf/perf_report.h, docs/observability.md).
//
//   stlperf report FILE                     render one report as tables
//   stlperf diff BASELINE CURRENT           compare two reports
//   stlperf check CURRENT --baseline FILE   gate CURRENT against a baseline
//
// diff and check share the regression semantics: exit 0 when the current
// sim-MHz is within --threshold percent (default 15) of the baseline, exit 1
// on a regression, when the reports are not comparable (different bench
// name or schema), or when the sim subtree diverged under the same config
// hash (a determinism break), exit 2 on usage errors and unreadable/malformed
// files (tools/cli_util.h exit-code contract). A config-hash mismatch is
// reported as a note — the workload changed, so a slowdown may be
// intentional — but still gates on the threshold.

#include <cstdio>
#include <string>
#include <vector>

#include "cli_util.h"
#include "perf/perf_report.h"

namespace {

constexpr const char* kTool = "stlperf";

using detstl::cli::kExitFailure;
using detstl::cli::kExitSuccess;
using detstl::cli::kExitUsage;

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: stlperf report FILE\n"
               "       stlperf diff BASELINE CURRENT [--threshold PCT]\n"
               "       stlperf check CURRENT --baseline FILE [--threshold PCT]\n"
               "       stlperf --version\n"
               "\n"
               "  report   validate a BENCH_<name>.json and render it as tables\n"
               "  diff     compare two reports; exit 1 when CURRENT's sim-MHz\n"
               "           dropped more than PCT%% (default 15) below BASELINE\n"
               "           or its sim subtree diverged under the same config\n"
               "  check    diff against a committed baseline (the CI perf gate)\n");
}

/// Load or exit(2): an unreadable or malformed report is a setup error, not
/// a regression verdict.
detstl::perf::PerfReport load_or_die(const std::string& path) {
  detstl::perf::PerfReport rep;
  std::string err;
  if (!detstl::perf::load_report_file(path, rep, &err)) {
    std::fprintf(stderr, "stlperf: %s: %s\n", path.c_str(), err.c_str());
    std::exit(kExitUsage);
  }
  return rep;
}

/// Threshold in percent; strict like the numeric options of the other tools.
double parse_threshold(const std::string& text) {
  const unsigned long long v =
      detstl::cli::require_u64(kTool, "--threshold", text, 0, 1000);
  return static_cast<double>(v);
}

int cmd_report(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    usage(stderr);
    return kExitUsage;
  }
  const detstl::perf::PerfReport rep = load_or_die(args[0]);
  std::fputs(detstl::perf::render_report(rep).c_str(), stdout);
  return kExitSuccess;
}

int cmd_compare(const std::string& baseline_path, const std::string& current_path,
                double threshold) {
  const detstl::perf::PerfReport baseline = load_or_die(baseline_path);
  const detstl::perf::PerfReport current = load_or_die(current_path);
  const detstl::perf::CompareOutcome cmp =
      detstl::perf::compare_reports(baseline, current);
  std::fputs(detstl::perf::render_diff(baseline, current, cmp, threshold).c_str(),
             stdout);
  const bool failed = !cmp.comparable || cmp.determinism_break() ||
                      cmp.regressed(threshold);
  return failed ? kExitFailure : kExitSuccess;
}

/// diff (BASELINE CURRENT) and check (CURRENT --baseline FILE) share one
/// option set; every non-option argument is a report file.
int cmd_diff_or_check(int argc, char** argv, bool check) {
  std::vector<std::string> files;
  std::string baseline;
  double threshold = 15.0;
  const auto parse = [&](const std::string& a, auto& need) {
    if (a == "--threshold") threshold = parse_threshold(need());
    else if (check && a == "--baseline") baseline = need();
    else if (a.rfind("--", 0) == 0) return false;
    else files.push_back(a);
    return true;
  };
  if (const int rc = detstl::cli::parse_args(kTool, usage, argc, argv, parse); rc >= 0)
    return rc;
  if (check ? files.size() != 1 || baseline.empty() : files.size() != 2) {
    usage(stderr);
    return kExitUsage;
  }
  return check ? cmd_compare(baseline, files[0], threshold)
               : cmd_compare(files[0], files[1], threshold);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    usage(stderr);
    return kExitUsage;
  }
  if (args[0] == "--version") {
    detstl::cli::print_version("stlperf");
    std::printf("stlperf schema %u\n", detstl::perf::kPerfSchemaVersion);
    return kExitSuccess;
  }
  if (args[0] == "--help" || args[0] == "-h") {
    usage(stdout);
    return kExitSuccess;
  }
  const std::string cmd = args[0];
  args.erase(args.begin());
  if (cmd == "report") return cmd_report(args);
  if (cmd == "diff") return cmd_diff_or_check(argc - 2, argv + 2, false);
  if (cmd == "check") return cmd_diff_or_check(argc - 2, argv + 2, true);
  std::fprintf(stderr, "stlperf: unknown command '%s'\n", cmd.c_str());
  usage(stderr);
  return kExitUsage;
}
