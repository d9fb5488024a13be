#pragma once
// Shared helpers for the table-reproduction binaries.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/table.h"
#include "exp/experiments.h"
#include "perf/session.h"
#include "trace/chrome_trace.h"

#include "cli_util.h"

namespace detstl::bench {

/// Environment-variable override with default (fault-sampling stride etc.).
/// Parsed by the tools' rule (cli::parse_u64) within [lo, hi]; exits 2 on
/// garbage so a typo'd DETSTL_THREADS never silently becomes another count.
inline unsigned env_unsigned(const char* name, unsigned def, unsigned lo = 0,
                             unsigned hi = ~0u) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  unsigned long long n = 0;
  if (!cli::parse_u64(v, lo, hi, n)) {
    std::fprintf(stderr, "error: %s expects an integer in [%u, %u], got '%s'\n",
                 name, lo, hi, v);
    std::exit(cli::kExitUsage);
  }
  return static_cast<unsigned>(n);
}

/// Command-line options shared by the table benches.
struct BenchOptions {
  bool progress = false;    // --progress: live campaign progress on stderr
  std::string trace_path;   // --trace FILE: Chrome-trace JSON of the run
  // stlperf trajectory (src/perf/session.h, tools/stlperf.cpp).
  std::string metrics_out;  // --metrics-out FILE: BENCH_<name>.json
  // --threads / DETSTL_THREADS and the crash-safe checkpoint/resume group
  // (cli::ExecutorFlags); an interrupted bench exits 3 (resumable).
  fault::ExecutorConfig executor;
};

inline void bench_usage(std::FILE* out) {
  std::fprintf(out,
               "options: [--progress] [--trace FILE] [--metrics-out FILE]\n%s",
               cli::kExecutorUsage);
}

/// Parse the shared bench options with the tools' strict parser
/// (tools/cli_util.h): an unknown option or a malformed or out-of-range
/// value exits 2, --help prints the options and exits 0.
inline BenchOptions parse_options(int argc, char** argv) {
  const char* slash = std::strrchr(argv[0], '/');
  const char* tool = slash != nullptr ? slash + 1 : argv[0];
  BenchOptions o;
  o.executor.threads = env_unsigned("DETSTL_THREADS", 0, 0, 256);
  cli::ExecutorFlags executor(tool, o.executor);
  int rc = cli::parse_args(
      tool, bench_usage, argc - 1, argv + 1,
      [&](const std::string& a, auto& need) {
        if (a == "--progress") {
          o.progress = true;
        } else if (a == "--trace") {
          o.trace_path = need();
        } else if (a == "--metrics-out") {
          o.metrics_out = need();
        } else {
          return executor.parse(a, need);
        }
        return true;
      });
  if (rc < 0) rc = executor.arm();
  if (rc >= 0) std::exit(rc);
  // Probe the output paths up front: a bench can run for minutes, and an
  // unwritable destination should fail before the campaign, not after it.
  for (const std::string* path : {&o.trace_path, &o.metrics_out}) {
    if (path->empty()) continue;
    std::FILE* f = std::fopen(path->c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot open output file %s for writing\n",
                   path->c_str());
      std::exit(cli::kExitUsage);
    }
    std::fclose(f);
  }
  return o;
}

/// A Chrome-trace writer when --trace was given, else null (tracing off).
inline std::unique_ptr<trace::ChromeTraceWriter> make_trace_writer(
    const BenchOptions& o) {
  if (o.trace_path.empty()) return nullptr;
  return std::make_unique<trace::ChromeTraceWriter>();
}

/// Flush the collected events to the --trace file (no-op without writer).
inline void finish_trace(const BenchOptions& o,
                         const std::unique_ptr<trace::ChromeTraceWriter>& w) {
  if (w == nullptr) return;
  if (!w->write_file(o.trace_path)) {
    std::fprintf(stderr, "error: cannot write trace file %s\n",
                 o.trace_path.c_str());
    std::exit(1);
  }
  std::fprintf(stderr, "trace written to %s (%zu events)\n", o.trace_path.c_str(),
               w->size());
}

/// Renders campaign progress as a single in-place line on stderr:
///   [detection] 1732/4632 | excited 1208 | detected 977 | 12.4s eta 21.0s | w: 49/51%
inline void print_progress(const fault::CampaignProgress& p) {
  std::string workers;
  u64 sum = 0;
  for (u64 d : p.worker_done) sum += d;
  if (p.worker_done.size() > 1 && sum > 0) {
    workers = " | w:";
    const std::size_t shown = p.worker_done.size() < 8 ? p.worker_done.size() : 8;
    for (std::size_t w = 0; w < shown; ++w) {
      workers += w == 0 ? " " : "/";
      workers += std::to_string(100 * p.worker_done[w] / sum) + "%";
    }
    if (shown < p.worker_done.size()) workers += "/...";
  }
  std::fprintf(stderr, "\r[%-9s] %llu/%llu | excited %llu | detected %llu | %.1fs",
               fault::phase_name(p.phase),
               static_cast<unsigned long long>(p.done),
               static_cast<unsigned long long>(p.total),
               static_cast<unsigned long long>(p.excited),
               static_cast<unsigned long long>(p.detected), p.elapsed_s);
  if (p.eta_s > 0) std::fprintf(stderr, " eta %.1fs", p.eta_s);
  std::fprintf(stderr, "%s\033[K", workers.c_str());
  if (p.total != 0 && p.done >= p.total) std::fputc('\n', stderr);
  std::fflush(stderr);
}

/// ExecOptions for the table drivers: the executor options, progress +
/// per-scenario narration when --progress was given, events into `sink`
/// when --trace was given.
inline exp::ExecOptions exec_options(const BenchOptions& o,
                                     trace::EventSink* sink = nullptr) {
  exp::ExecOptions e;
  static_cast<fault::ExecutorConfig&>(e) = o.executor;
  e.sink = sink;
  if (o.progress) {
    e.progress = print_progress;
    e.log = [](const std::string& line) {
      std::fprintf(stderr, "\r%s\033[K\n", line.c_str());
    };
  }
  return e;
}

/// Run a table driver under the exit-code contract (tools/cli_util.h): a
/// cooperative drain exits 3 (interrupted but resumable — the journalled
/// prefix is intact), a checkpoint rejected on config/netlist/image mismatch
/// exits 2 (usage/setup error).
template <typename Fn>
auto run_resumable(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const fault::Interrupted& e) {
    std::fprintf(stderr, "\ninterrupted but resumable: %s\n", e.what());
    std::exit(3);
  } catch (const fault::CheckpointMismatch& e) {
    std::fprintf(stderr, "checkpoint rejected: %s\n", e.what());
    std::exit(2);
  }
}

inline void print_header(const char* exhibit, const char* paper_numbers) {
  std::printf("==============================================================\n");
  std::printf("Reproduction of %s\n", exhibit);
  std::printf("Paper reference values: %s\n", paper_numbers);
  std::printf("(absolute values differ — simulated SoC and scaled fault\n");
  std::printf(" lists; the reproduced quantity is the SHAPE, see DESIGN.md)\n");
  std::printf("==============================================================\n");
}

}  // namespace detstl::bench
