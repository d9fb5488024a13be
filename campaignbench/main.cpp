// Campaign benchmark binary (README.md in this directory).
//
//   campaignbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--expect-digest HEX] [--work-dir DIR]
//   campaignbench --selftest [--work-dir DIR]
//
// --trace 0: set up several times, then repeat the workload's fixed-work
// campaigns through the public engine entry points until S seconds have
// passed, verifying every repetition's outcome digest; print the end-to-end
// metrics (medians over repetitions).
// --trace 1: the same repetitions, then one serial untraced repetition and
// one traced replica (traced.h); print the per-layer metrics.
// The last line of stdout is one JSON object; the human report goes to
// stderr.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fault/checkpoint.h"
#include "perf/simstats.h"
#include "traced.h"
#include "workloads.h"

namespace cb = campaignbench;
using namespace detstl;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kSetupRepeats = 7;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::optional<u64> expected;  // committed outcome digest for this seed
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "campaignbench: %s\nusage: campaignbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--expect-digest HEX] [--work-dir DIR]\n"
               "       campaignbench --selftest [--work-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

u64 parse_u64(const std::string& flag, const std::string& v, int base = 10) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), &end, base);
  if (v.empty() || *end != '\0' || errno != 0 || v[0] == '-')
    usage("bad value for " + flag + ": '" + v + "'");
  return x;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + f);
    const std::string v = argv[++i];
    if (f == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (f == "--seed") {
      a.seed = parse_u64(f, v);
    } else if (f == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(f, v));
      if (a.seconds < 1) usage("--seconds must be at least 1");
    } else if (f == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (f == "--expect-digest") {
      a.expected = parse_u64(f, v, 16);
    } else if (f == "--work-dir") {
      a.work_dir = v;
    } else {
      usage("unknown flag " + f);
    }
  }
  if (!a.selftest && !have_workload) usage("--workload is required");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

cb::SimCounts counts_of(const perf::SimSnapshot& d) {
  cb::SimCounts c;
  c.good_cycles = d[perf::SimStat::kGoodRunCycles];
  c.screen_calls = d[perf::SimStat::kScreenCalls];
  c.detection_cycles = d[perf::SimStat::kDetectionCycles];
  c.fault_units = d[perf::SimStat::kFaultUnits];
  c.disturb_runs = d[perf::SimStat::kDisturbRuns];
  c.disturb_cycles = d[perf::SimStat::kDisturbCycles];
  return c;
}

u64 dir_bytes(const std::filesystem::path& dir) {
  u64 n = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) n += e.file_size();
  return n;
}

/// A fresh, empty directory under the work dir.
std::string fresh_dir(const std::string& work_dir, const std::string& leaf) {
  const std::filesystem::path p = std::filesystem::path(work_dir) / leaf;
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

// --- one untraced repetition ---------------------------------------------------

struct Rep {
  bool ok = false;
  std::string error;
  u64 digest = 0;
  cb::SimCounts counts;
  u64 units = 0;
  u64 sim_cycles = 0;
  double wall_s = 0;
  double cpu_s = 0;
  fault::CheckpointStats ckpt;
  u64 ckpt_bytes = 0;
};

/// Structural checks every repetition's result must pass, besides the
/// digest comparison.
void check_fault_result(const fault::CampaignResult& r) {
  if (r.ckpt.interrupted) throw std::runtime_error("campaign drained");
  if (r.outcomes.size() != r.simulated_faults || r.detected > r.excited ||
      r.excited > r.simulated_faults ||
      r.detected != r.detected_signature + r.detected_verdict + r.detected_watchdog)
    throw std::runtime_error("inconsistent campaign aggregates");
  if (r.good_verdict.status != soc::kStatusPass)
    throw std::runtime_error("fault-free run did not pass");
}

Rep run_rep(const cb::WorkloadSpec& w, const cb::Prepared& p, unsigned threads,
            const std::string& work_dir, unsigned rep_index) {
  Rep rep;
  const perf::SimSnapshot s0 = perf::sim_totals().snapshot();
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  try {
    if (w.soak) {
      runtime::SoakCampaignSpec spec = *w.soak;
      spec.threads = threads;
      spec.checkpoint.dir = fresh_dir(work_dir, "ckpt-rep" + std::to_string(rep_index));
      spec.checkpoint.fsync = fault::FsyncPolicy::kEveryShard;
      const runtime::SoakCampaignResult r = runtime::run_soak_campaign(spec);
      rep.wall_s = seconds_since(t0);
      rep.cpu_s = cpu_seconds() - c0;
      if (r.ckpt.interrupted) throw std::runtime_error("soak campaign drained");
      if (r.records.size() != spec.runs) throw std::runtime_error("soak: missing records");
      rep.digest = r.digest();
      rep.ckpt = r.ckpt;
      rep.ckpt_bytes = dir_bytes(spec.checkpoint.dir);
      std::filesystem::remove_all(spec.checkpoint.dir);
    } else {
      u64 digest = fault::kFnvOffset;
      for (std::size_t j = 0; j < w.jobs.size(); ++j) {
        fault::CampaignConfig cfg = w.jobs[j].cfg;
        cfg.threads = threads;
        const fault::CampaignResult r = fault::Campaign(cfg, p.factories[j]).run();
        check_fault_result(r);
        const std::vector<u8> bytes = r.canonical_bytes();
        digest = fault::fnv1a(bytes.data(), bytes.size(), digest);
      }
      rep.wall_s = seconds_since(t0);
      rep.cpu_s = cpu_seconds() - c0;
      rep.digest = digest;
    }
    const perf::SimSnapshot d = perf::sim_totals().snapshot().since(s0);
    rep.counts = counts_of(d);
    rep.units = d.units();
    rep.sim_cycles = d.sim_cycles();
    rep.ok = true;
  } catch (const std::exception& e) {
    rep.error = e.what();
  }
  return rep;
}

// --- output --------------------------------------------------------------------

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

void print_result(bool correct, std::size_t attempted, std::size_t failed, const Metrics& m) {
  for (const auto& [name, metric] : m) {
    if (std::isfinite(metric.value)) continue;
    std::fprintf(stderr, "campaignbench: metric %s is not finite\n", name.c_str());
    correct = false;
  }
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(metric.value) ? metric.value : 0.0);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void report_spread(const char* name, const std::vector<double>& v, const char* unit) {
  std::fprintf(stderr, "  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g %s (n=%zu)\n", name,
               median(v), quantile(v, 0.25), quantile(v, 0.75), unit, v.size());
}

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- per-layer metrics from the traced replica ---------------------------------

struct LayerTimes {
  std::array<double, static_cast<std::size_t>(cb::Mod::kCount)> self_ns{};
  std::array<u64, static_cast<std::size_t>(cb::Mod::kCount)> count{};
  double netlist_detect_ns = 0;
  u64 netlist_detect_calls = 0;
  std::vector<double> fault_unit_ms, runtime_unit_ms;
};

LayerTimes layer_times(const std::vector<cb::Span>& spans) {
  LayerTimes t;
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const cb::Span& s : spans) {
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent != UINT32_MAX) child_ns[s.parent] += d;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const cb::Span& s = spans[i];
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    const auto m = static_cast<std::size_t>(s.mod);
    t.self_ns[m] += d - child_ns[i] - static_cast<double>(s.nested_ns);
    ++t.count[m];
    t.netlist_detect_ns += static_cast<double>(s.nested_ns);
    t.netlist_detect_calls += s.nested_calls;
    if (s.mod == cb::Mod::kFaultUnit) t.fault_unit_ms.push_back(d * 1e-6);
    if (s.mod == cb::Mod::kRuntimeUnit) t.runtime_unit_ms.push_back(d * 1e-6);
  }
  return t;
}

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

Metrics layer_metrics(const cb::TracedRun& tr, const cb::Prepared& p,
                      const std::vector<const Rep*>& timed, unsigned threads,
                      double serial_wall_s, double* coverage_out) {
  const LayerTimes t = layer_times(tr.spans);
  const auto self = [&t](cb::Mod m) { return t.self_ns[static_cast<std::size_t>(m)]; };
  const auto count = [&t](cb::Mod m) {
    return static_cast<double>(t.count[static_cast<std::size_t>(m)]);
  };
  const double wall_ns = tr.wall_s * 1e9;
  const double netlist_ns =
      self(cb::Mod::kNetlistBuild) + self(cb::Mod::kNetlistScreen) + t.netlist_detect_ns;
  const double soc_ns = self(cb::Mod::kSocGood) + self(cb::Mod::kSocDetect);
  const double snap_ns = self(cb::Mod::kSocSnapshot);
  const double runtime_ns = self(cb::Mod::kRuntimeRun) + self(cb::Mod::kRuntimeIsolate) +
                            self(cb::Mod::kRuntimeUnit);
  const double fault_ns = self(cb::Mod::kFaultUnit) + self(cb::Mod::kFaultCkpt);
  const double covered = netlist_ns + soc_ns + snap_ns + runtime_ns + fault_ns;
  const double orchestration_ns = wall_ns - covered;
  *coverage_out = ratio(covered, wall_ns);
  const cb::SimCounts& c = tr.counts;
  const double sim_cycles =
      static_cast<double>(c.good_cycles + c.detection_cycles + c.disturb_cycles);

  std::vector<double> idle;
  for (const Rep* r : timed) idle.push_back(1.0 - r->cpu_s / (r->wall_s * threads));
  const Rep* ck = timed.empty() ? nullptr : timed.back();

  Metrics m;
  m["netlist.detect.calls"] = {static_cast<double>(t.netlist_detect_calls), "count"};
  m["netlist.detect.ns_per_call"] = {ratio(t.netlist_detect_ns, t.netlist_detect_calls), "ns"};
  m["netlist.screen.calls"] = {static_cast<double>(c.screen_calls), "count"};
  m["netlist.screen.ns_per_call"] = {ratio(self(cb::Mod::kNetlistScreen), c.screen_calls), "ns"};
  m["netlist.screen.replay_frac"] = {
      ratio(static_cast<double>(c.screen_calls), static_cast<double>(tr.screen_trace_calls)),
      "ratio"};
  m["netlist.share"] = {ratio(netlist_ns, wall_ns), "ratio"};
  m["soc.good.cycles"] = {static_cast<double>(c.good_cycles), "cycles"};
  m["soc.good.ns_per_cycle"] = {ratio(self(cb::Mod::kSocGood), c.good_cycles), "ns"};
  m["soc.detect.cycles"] = {static_cast<double>(c.detection_cycles), "cycles"};
  m["soc.detect.ns_per_cycle"] = {ratio(self(cb::Mod::kSocDetect), c.detection_cycles), "ns"};
  m["soc.share"] = {ratio(soc_ns, wall_ns), "ratio"};
  m["soc.snapshot.copies"] = {count(cb::Mod::kSocSnapshot), "count"};
  m["soc.snapshot.us_per_copy"] = {ratio(snap_ns * 1e-3, count(cb::Mod::kSocSnapshot)), "us"};
  m["soc.snapshot.share"] = {ratio(snap_ns, wall_ns), "ratio"};
  m["fault.excited_frac"] = {ratio(tr.excited, tr.simulated_faults), "ratio"};
  m["fault.detect.cycles_per_excited"] = {ratio(c.detection_cycles, tr.excited), "cycles"};
  m["fault.detect.watchdog_frac"] = {ratio(tr.watchdog, tr.excited), "ratio"};
  m["fault.unit_ms.p50"] = {quantile(t.fault_unit_ms, 0.5), "ms"};
  m["fault.unit_ms.p99"] = {quantile(t.fault_unit_ms, 0.99), "ms"};
  m["fault.pool.idle_frac"] = {median(idle), "ratio"};
  m["fault.share"] = {ratio(fault_ns, wall_ns), "ratio"};
  m["runtime.run.cycles"] = {static_cast<double>(tr.run_cycles), "cycles"};
  m["runtime.run.ns_per_cycle"] = {ratio(self(cb::Mod::kRuntimeRun), tr.run_cycles), "ns"};
  m["runtime.isolate.probes"] = {static_cast<double>(tr.isolate_probes), "count"};
  m["runtime.isolate.cycles"] = {static_cast<double>(tr.isolate_cycles), "cycles"};
  m["runtime.isolate.share"] = {ratio(self(cb::Mod::kRuntimeIsolate), wall_ns), "ratio"};
  m["runtime.diverged_frac"] = {ratio(tr.diverged_runs, tr.runs), "ratio"};
  m["runtime.unit_ms.p50"] = {quantile(t.runtime_unit_ms, 0.5), "ms"};
  m["runtime.unit_ms.p99"] = {quantile(t.runtime_unit_ms, 0.99), "ms"};
  m["runtime.share"] = {ratio(runtime_ns, wall_ns), "ratio"};
  m["fault.ckpt.shards"] = {ck ? static_cast<double>(ck->ckpt.shards_flushed) : 0, "count"};
  m["fault.ckpt.flush_ms"] = {ck ? static_cast<double>(ck->ckpt.flush_ns) * 1e-6 : 0, "ms"};
  m["fault.ckpt.bytes"] = {ck ? static_cast<double>(ck->ckpt_bytes) : 0, "bytes"};
  m["core.build_ms"] = {p.build_ms, "ms"};
  m["runtime.plan_ms"] = {p.plan_ms, "ms"};
  m["orchestration.share"] = {ratio(orchestration_ns, wall_ns), "ratio"};
  m["trace_overhead"] = {ratio(tr.wall_s, serial_wall_s), "ratio"};
  m["trace.coverage"] = {*coverage_out, "ratio"};
  // ns of host time per simulated SoC cycle, per layer (README table).
  m["netlist.ns_per_sim_cycle"] = {ratio(netlist_ns, sim_cycles), "ns"};
  m["soc.ns_per_sim_cycle"] = {ratio(soc_ns, sim_cycles), "ns"};
  m["soc.snapshot.ns_per_sim_cycle"] = {ratio(snap_ns, sim_cycles), "ns"};
  m["runtime.ns_per_sim_cycle"] = {ratio(runtime_ns, sim_cycles), "ns"};
  m["fault.ns_per_sim_cycle"] = {ratio(fault_ns, sim_cycles), "ns"};
  m["orchestration.ns_per_sim_cycle"] = {ratio(orchestration_ns, sim_cycles), "ns"};
  m["traced.ns_per_sim_cycle"] = {ratio(wall_ns, sim_cycles), "ns"};
  return m;
}

// --- modes ---------------------------------------------------------------------

unsigned hw_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

int run_benchmark(const Args& a) {
  const cb::WorkloadSpec w = cb::make_workload(a.workload, a.seed, cb::Scale::kFull);
  std::fprintf(stderr, "campaignbench: %s\n", cb::describe(w).c_str());
  std::filesystem::create_directories(a.work_dir);

  // Set-up, repeated: the median is the metric; the last one is used.
  std::vector<double> setup_s;
  cb::Prepared p;
  for (unsigned i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    p = cb::prepare(w);
    setup_s.push_back(seconds_since(t0));
  }

  std::vector<Rep> reps;
  const auto start = Clock::now();
  do {
    reps.push_back(run_rep(w, p, w.threads, a.work_dir, static_cast<unsigned>(reps.size())));
    const Rep& r = reps.back();
    std::fprintf(stderr, "  rep %zu: wall %.4f s, cpu %.4f s, digest %s\n", reps.size() - 1,
                 r.wall_s, r.cpu_s, r.ok ? hex(r.digest).c_str() : r.error.c_str());
  } while (seconds_since(start) < a.seconds || reps.size() < 2);

  // Output check: every repetition's digest equals the committed one for
  // this seed when there is one, and the first completed repetition's
  // otherwise; every repetition simulates the same work.
  const auto first_ok = std::find_if(reps.begin(), reps.end(), [](const Rep& r) { return r.ok; });
  const Rep ref = first_ok != reps.end() ? *first_ok : Rep{};
  const u64 reference = a.expected.value_or(ref.digest);
  std::size_t failed = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    Rep& r = reps[i];
    if (r.ok && r.digest != reference) {
      r.ok = false;
      r.error = "outcome digest " + hex(r.digest) + " != expected " + hex(reference);
    }
    if (r.ok && !(r.counts == ref.counts)) {
      r.ok = false;
      r.error = "simulated work differs between repetitions";
    }
    if (!r.ok) {
      ++failed;
      std::fprintf(stderr, "campaignbench: repetition %zu FAILED: %s\n", i, r.error.c_str());
    }
  }
  std::fprintf(stderr, "campaignbench: digest %s over %zu repetition(s)%s\n",
               hex(ref.digest).c_str(), reps.size(),
               a.expected ? " (committed digest checked)" : "");
  bool correct = failed == 0;

  // Repetition 0 is the warm-up (allocator growth, cold caches): checked,
  // not timed.
  std::vector<const Rep*> timed;
  for (std::size_t i = 1; i < reps.size(); ++i)
    if (reps[i].ok) timed.push_back(&reps[i]);
  std::vector<double> ups, mhz, cpu;
  for (const Rep* r : timed) {
    ups.push_back(static_cast<double>(r->units) / r->wall_s);
    mhz.push_back(static_cast<double>(r->sim_cycles) / r->wall_s * 1e-6);
    cpu.push_back(r->cpu_s / static_cast<double>(r->units) * 1000.0);
  }
  std::fprintf(stderr, "campaignbench: %s, %u threads, %zu units and %s per repetition\n",
               w.name.c_str(), w.threads, static_cast<std::size_t>(ref.units),
               cb::describe(ref.counts).c_str());
  report_spread("units_per_s", ups, "1/s");
  report_spread("sim_mhz", mhz, "MHz");
  report_spread("cpu_s_per_kunit", cpu, "s");
  report_spread("setup_s", setup_s, "s");
  std::fprintf(stderr, "  %-18s %.6g\n", "fail_ratio",
               static_cast<double>(failed) / static_cast<double>(reps.size()));

  if (!a.trace) {
    Metrics m;
    m["units_per_s"] = {median(ups), "1/s"};
    m["sim_mhz"] = {median(mhz), "MHz"};
    m["cpu_s_per_kunit"] = {median(cpu), "s"};
    m["setup_s"] = {median(setup_s), "s"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    print_result(correct, reps.size(), failed, m);
    return 0;
  }

  // Traced run: a serial untraced repetition (the 1-thread digest and the
  // trace-overhead base), then the traced replica on the same thread.
  const std::size_t attempted = reps.size() + 2;
  const Rep serial = run_rep(w, p, 1, a.work_dir, 1000);
  if (!serial.ok || serial.digest != reference || !(serial.counts == ref.counts)) {
    ++failed;
    correct = false;
    std::fprintf(stderr,
                 "campaignbench: serial repetition disagrees with %u threads: %s digest %s, %s\n",
                 w.threads, serial.error.c_str(), hex(serial.digest).c_str(),
                 cb::describe(serial.counts).c_str());
  }
  const cb::TracedRun tr = cb::run_traced(w, p, fresh_dir(a.work_dir, "ckpt-traced"));
  std::filesystem::remove_all(std::filesystem::path(a.work_dir) / "ckpt-traced");
  const std::string spans_path =
      (std::filesystem::path(a.work_dir) /
       (w.name + "-seed" + std::to_string(a.seed) + ".spans.csv"))
          .string();
  cb::write_spans(tr.spans, spans_path);

  // Traced-run oracle: same outcome digest and the same simulated work as
  // the untraced engine, and spans that explain the traced wall time.
  double coverage = 0;
  Metrics m = layer_metrics(tr, p, timed, w.threads, serial.wall_s, &coverage);
  const bool digest_ok = tr.digest == reference;
  const bool counts_ok = tr.counts == ref.counts;
  const bool coverage_ok = coverage >= 0.9;
  if (!digest_ok || !counts_ok || !coverage_ok) {
    ++failed;
    correct = false;
    std::fprintf(stderr,
                 "campaignbench: traced run REJECTED: digest %s (want %s), counts %s "
                 "(want %s), layer coverage %.3f (want >= 0.9)\n",
                 hex(tr.digest).c_str(), hex(reference).c_str(),
                 cb::describe(tr.counts).c_str(), cb::describe(ref.counts).c_str(),
                 coverage);
  }
  std::fprintf(stderr, "campaignbench: traced wall %.3f s (serial untraced %.3f s), spans in %s\n",
               tr.wall_s, serial.wall_s, spans_path.c_str());
  for (const auto& [name, metric] : m)
    std::fprintf(stderr, "  %-34s %-14.6g %s\n", name.c_str(), metric.value, metric.unit);
  print_result(correct, attempted, failed, m);
  return 0;
}

/// Tiny variant of every workload: the digest at 1 thread equals the digest
/// at hardware concurrency, and the traced replica reproduces both the
/// digest and the simulated work.
int run_selftest(const Args& a) {
  bool all_ok = true;
  for (const std::string& name : cb::workload_names()) {
    const cb::WorkloadSpec w = cb::make_workload(name, 1, cb::Scale::kTiny);
    const cb::Prepared p = cb::prepare(w);
    const Rep par = run_rep(w, p, hw_threads(), a.work_dir, 0);
    const Rep ser = run_rep(w, p, 1, a.work_dir, 1);
    const cb::TracedRun tr = cb::run_traced(w, p, fresh_dir(a.work_dir, "ckpt-traced"));
    std::filesystem::remove_all(std::filesystem::path(a.work_dir) / "ckpt-traced");
    const bool ok = par.ok && ser.ok && par.digest == ser.digest && tr.digest == par.digest &&
                    par.counts == ser.counts && tr.counts == par.counts;
    all_ok = all_ok && ok;
    std::printf("%-15s %s  digest %u threads %s, 1 thread %s, traced %s\n", name.c_str(),
                ok ? "PASS" : "FAIL", hw_threads(), hex(par.digest).c_str(),
                hex(ser.digest).c_str(), hex(tr.digest).c_str());
    if (!ok)
      std::printf("  %s\n  %s\n  %s\n  %s %s\n", cb::describe(par.counts).c_str(),
                  cb::describe(ser.counts).c_str(), cb::describe(tr.counts).c_str(),
                  par.error.c_str(), ser.error.c_str());
  }
  std::printf("selftest: %s\n", all_ok ? "OK" : "FAILED");
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  try {
    std::filesystem::create_directories(a.work_dir);
    return a.selftest ? run_selftest(a) : run_benchmark(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaignbench: %s\n", e.what());
    return 1;
  }
}
