#include "perf/session.h"

#include <cstdio>

#include "common/version.h"

namespace detstl::perf {

Session::Session(const std::string& name) : name_(name) {
  hash_.str(name);
  start_ = phase_start_ = sim_totals().snapshot();
}

void Session::mark_phase(const std::string& label) {
  const SimSnapshot now = sim_totals().snapshot();
  const HostUsage u = timer_.sample();
  const SimSnapshot d = now.since(phase_start_);
  phases_.push_back(
      {label, d.sim_cycles(), d.units(), u.wall_s - phase_wall_s_});
  phase_start_ = now;
  phase_wall_s_ = u.wall_s;
}

PerfReport Session::report() {
  const SimSnapshot end = sim_totals().snapshot();
  if (end.since(phase_start_).sim_cycles() != 0)
    mark_phase(phases_.empty() ? "all" : "tail");

  const SimSnapshot delta = end.since(start_);
  const HostUsage u = timer_.sample();
  PerfReport rep;
  rep.name = name_;
  rep.detstl_version = kDetstlVersion;
  rep.config_hash = hash_.digest();
  rep.sim_cycles = delta.sim_cycles();
  rep.sim_units = delta.units();
  rep.phases = phases_;
  rep.wall_s = u.wall_s;
  rep.cpu_s = u.cpu_s;
  rep.peak_rss_kb = u.peak_rss_kb;
  rep.metrics = metrics_;
  // Total simulated work of the session, one counter per non-zero stat.
  for (unsigned i = 0; i < kNumSimStats; ++i) {
    if (delta.v[i] == 0) continue;
    rep.metrics.add_counter(
        std::string("sim.") + sim_stat_name(static_cast<SimStat>(i)), "",
        delta.v[i]);
  }
  rep.metrics.set_gauge("host.wall_s", "", u.wall_s);
  rep.metrics.set_gauge("host.cpu_s", "", u.cpu_s);
  rep.metrics.set_gauge("host.peak_rss_kb", "",
                        static_cast<double>(u.peak_rss_kb));
  return rep;
}

int Session::finish(const std::string& path, int exit_code) {
  if (path.empty()) return exit_code;
  const PerfReport rep = report();
  if (!write_report_file(path, rep)) {
    std::fprintf(stderr, "error: cannot write metrics file %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "stlperf: wrote %s (%.1f Mcycles in %.2fs, %.2f sim-MHz)\n",
               path.c_str(), static_cast<double>(rep.sim_cycles) / 1e6,
               rep.wall_s, rep.sim_mhz());
  return exit_code;
}

}  // namespace detstl::perf
