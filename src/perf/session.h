#pragma once
// The one builder of stlperf reports (perf_report.h). A Session brackets one
// measured invocation — a table bench, `stlrun campaign`/`soak`,
// `detscope metrics`, the sim-MHz probe: sim-work deltas (simstats.h) and
// wall-clock per phase, host usage and the workload config hash. Construct
// it right before the measured work, call mark_phase() after each section,
// add any extra collectors to metrics(), then report() or finish().

#include <string>
#include <vector>

#include "common/hash.h"
#include "perf/perf_report.h"
#include "perf/sampler.h"
#include "perf/simstats.h"

namespace detstl::perf {

class Session {
 public:
  /// `name` is the report's bench identity and the first field of its
  /// config hash.
  explicit Session(const std::string& name);

  /// The config hash, `name` already mixed in. Mix only outcome-relevant
  /// knobs (seeds, strides, scenario counts) — never threads or
  /// observability settings, mirroring the checkpoint config-hash
  /// exclusions.
  ConfigHasher& config() { return hash_; }
  /// config().str(key).u64v(value): one named workload knob.
  void hash_knob(const char* key, u64 value) { hash_.str(key).u64v(value); }

  /// The work since the previous mark (or the start) was phase `label`.
  void mark_phase(const std::string& label);

  /// Series the report carries besides the sim totals and host usage
  /// (collect.h collectors).
  Registry& metrics() { return metrics_; }

  /// Close the trailing phase ("all" when no phase was marked, else "tail";
  /// none when it simulated nothing) and assemble the report.
  PerfReport report();

  /// Write report() to `path` and pass `exit_code` through, or return 1
  /// when the file cannot be written. An empty path writes nothing.
  int finish(const std::string& path, int exit_code);

 private:
  std::string name_;
  ConfigHasher hash_;
  Registry metrics_;
  std::vector<PhaseStats> phases_;
  HostTimer timer_;
  SimSnapshot start_{};
  SimSnapshot phase_start_{};
  double phase_wall_s_ = 0.0;
};

}  // namespace detstl::perf
