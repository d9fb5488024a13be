#pragma once
// Traced replica of the three campaign engines, written against the
// program's public functions only (no code under src/ is instrumented).
//
// A traced run re-executes the workload serially through the same public
// building blocks the engines use — soc::Soc::tick and SoC value copies, the
// netlist::Netlist{Forward,Hazard,Icu} adapters installed through
// cpu::CpuHooks, netlist::LaneGroupScreen, runtime::StlSupervisor::run with a
// runtime::SoakInjector, fault::CheckpointWriter — with timing decorators
// around each call. Spans are kept in memory and written out at the end.
//
// The replica is checked against the untraced engine, never trusted: its
// outcome digest and its simulated-work counts (the perf::sim_totals deltas
// of an untraced run) must be identical, or its layer numbers are rejected.

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace campaignbench {

/// Which layer a span's self time belongs to. The netlist calls inside a
/// detection tick loop are not spans of their own: they are accumulated into
/// the enclosing kSocDetect span (nested_ns / nested_calls).
enum class Mod : u8 {
  kCampaign,       // one fault campaign / the soak campaign (orchestration)
  kNetlistBuild,   // module netlist construction
  kSocGood,        // good run: factory, reset and tick loop
  kSocSnapshot,    // SoC value copy (checkpoint, restore, supervisor SoC)
  kNetlistScreen,  // one lane group: encode + observe/clock over the trace
  kFaultUnit,      // one excited fault: restore, adapter set-up, re-run, verdict
  kSocDetect,      // detection tick loop (netlist adapter time nested)
  kRuntimeUnit,    // one soak run: plan, supervised run, isolation probes
  kRuntimeRun,     // StlSupervisor::run under the full upset plan
  kRuntimeIsolate, // StlSupervisor::run of one bisection probe
  kFaultCkpt,      // CheckpointWriter add/flush (shard serialise + write + fsync)
  kCount,
};

const char* mod_name(Mod m);

struct Span {
  Mod mod = Mod::kCampaign;
  u32 parent = UINT32_MAX;  // index into the span list; UINT32_MAX = root
  u64 unit = 0;             // fault index / lane group / run index
  u64 start_ns = 0;         // since the start of the traced run
  u64 end_ns = 0;
  u64 nested_ns = 0;        // netlist adapter time inside a kSocDetect span
  u64 nested_calls = 0;
};

/// Simulated work, in the units perf::sim_totals() counts.
struct SimCounts {
  u64 good_cycles = 0;
  u64 screen_calls = 0;
  u64 detection_cycles = 0;
  u64 fault_units = 0;
  u64 disturb_runs = 0;
  u64 disturb_cycles = 0;

  bool operator==(const SimCounts&) const = default;
};

std::string describe(const SimCounts& c);

struct TracedRun {
  u64 digest = 0;
  SimCounts counts;
  double wall_s = 0;
  std::vector<Span> spans;
  // Simulated-work facts of the replica, for the per-layer ratios.
  u64 simulated_faults = 0;
  u64 excited = 0;
  u64 watchdog = 0;
  u64 screen_trace_calls = 0;  // sum over groups of the recorded trace length
  u64 runs = 0;
  u64 diverged_runs = 0;
  u64 isolate_probes = 0;
  u64 isolate_cycles = 0;
  u64 run_cycles = 0;  // full-plan supervised runs only
};

/// Run the workload's traced replica on the calling thread. `ckpt_dir` is a
/// fresh directory for the soak journal.
TracedRun run_traced(const WorkloadSpec& w, const Prepared& p, const std::string& ckpt_dir);

/// Write the spans as CSV (module, parent, unit, start_ns, end_ns,
/// nested_ns, nested_calls).
void write_spans(const std::vector<Span>& spans, const std::string& path);

}  // namespace campaignbench
