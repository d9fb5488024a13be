#pragma once
// Header-only collectors: pull simulation counters out of the SoC and the
// campaign engines into a perf::Registry. Lives in perf/ but deliberately
// header-only — detstl_perf links only detstl_common, so including soc/fault/
// runtime headers here creates no library cycle (the callers already link
// those libraries).
//
// Everything collected here except the explicitly host-tagged series derives
// purely from simulation state, so the kSim determinism contract
// (perf/metrics.h) holds: byte-identical for a fixed seed/config at any
// thread count.

#include <string>

#include "fault/campaign.h"
#include "perf/metrics.h"
#include "runtime/campaign.h"
#include "soc/soc.h"

namespace detstl::perf {

inline std::string core_label(unsigned core) {
  return std::string("core=") + static_cast<char>('A' + core);
}

/// Architected CPU counters, L1 cache stats and shared-bus arbitration
/// counters of every active core, plus the global bus totals.
inline void collect_soc(Registry& reg, const soc::Soc& soc) {
  static const char* kPortName[3] = {"ifetch0", "data", "ifetch1"};
  for (unsigned c = 0; c < soc.num_cores(); ++c) {
    if (!soc.is_active(c)) continue;
    const std::string core = core_label(c);
    const cpu::PerfCounters& p = soc.core(c).perf();
    reg.add_counter("cpu.cycles", core, p.cycles);
    reg.add_counter("cpu.instret", core, p.instret);
    reg.add_counter("cpu.decodes", core, p.decodes);
    reg.add_counter("cpu.if_stalls", core, p.if_stalls);
    reg.add_counter("cpu.mem_stalls", core, p.mem_stalls);
    reg.add_counter("cpu.hdcu_stalls", core, p.hdcu_stalls);
    reg.add_counter("cpu.issue_splits", core, p.splits);

    const mem::MemSystem& ms = soc.core(c).memsys();
    const auto cache_stats = [&](const mem::CacheStats& s, const char* level) {
      const std::string labels = core + ",level=" + level;
      reg.add_counter("cache.hits", labels, s.hits);
      reg.add_counter("cache.misses", labels, s.misses);
      reg.add_counter("cache.refills", labels, s.refills);
      reg.add_counter("cache.writebacks", labels, s.writebacks);
    };
    cache_stats(ms.icache().stats(), "l1i");
    cache_stats(ms.dcache().stats(), "l1d");

    for (unsigned port = 0; port < 3; ++port) {
      const mem::BusStats& b = soc.bus().stats(c * 3 + port);
      if (b.submits == 0 && b.grants == 0) continue;
      const std::string labels = core + ",port=" + kPortName[port];
      reg.add_counter("bus.submits", labels, b.submits);
      reg.add_counter("bus.grants", labels, b.grants);
      reg.add_counter("bus.wait_cycles", labels, b.wait_cycles);
      reg.add_counter("bus.occupancy_cycles", labels, b.occupancy_cycles);
    }
  }
  reg.add_counter("bus.transactions", "", soc.bus().transactions());
  reg.add_counter("bus.stall_ticks", "", soc.bus().stall_ticks());
}

/// Throughput, pool size and journal bookkeeping of any journalled campaign
/// result over `units` work units. The journal counters are host-tagged:
/// shard counts depend on interrupt timing, not on the simulation.
template <typename Result>
void collect_executor(Registry& reg, const Result& r, u64 units,
                      const std::string& labels) {
  if (r.wall_seconds > 0)
    reg.set_gauge("campaign.units_per_s", labels,
                  static_cast<double>(units) / r.wall_seconds);
  reg.set_gauge("campaign.workers", labels, r.threads_used);
  if (!r.ckpt.enabled) return;
  reg.add_counter("ckpt.shards_flushed", labels, r.ckpt.shards_flushed,
                  MetricSource::kHost);
  reg.add_counter("ckpt.shards_loaded", labels, r.ckpt.shards_loaded,
                  MetricSource::kHost);
  reg.add_counter("ckpt.records_resumed", labels, r.ckpt.records_resumed,
                  MetricSource::kHost);
}

/// Fault-campaign outcome counters (+ checkpoint bookkeeping).
inline void collect_fault_result(Registry& reg, const fault::CampaignResult& r,
                                 const std::string& labels) {
  reg.add_counter("campaign.faults.total", labels, r.total_faults);
  reg.add_counter("campaign.faults.simulated", labels, r.simulated_faults);
  reg.add_counter("campaign.faults.excited", labels, r.excited);
  reg.add_counter("campaign.faults.detected", labels, r.detected);
  reg.add_counter("campaign.faults.detected_signature", labels,
                  r.detected_signature);
  reg.add_counter("campaign.faults.detected_verdict", labels, r.detected_verdict);
  reg.add_counter("campaign.faults.detected_watchdog", labels,
                  r.detected_watchdog);
  reg.add_counter("campaign.good_cycles", labels, r.good_cycles);
  reg.add_counter("campaign.sim_cycles", labels, r.sim_cycles);
  reg.add_counter("campaign.screen_calls", labels, r.screen_calls);
  collect_executor(reg, r, r.simulated_faults, labels);
}

/// Disturbance-campaign recovery counters: retries, degradations, recovery
/// ladder outcomes, per-run cycle histogram — all simulation-derived.
inline void collect_disturbance_result(Registry& reg,
                                       const runtime::CampaignResult& r,
                                       const std::string& labels) {
  u64 sim_cycles = 0, retries = 0, fallback_retries = 0, degraded = 0,
      recovered = 0, quarantined_runs = 0, budget_exhausted = 0;
  // Buckets in cycles: per-run totals of the small campaigns sit in the
  // hundreds of thousands; the open bucket catches pathological runs.
  static const std::vector<u64> kRunCycleBounds = {
      100'000, 300'000, 1'000'000, 3'000'000, 10'000'000};
  for (const runtime::RunRecord& rec : r.records) {
    sim_cycles += rec.result.total_cycles;
    reg.record_hist("campaign.run_cycles", labels, kRunCycleBounds,
                    rec.result.total_cycles);
    budget_exhausted += rec.result.budget_exhausted ? 1 : 0;
    for (const runtime::CoreReport& cr : rec.result.cores) {
      quarantined_runs += cr.quarantined ? 1 : 0;
      for (const runtime::RoutineRecord& rr : cr.records) {
        if (rr.cached_attempts > 1) retries += rr.cached_attempts - 1;
        fallback_retries += rr.fallback_attempts;
        if (rr.outcome == runtime::RecoveryOutcome::kPassDegraded) ++degraded;
        if (rr.outcome == runtime::RecoveryOutcome::kPassRecovered) ++recovered;
      }
    }
  }
  reg.add_counter("campaign.runs", labels, r.runs);
  reg.add_counter("campaign.sim_cycles", labels, sim_cycles);
  reg.add_counter("campaign.retries", labels, retries);
  reg.add_counter("campaign.fallback_attempts", labels, fallback_retries);
  reg.add_counter("campaign.recovered", labels, recovered);
  reg.add_counter("campaign.degraded", labels, degraded);
  reg.add_counter("campaign.quarantined_runs", labels, quarantined_runs);
  reg.add_counter("campaign.budget_exhausted", labels, budget_exhausted);
  collect_executor(reg, r, r.runs, labels);
}

}  // namespace detstl::perf
