#include "trace/metrics.h"

#include "common/table.h"

namespace detstl::trace {

void MetricsRegistry::on_event(const Event& e) {
  // Stage occupancy would swamp the per-phase event counts without adding a
  // counter; the determinism audit compares it through StreamCapture.
  if (e.kind == EventKind::kPipeStage) return;
  ++total_events_;
  if (e.core == kNoCore) {
    ++campaign_events_;
    return;
  }
  if (e.core >= kCores) return;

  if (e.kind == EventKind::kPhaseBegin) current_[e.core] = e.unit;

  PhaseCounters& c = by_[e.core][current_[e.core]];
  ++c.events;
  switch (e.kind) {
    case EventKind::kBusSubmit:
      ++c.bus_submits;
      if (e.flags & 0x1) ++c.bus_writes; else ++c.bus_reads;
      break;
    case EventKind::kBusGrant:
      c.bus_wait_cycles += e.a;
      c.bus_occupancy_cycles += e.b;
      break;
    case EventKind::kBusBeat: ++c.bus_beats; break;
    case EventKind::kBusRetire: ++c.bus_retires; break;
    case EventKind::kCacheHit:
      ++(e.unit == 0 ? c.icache_hits : c.dcache_hits);
      break;
    case EventKind::kCacheMiss:
      ++(e.unit == 0 ? c.icache_misses : c.dcache_misses);
      break;
    case EventKind::kCacheRefill:
      ++(e.unit == 0 ? c.icache_refills : c.dcache_refills);
      break;
    case EventKind::kCacheWriteback: ++c.dcache_writebacks; break;
    case EventKind::kCacheInvalidate: ++c.invalidates; break;
    case EventKind::kIrqWindow: ++c.irq_windows; break;
    case EventKind::kIrqTaken: ++c.irqs_taken; break;
    case EventKind::kPhaseBegin:
    default:
      break;
  }
}

std::vector<std::string> MetricsRegistry::violations() const {
  std::vector<std::string> out;
  for (unsigned core = 0; core < kCores; ++core) {
    const PhaseCounters& x =
        by_[core][static_cast<unsigned>(Phase::kExecutionLoop)];
    if (x.events == 0) continue;  // core never entered an execution loop
    const auto flag = [&](u64 n, const char* what) {
      if (n == 0) return;
      out.push_back("core " + std::string(1, static_cast<char>('A' + core)) +
                    ": " + std::to_string(n) + " " + what +
                    " during its execution loop");
    };
    flag(x.bus_submits, "bus submit(s)");
    flag(x.icache_misses, "I-cache miss(es)");
    flag(x.dcache_misses, "D-cache miss(es)");
    flag(x.dcache_writebacks, "D-cache writeback(s)");
  }
  return out;
}

std::string MetricsRegistry::render() const {
  static const char* kBucketNames[kNumBuckets] = {
      "invalidate", "loading-loop", "execution-loop", "signature-check",
      "(outside wrapper)"};
  std::string out;
  for (unsigned core = 0; core < kCores; ++core) {
    u64 any = 0;
    for (const auto& b : by_[core]) any += b.events;
    if (any == 0) continue;
    TextTable t("core " + std::string(1, static_cast<char>('A' + core)) +
                " — per-phase event counters");
    t.header({"phase", "events", "bus sub", "bus wait", "bus occ", "I$ hit",
              "I$ miss", "D$ hit", "D$ miss", "D$ wb", "irq"});
    for (unsigned b = 0; b < kNumBuckets; ++b) {
      const PhaseCounters& c = by_[core][b];
      if (c.events == 0) continue;
      const auto n = [](u64 v) { return TextTable::fmt_int(static_cast<long long>(v)); };
      t.row({kBucketNames[b], n(c.events), n(c.bus_submits), n(c.bus_wait_cycles),
             n(c.bus_occupancy_cycles), n(c.icache_hits), n(c.icache_misses),
             n(c.dcache_hits), n(c.dcache_misses), n(c.dcache_writebacks),
             n(c.irq_windows + c.irqs_taken)});
    }
    out += t.str();
  }
  if (campaign_events_ != 0)
    out += "campaign lifecycle events: " + std::to_string(campaign_events_) + "\n";
  return out;
}

void MetricsRegistry::clear() {
  by_ = {};
  current_ = {kOutsidePhase, kOutsidePhase, kOutsidePhase};
  campaign_events_ = total_events_ = 0;
}

}  // namespace detstl::trace
