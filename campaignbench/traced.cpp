#include "traced.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "fault/checkpoint.h"
#include "netlist/adapters.h"
#include "netlist/screening.h"

namespace campaignbench {

const char* mod_name(Mod m) {
  switch (m) {
    case Mod::kCampaign: return "campaign";
    case Mod::kNetlistBuild: return "netlist.build";
    case Mod::kSocGood: return "soc.good";
    case Mod::kSocSnapshot: return "soc.snapshot";
    case Mod::kNetlistScreen: return "netlist.screen";
    case Mod::kFaultUnit: return "fault.unit";
    case Mod::kSocDetect: return "soc.detect";
    case Mod::kRuntimeUnit: return "runtime.unit";
    case Mod::kRuntimeRun: return "runtime.run";
    case Mod::kRuntimeIsolate: return "runtime.isolate";
    case Mod::kFaultCkpt: return "fault.ckpt";
    case Mod::kCount: break;
  }
  return "?";
}

std::string describe(const SimCounts& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "good_cycles=%llu screen_calls=%llu detection_cycles=%llu fault_units=%llu "
                "disturb_runs=%llu disturb_cycles=%llu",
                static_cast<unsigned long long>(c.good_cycles),
                static_cast<unsigned long long>(c.screen_calls),
                static_cast<unsigned long long>(c.detection_cycles),
                static_cast<unsigned long long>(c.fault_units),
                static_cast<unsigned long long>(c.disturb_runs),
                static_cast<unsigned long long>(c.disturb_cycles));
  return buf;
}

namespace {

using Clock = std::chrono::steady_clock;

/// In-memory span list of one single-threaded traced run.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  u64 now_ns() const {
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count());
  }
  u32 open(Mod mod, u32 parent, u64 unit) {
    spans_.push_back(Span{mod, parent, unit, now_ns(), 0, 0, 0});
    return static_cast<u32>(spans_.size() - 1);
  }
  void close(u32 id, u64 nested_ns = 0, u64 nested_calls = 0) {
    Span& s = spans_[id];
    s.end_ns = now_ns();
    s.nested_ns += nested_ns;
    s.nested_calls += nested_calls;
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope.
class Scope {
 public:
  Scope(SpanLog& log, Mod mod, u32 parent, u64 unit)
      : log_(log), id_(log.open(mod, parent, unit)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  u32 id() const { return id_; }

 private:
  SpanLog& log_;
  u32 id_;
};

template <class F>
auto timed(SpanLog& log, Mod mod, u32 parent, u64 unit, F&& f) {
  Scope s(log, mod, parent, unit);
  return f();
}

/// Time and call count of every netlist adapter call, accumulated into the
/// detection tick-loop span that encloses them.
struct CallTimer {
  u64 ns = 0;
  u64 calls = 0;

  template <class F>
  auto operator()(F&& f) {
    const auto t0 = Clock::now();
    auto r = f();
    ns += static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    ++calls;
    return r;
  }
};

class TimedForward final : public cpu::ForwardModel {
 public:
  TimedForward(const netlist::FwdNetlist& mod, CallTimer& t) : impl_(mod), t_(&t) {}
  netlist::NetlistForward& impl() { return impl_; }
  cpu::FwdOut eval(const cpu::FwdIn& in) override {
    return (*t_)([&] { return impl_.eval(in); });
  }

 private:
  netlist::NetlistForward impl_;
  CallTimer* t_;
};

class TimedHazard final : public cpu::HazardModel {
 public:
  TimedHazard(const netlist::HdcuNetlist& mod, CallTimer& t) : impl_(mod), t_(&t) {}
  netlist::NetlistHazard& impl() { return impl_; }
  cpu::HdcuOut eval(const cpu::HdcuIn& in) override {
    return (*t_)([&] { return impl_.eval(in); });
  }

 private:
  netlist::NetlistHazard impl_;
  CallTimer* t_;
};

class TimedIcu final : public cpu::IcuModel {
 public:
  TimedIcu(const netlist::IcuNetlist& mod, CallTimer& t) : impl_(mod), t_(&t) {}
  netlist::NetlistIcu& impl() { return impl_; }
  cpu::IcuOut eval(const cpu::IcuIn& in) override {
    return (*t_)([&] { return impl_.eval(in); });
  }
  void clock(const cpu::IcuIn& in) override {
    (*t_)([&] {
      impl_.clock(in);
      return 0;
    });
  }
  void load_state(u16 state) override { impl_.load_state(state); }

 private:
  netlist::NetlistIcu impl_;
  CallTimer* t_;
};

// --- fault campaign replica ---------------------------------------------------
// Mirrors the algorithm documented in fault/campaign.h (good run with module
// trace + periodic SoC checkpoints, 64-lane screening, per-fault detection
// from the last checkpoint before first divergence). The digest oracle
// enforces that it still matches the engine.

constexpr u32 kCheckpointEvery = 4096;  // fault::CampaignConfig default
constexpr unsigned kPersist = 8;        // signature divergence persistence

class RecorderTap final : public cpu::ModuleTap {
 public:
  explicit RecorderTap(fault::Module which) : which_(which) {}
  void on_hdcu(u64, const cpu::HdcuIn& in, const cpu::HdcuOut&) override {
    if (which_ == fault::Module::kHdcu) hdcu.push_back(in);
  }
  void on_fwd(u64, const cpu::FwdIn& in, const cpu::FwdOut&) override {
    if (which_ == fault::Module::kFwd) fwd.push_back(in);
  }
  void on_icu(u64, const cpu::IcuIn& in, const cpu::IcuOut&) override {
    if (which_ == fault::Module::kIcu) icu.push_back(in);
  }
  void on_wb(u64, unsigned rd, u32 v) override {
    if (rd == core::kSignatureReg) r29.push_back(v);
    if (rd == core::kLoopCounterReg && v == 1 && marker_idx == SIZE_MAX)
      marker_idx = r29.size();
  }
  std::size_t calls() const {
    switch (which_) {
      case fault::Module::kFwd: return fwd.size();
      case fault::Module::kHdcu: return hdcu.size();
      case fault::Module::kIcu: return icu.size();
    }
    return 0;
  }

  std::vector<cpu::HdcuIn> hdcu;
  std::vector<cpu::FwdIn> fwd;
  std::vector<cpu::IcuIn> icu;
  std::vector<u32> r29;
  std::size_t marker_idx = SIZE_MAX;

 private:
  fault::Module which_;
};

class CompareTap final : public cpu::ModuleTap {
 public:
  CompareTap(const std::vector<u32>& good, std::size_t start, std::size_t arm_at)
      : good_(&good), idx_(start), arm_at_(arm_at), armed_(start >= arm_at) {}
  void on_wb(u64, unsigned rd, u32 v) override {
    if (!armed_) {
      if (rd == core::kLoopCounterReg && v == 1) {
        idx_ = arm_at_;
        armed_ = true;
      }
      return;
    }
    if (rd != core::kSignatureReg) return;
    const bool match = idx_ < good_->size() && (*good_)[idx_] == v;
    ++idx_;
    diverged_run_ = match ? 0 : diverged_run_ + 1;
  }
  bool detected() const { return diverged_run_ >= kPersist; }

 private:
  const std::vector<u32>* good_;
  std::size_t idx_;
  std::size_t arm_at_;
  bool armed_;
  unsigned diverged_run_ = 0;
};

struct Checkpoint {
  soc::Soc soc;
  std::size_t call_idx;
  std::size_t r29_idx;
};

struct Modules {
  std::optional<netlist::FwdNetlist> fwd;
  std::optional<netlist::HdcuNetlist> hdcu;
  std::optional<netlist::IcuNetlist> icu;
  const netlist::Netlist* nl = nullptr;
  const std::vector<netlist::NetId>* outs = nullptr;

  Modules(fault::Module m, isa::CoreKind kind) {
    switch (m) {
      case fault::Module::kFwd:
        fwd.emplace(kind);
        nl = &fwd->nl();
        outs = &fwd->outputs();
        break;
      case fault::Module::kHdcu:
        hdcu.emplace(kind);
        nl = &hdcu->nl();
        outs = &hdcu->outputs();
        break;
      case fault::Module::kIcu:
        icu.emplace(kind);
        nl = &icu->nl();
        outs = &icu->outputs();
        break;
    }
  }
};

fault::CampaignResult replicate_campaign(const FaultJob& job, const fault::SocFactory& factory,
                                         SpanLog& log, u32 root, TracedRun& out) {
  const fault::CampaignConfig& cfg = job.cfg;
  const u32 mailbox = soc::mailbox_addr(cfg.core_id);
  fault::CampaignResult res;

  // Built in place: Modules points into its own members.
  const u32 build_span = log.open(Mod::kNetlistBuild, root, 0);
  const Modules mods(cfg.module, cfg.kind);
  log.close(build_span);

  // Good run with trace recording and checkpoints.
  RecorderTap rec(cfg.module);
  std::vector<Checkpoint> cps;
  {
    Scope good_span(log, Mod::kSocGood, root, 0);
    soc::Soc good = factory();
    good.reset();
    good.core(cfg.core_id).hooks().tap = &rec;
    cps.push_back(timed(log, Mod::kSocSnapshot, good_span.id(), 0,
                        [&] { return Checkpoint{good, 0, 0}; }));
    while (!good.core(cfg.core_id).halted()) {
      if (good.now() >= cfg.max_cycles)
        throw std::runtime_error("traced replica: good run exceeded max_cycles");
      good.tick();
      if (good.now() % kCheckpointEvery == 0)
        cps.push_back(timed(log, Mod::kSocSnapshot, good_span.id(), 0, [&] {
          return Checkpoint{good, rec.calls(), rec.r29.size()};
        }));
    }
    res.good_cycles = good.now();
    res.good_verdict = core::read_verdict(good, mailbox);
  }
  out.counts.good_cycles += res.good_cycles;
  if (res.good_verdict.status != soc::kStatusPass)
    throw std::runtime_error("traced replica: fault-free run did not pass");
  const std::size_t ncalls = rec.calls();

  const std::vector<netlist::Fault> all_faults = mods.nl->fault_list();
  res.total_faults = all_faults.size();
  std::vector<netlist::Fault> faults;
  for (std::size_t i = 0; i < all_faults.size(); ++i)
    if ((i / 2) % cfg.fault_stride == 0) faults.push_back(all_faults[i]);
  res.simulated_faults = faults.size();
  res.outcomes.assign(faults.size(), fault::FaultOutcome::kNotExcited);

  // Screening, one span per lane group.
  using netlist::LaneGroupScreen;
  std::vector<std::size_t> first_div(faults.size(), SIZE_MAX);
  const std::size_t ngroups = LaneGroupScreen::num_groups(faults.size());
  for (std::size_t g = 0; g < ngroups; ++g) {
    Scope span(log, Mod::kNetlistScreen, root, g);
    const std::size_t base = g * LaneGroupScreen::kLanesPerGroup;
    const std::size_t n =
        std::min<std::size_t>(LaneGroupScreen::kLanesPerGroup, faults.size() - base);
    LaneGroupScreen screen(*mods.nl, *mods.outs, {faults.data() + base, n});
    std::size_t replayed = 0;
    for (; replayed < ncalls && !screen.done(); ++replayed) {
      switch (cfg.module) {
        case fault::Module::kFwd: mods.fwd->encode(rec.fwd[replayed], screen.state()); break;
        case fault::Module::kHdcu: mods.hdcu->encode(rec.hdcu[replayed], screen.state()); break;
        case fault::Module::kIcu: mods.icu->encode(rec.icu[replayed], screen.state()); break;
      }
      screen.observe(replayed);
      if (cfg.module == fault::Module::kIcu) screen.clock();
    }
    out.counts.screen_calls += replayed;
    for (std::size_t j = 0; j < n; ++j) first_div[base + j] = screen.first_divergence()[j];
  }
  out.screen_trace_calls += ngroups * ncalls;

  // Detection, one span per excited fault.
  const u64 watchdog = res.good_cycles * 2 + 10'000;
  const std::size_t arm_at = cfg.signature_from_marker ? rec.marker_idx : 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    ++out.counts.fault_units;
    if (first_div[i] == SIZE_MAX) continue;
    Scope unit(log, Mod::kFaultUnit, root, i);
    const auto it = std::upper_bound(
        cps.begin(), cps.end(), first_div[i],
        [](std::size_t call, const Checkpoint& c) { return call < c.call_idx; });
    const Checkpoint& cp = *std::prev(it);
    soc::Soc s = timed(log, Mod::kSocSnapshot, unit.id(), i, [&] { return cp.soc; });
    const u64 resume_cycle = s.now();
    s.set_trace_sink(nullptr);
    CompareTap cmp(rec.r29, cp.r29_idx, arm_at);
    CallTimer nl_time;
    std::optional<TimedForward> fw;
    std::optional<TimedHazard> hz;
    std::optional<TimedIcu> ni;
    cpu::CpuHooks hooks;
    hooks.tap = &cmp;
    switch (cfg.module) {
      case fault::Module::kFwd:
        fw.emplace(*mods.fwd, nl_time);
        fw->impl().set_fault(faults[i]);
        hooks.fwd = &*fw;
        break;
      case fault::Module::kHdcu:
        hz.emplace(*mods.hdcu, nl_time);
        hz->impl().set_fault(faults[i]);
        hooks.hazard = &*hz;
        break;
      case fault::Module::kIcu:
        ni.emplace(*mods.icu, nl_time);
        ni->impl().set_fault(faults[i]);
        ni->load_state(s.core(cfg.core_id).icu_state().state());
        hooks.icu = &*ni;
        break;
    }
    s.core(cfg.core_id).hooks() = hooks;
    const u32 loop = log.open(Mod::kSocDetect, unit.id(), i);
    while (!s.core(cfg.core_id).halted() && !cmp.detected() && s.now() < watchdog) s.tick();
    log.close(loop, nl_time.ns, nl_time.calls);
    out.counts.detection_cycles += s.now() - resume_cycle;

    fault::FaultOutcome o;
    if (cmp.detected()) {
      o = fault::FaultOutcome::kDetectedSignature;
    } else if (!s.core(cfg.core_id).halted()) {
      o = fault::FaultOutcome::kDetectedWatchdog;
      ++out.watchdog;
    } else {
      const core::TestVerdict v = core::read_verdict(s, mailbox);
      o = v.status != res.good_verdict.status || v.signature != res.good_verdict.signature
              ? fault::FaultOutcome::kDetectedVerdict
              : fault::FaultOutcome::kUndetected;
    }
    res.outcomes[i] = o;
  }

  for (std::size_t i = 0; i < faults.size(); ++i) {
    res.excited += first_div[i] != SIZE_MAX;
    switch (res.outcomes[i]) {
      case fault::FaultOutcome::kNotExcited:
      case fault::FaultOutcome::kUndetected: break;
      case fault::FaultOutcome::kDetectedSignature: ++res.detected_signature; break;
      case fault::FaultOutcome::kDetectedVerdict: ++res.detected_verdict; break;
      case fault::FaultOutcome::kDetectedWatchdog: ++res.detected_watchdog; break;
    }
  }
  res.detected = res.detected_signature + res.detected_verdict + res.detected_watchdog;
  out.simulated_faults += res.simulated_faults;
  out.excited += res.excited;
  return res;
}

// --- soak campaign replica ----------------------------------------------------
// Mirrors run_soak_campaign / run_soak_once (runtime/soak.h): one supervised
// run per seed under the full upset plan, prefix bisection of every diverged
// run, each record journalled.

runtime::SupervisorResult supervised_run(const runtime::SchedulePlan& sp,
                                         const runtime::SupervisorConfig& cfg,
                                         const runtime::SoakPlan& plan, std::size_t limit,
                                         Mod mod, SpanLog& log, u32 parent, u64 unit,
                                         runtime::SoakStats* stats,
                                         std::vector<runtime::AppliedUpset>* applied) {
  soc::Soc copy = timed(log, Mod::kSocSnapshot, parent, unit, [&] { return sp.soc; });
  runtime::StlSupervisor sup(std::move(copy), sp.schedule, cfg);
  runtime::SoakInjector inj(plan, limit);
  runtime::SupervisorResult r =
      timed(log, mod, parent, unit, [&] { return sup.run(nullptr, &inj); });
  if (stats != nullptr) *stats = inj.stats();
  if (applied != nullptr) *applied = inj.applied_log();
  return r;
}

runtime::SoakRunRecord replicate_soak_run(const runtime::SchedulePlan& sp,
                                          const runtime::SoakCampaignSpec& spec, u64 run,
                                          SpanLog& log, u32 parent, TracedRun& out) {
  runtime::SoakRunRecord rec;
  rec.seed = runtime::derive_run_seed(spec.seed, static_cast<unsigned>(run));
  const runtime::SoakPlan plan = runtime::make_soak_plan(spec.soak, rec.seed, spec.cores);
  std::vector<runtime::AppliedUpset> applied;
  rec.result = supervised_run(sp, spec.supervisor, plan, plan.upsets.size(),
                              Mod::kRuntimeRun, log, parent, run, &rec.stats, &applied);
  ++out.counts.disturb_runs;
  out.counts.disturb_cycles += rec.result.total_cycles;
  out.run_cycles += rec.result.total_cycles;

  runtime::IsolationResult& iso = rec.isolation;
  iso.diverged = runtime::soak_run_diverged(rec.result) ? 1 : 0;
  out.diverged_runs += iso.diverged;
  if (iso.diverged == 0 || !spec.isolate || plan.upsets.empty()) return rec;

  const auto probe = [&](std::size_t limit, std::vector<runtime::AppliedUpset>* log_out) {
    runtime::SupervisorResult r = supervised_run(sp, spec.supervisor, plan, limit,
                                                 Mod::kRuntimeIsolate, log, parent, run,
                                                 nullptr, log_out);
    out.counts.disturb_cycles += r.total_cycles;
    out.isolate_cycles += r.total_cycles;
    ++out.isolate_probes;
    return r;
  };
  std::size_t lo = 0, hi = plan.upsets.size();
  u32 reruns = 1;
  std::vector<runtime::AppliedUpset> culprit_log = applied;
  if (runtime::soak_run_diverged(probe(0, nullptr))) {
    iso.reruns = reruns;
    return rec;
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    std::vector<runtime::AppliedUpset> probe_log;
    const bool diverged = runtime::soak_run_diverged(probe(mid, &probe_log));
    ++reruns;
    if (diverged) {
      hi = mid;
      culprit_log = std::move(probe_log);
    } else {
      lo = mid;
    }
  }
  const u32 culprit = static_cast<u32>(hi - 1);
  const runtime::SoakUpset& u = plan.upsets[culprit];
  iso.isolated = 1;
  iso.upset_index = culprit;
  iso.site = u.site;
  iso.core = u.core;
  iso.cycle = u.cycle;
  iso.reruns = reruns;
  for (const runtime::AppliedUpset& a : culprit_log) {
    if (a.index != culprit) continue;
    iso.core = a.core;
    iso.addr = a.addr;
    iso.bit = a.bit;
    break;
  }
  return rec;
}

u64 replicate_soak(const runtime::SoakCampaignSpec& spec_in, const runtime::SchedulePlan& sp,
                   const std::string& ckpt_dir, SpanLog& log, u32 root, TracedRun& out) {
  runtime::SoakCampaignSpec spec = spec_in;
  if (spec.soak.duration == 0) {
    u64 longest = 0;
    for (unsigned c = 0; c < spec.cores; ++c) {
      u64 sum = 0;
      for (const runtime::PlannedRoutine& r : sp.schedule[c]) sum += r.cached_calib;
      longest = std::max(longest, sum);
    }
    spec.soak.duration = 2 * longest + 1'000;
  }
  fault::CheckpointConfig ck = spec.checkpoint;
  ck.dir = ckpt_dir;
  fault::CheckpointWriter writer(ck, fault::PayloadKind::kSoakRuns,
                                 runtime::soak_checkpoint_config_hash(spec, sp), 0, nullptr);

  runtime::SoakCampaignResult res;
  res.records.resize(spec.runs);
  for (u64 i = 0; i < spec.runs; ++i) {
    {
      Scope unit(log, Mod::kRuntimeUnit, root, i);
      res.records[i] = replicate_soak_run(sp, spec, i, log, unit.id(), out);
    }
    Scope io(log, Mod::kFaultCkpt, root, i);
    writer.add(i, runtime::serialize_soak_record(res.records[i]));
  }
  {
    Scope io(log, Mod::kFaultCkpt, root, spec.runs);
    writer.flush();
  }
  out.runs += spec.runs;
  return res.digest();
}

}  // namespace

TracedRun run_traced(const WorkloadSpec& w, const Prepared& p, const std::string& ckpt_dir) {
  TracedRun out;
  SpanLog log;
  const auto t0 = Clock::now();
  u64 digest = fault::kFnvOffset;
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    Scope root(log, Mod::kCampaign, UINT32_MAX, j);
    const fault::CampaignResult r = replicate_campaign(w.jobs[j], p.factories[j], log, root.id(), out);
    const std::vector<u8> bytes = r.canonical_bytes();
    digest = fault::fnv1a(bytes.data(), bytes.size(), digest);
  }
  if (w.soak) {
    Scope root(log, Mod::kCampaign, UINT32_MAX, 0);
    digest = replicate_soak(*w.soak, *p.plan, ckpt_dir, log, root.id(), out);
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  out.digest = digest;
  out.spans = log.take();
  return out;
}

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  f << "module,parent,unit,start_ns,end_ns,nested_ns,nested_calls\n";
  for (const Span& s : spans) {
    f << mod_name(s.mod) << ','
      << (s.parent == UINT32_MAX ? -1 : static_cast<long long>(s.parent)) << ',' << s.unit
      << ',' << s.start_ns << ',' << s.end_ns << ',' << s.nested_ns << ',' << s.nested_calls
      << '\n';
  }
  if (!f) throw std::runtime_error("short write of spans to " + path);
}

}  // namespace campaignbench
