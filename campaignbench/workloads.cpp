#include "workloads.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/routines.h"
#include "core/stl.h"

namespace campaignbench {

namespace {

// Fault stride (every Nth net, both polarities) of the FWD campaigns, and
// run count of the soak, at full size and in the self-test.
constexpr u32 kFwdStride = 96;
constexpr u32 kFwdStrideTiny = 1024;
constexpr u32 kHdcuStrideTiny = 16;
constexpr u32 kHdcuStride = 8;  // ICU netlists are graded exhaustively
constexpr u32 kIcuStrideTiny = 8;
constexpr unsigned kSoakRuns = 600;
constexpr unsigned kSoakRunsTiny = 12;

constexpr u32 kPositions[3] = {0, 0x80000, 0x100000};  // Table II low/mid/high

/// splitmix64: the benchmark's own stream, so the seed-to-input mapping does
/// not move when the program's generators change.
class SeedStream {
 public:
  explicit SeedStream(u64 seed) : x_(seed) {}
  u64 next() {
    u64 z = (x_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  u32 below(u32 n) { return static_cast<u32>(next() % n); }
  std::array<u32, 3> stagger() { return {below(16), below(16), below(16)}; }

 private:
  u64 x_;
};

std::string stagger_label(const std::array<u32, 3>& s) {
  return "s" + std::to_string(s[0]) + "." + std::to_string(s[1]) + "." +
         std::to_string(s[2]);
}

FaultJob fault_job(fault::Module module, unsigned graded, exp::Scenario sc,
                   core::WrapperKind wrapper, RoutineId routine, u32 stride) {
  FaultJob j;
  const bool cached = wrapper == core::WrapperKind::kCacheBased;
  j.label = std::string(fault::module_name(module)) + "-" +
            static_cast<char>('A' + graded) + "-" + sc.label;
  j.scenario = std::move(sc);
  j.wrapper = wrapper;
  j.routine = routine;
  j.use_pcs = routine == RoutineId::kFwdPc;
  j.cfg.module = module;
  j.cfg.core_id = graded;
  j.cfg.kind = static_cast<isa::CoreKind>(graded);
  j.cfg.fault_stride = stride;
  // Cache-based wrapper: the loading loop's signatures are unchecked.
  j.cfg.signature_from_marker = cached;
  return j;
}

/// Table II shape: per core, one plain-wrapper no-cache contended scenario
/// from the Table II grid domain and one cache-based 3-core scenario.
std::vector<FaultJob> fwd_jobs(SeedStream& rng, u32 stride) {
  std::vector<FaultJob> jobs;
  for (unsigned g = 0; g < 3; ++g) {
    exp::Scenario nc;
    nc.active_cores = 2 + rng.below(2);
    nc.position = kPositions[rng.below(3)];
    nc.alignment = 8 * rng.below(2);
    nc.stagger = rng.stagger();
    nc.label = "nocache/" + std::to_string(nc.active_cores) + "c/p" +
               std::to_string(nc.position >> 19) + "/a" + std::to_string(nc.alignment) +
               "/" + stagger_label(nc.stagger);
    jobs.push_back(fault_job(fault::Module::kFwd, g, std::move(nc), core::WrapperKind::kPlain,
                             RoutineId::kFwdNoPc, stride));
    exp::Scenario ca;
    ca.active_cores = 3;
    ca.stagger = rng.stagger();
    ca.label = "cached/" + stagger_label(ca.stagger);
    jobs.push_back(fault_job(fault::Module::kFwd, g, std::move(ca),
                             core::WrapperKind::kCacheBased, RoutineId::kFwdNoPc, stride));
  }
  return jobs;
}

/// Table III shape: 3 cores x {ICU, HDCU} x {single-core no-cache,
/// seed-staggered 3-core cache-based}.
std::vector<FaultJob> icu_hdcu_jobs(SeedStream& rng, u32 icu_stride, u32 hdcu_stride) {
  std::vector<FaultJob> jobs;
  for (unsigned g = 0; g < 3; ++g) {
    for (const bool icu : {true, false}) {
      const fault::Module m = icu ? fault::Module::kIcu : fault::Module::kHdcu;
      const RoutineId r = icu ? RoutineId::kIcu : RoutineId::kFwdPc;
      const u32 stride = icu ? icu_stride : hdcu_stride;
      exp::Scenario single{1, {0, 0, 0}, 0, 0, "single"};
      jobs.push_back(fault_job(m, g, std::move(single), core::WrapperKind::kPlain, r, stride));
      exp::Scenario multi;
      multi.active_cores = 3;
      multi.stagger = rng.stagger();
      multi.label = "cached/" + stagger_label(multi.stagger);
      jobs.push_back(
          fault_job(m, g, std::move(multi), core::WrapperKind::kCacheBased, r, stride));
    }
  }
  return jobs;
}

std::unique_ptr<core::SelfTestRoutine> make_routine(RoutineId id) {
  switch (id) {
    case RoutineId::kFwdNoPc: return core::make_fwd_test(/*with_perf_counters=*/false);
    case RoutineId::kFwdPc: return core::make_fwd_test(/*with_perf_counters=*/true);
    case RoutineId::kIcu: return core::make_icu_test();
  }
  throw std::logic_error("campaignbench: unknown routine id");
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fwd_grade", "icu_hdcu_grade", "seu_soak"};
  return names;
}

WorkloadSpec make_workload(const std::string& name, u64 seed, Scale scale) {
  const bool tiny = scale == Scale::kTiny;
  WorkloadSpec w;
  w.name = name;
  // One stream per workload, so a seed means unrelated inputs across them.
  if (name == "fwd_grade") {
    SeedStream rng(seed ^ 0xF3D0000000000001ull);
    w.jobs = fwd_jobs(rng, tiny ? kFwdStrideTiny : kFwdStride);
  } else if (name == "icu_hdcu_grade") {
    SeedStream rng(seed ^ 0x1C0D000000000002ull);
    w.jobs = icu_hdcu_jobs(rng, tiny ? kIcuStrideTiny : 1, tiny ? kHdcuStrideTiny : kHdcuStride);
  } else if (name == "seu_soak") {
    SeedStream rng(seed ^ 0x5EA5000000000003ull);
    runtime::SoakCampaignSpec s;
    s.seed = rng.next() | 1;  // stlrun requires a non-zero master seed
    s.runs = tiny ? kSoakRunsTiny : kSoakRuns;
    s.cores = 3;
    s.routines = {"alu", "rf-march", "shifter", "branch", "muldiv"};  // the default mix
    s.isolate = true;
    w.soak = std::move(s);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::string describe(const WorkloadSpec& w) {
  std::string out = w.name + " (" + std::to_string(w.threads) + " threads):";
  for (const FaultJob& j : w.jobs)
    out += " " + j.label + "@" + std::to_string(j.cfg.fault_stride);
  if (w.soak) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %u runs, master seed 0x%llx", w.soak->runs,
                  static_cast<unsigned long long>(w.soak->seed));
    out += buf;
  }
  return out;
}

Prepared prepare(const WorkloadSpec& w) {
  Prepared p;
  if (!w.jobs.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const FaultJob& j : w.jobs) {
      const auto routine = make_routine(j.routine);
      auto tests = exp::build_scenario_tests(*routine, j.wrapper, j.scenario, j.cfg.core_id,
                                             j.use_pcs);
      p.factories.push_back(
          exp::scenario_factory(std::move(tests), j.scenario, j.cfg.core_id));
    }
    p.build_ms = ms_since(t0);
  }
  if (w.soak) {
    const auto t1 = std::chrono::steady_clock::now();
    std::vector<std::unique_ptr<core::SelfTestRoutine>> owned;
    std::vector<const core::SelfTestRoutine*> ptrs;
    for (const std::string& n : w.soak->routines) {
      const core::RoutineEntry* e = core::find_routine(n);
      if (e == nullptr) throw std::runtime_error("unknown routine '" + n + "'");
      owned.push_back(e->make());
      ptrs.push_back(owned.back().get());
    }
    p.plan.emplace(runtime::plan_schedule(ptrs, w.soak->cores));
    p.plan_ms = ms_since(t1);
  }
  return p;
}

}  // namespace campaignbench
