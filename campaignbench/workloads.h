#pragma once
// Seeded workload generator and set-up for the campaign benchmark.
//
// The generator maps (workload name, seed) to the values the program's
// public entry points take — exp::Scenario + fault::CampaignConfig per
// fault campaign, runtime::SoakCampaignSpec for the soak — and nothing else.
// prepare() then does the set-up a user pays before the first campaign call:
// routine builds (core::build_wrapped with the default stlint hook) and SoC
// factories for the grading workloads, plan_schedule calibration for the
// soak.

#include <optional>
#include <string>
#include <vector>

#include "exp/experiments.h"
#include "runtime/soak.h"

namespace campaignbench {

using namespace detstl;

/// Full size for the timed benchmark; tiny (large stride, few runs) for the
/// self-test.
enum class Scale { kFull, kTiny };

enum class RoutineId { kFwdNoPc, kFwdPc, kIcu };

/// One fault campaign of a grading workload.
struct FaultJob {
  std::string label;
  exp::Scenario scenario;
  core::WrapperKind wrapper = core::WrapperKind::kPlain;
  RoutineId routine = RoutineId::kFwdNoPc;
  bool use_pcs = false;
  fault::CampaignConfig cfg;  // module, graded core, stride, marker mode
};

struct WorkloadSpec {
  std::string name;
  unsigned threads = 4;           // campaign worker threads, fixed per workload
  std::vector<FaultJob> jobs;     // fwd_grade, icu_hdcu_grade
  std::optional<runtime::SoakCampaignSpec> soak;  // seu_soak
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown workload name.
WorkloadSpec make_workload(const std::string& name, u64 seed, Scale scale);

/// One-line description of the generated inputs (stderr report).
std::string describe(const WorkloadSpec& w);

/// State built before the first campaign call.
struct Prepared {
  std::vector<fault::SocFactory> factories;  // one per FaultJob
  std::optional<runtime::SchedulePlan> plan;  // seu_soak
  double build_ms = 0;  // routine builds + factories
  double plan_ms = 0;   // plan_schedule (routine builds + calibration runs)
};

Prepared prepare(const WorkloadSpec& w);

}  // namespace campaignbench
