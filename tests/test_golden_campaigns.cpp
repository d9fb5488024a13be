// Golden campaign corpus: a fixed set of fixed-stride fault campaigns whose
// CampaignResult::canonical_bytes() digests are committed in
// tests/golden/campaign_digests.txt. Any change to the engine, the netlists
// or the simulator that moves a single per-fault outcome (or the good run)
// changes a digest and fails here. The campaigns run at one thread; thread
// count never changes the bytes (tests/test_fault_parallel.cpp).
//
// The same file pins the runtime workloads: the digest() of one seeded
// disturbance campaign, one seeded soak campaign and one seeded mission run,
// and the absolute checkpoint manifest hash of one fixed spec per journalled
// engine. A moved manifest hash orphans every checkpoint already on disk.
//
// File format: one campaign per line, "<label> 0x<16 hex digits>". On a
// mismatch the test prints the recomputed line; a deliberate change of
// outcomes is recorded by pasting it into the golden file.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/routines.h"
#include "core/stl.h"
#include "exp/experiments.h"
#include "netlist/modules.h"
#include "runtime/mission.h"
#include "runtime/soak.h"

namespace detstl::fault {
namespace {

using core::WrapperKind;

struct GoldenCampaign {
  const char* label;
  Module module;
  unsigned core;  // graded core; also its kind (A/B/C)
  WrapperKind wrapper;
  unsigned active_cores;
  u32 stride;
};

// FWD and HDCU on every core kind, plus one sequential (ICU) campaign. The
// plain single-core and cache-based three-core scenarios exercise both
// detection windows (whole run vs. execution loop only).
constexpr GoldenCampaign kCampaigns[] = {
    {"fwd-A-plain-1c", Module::kFwd, 0, WrapperKind::kPlain, 1, 61},
    {"fwd-B-cached-3c", Module::kFwd, 1, WrapperKind::kCacheBased, 3, 67},
    {"fwd-C-plain-1c", Module::kFwd, 2, WrapperKind::kPlain, 1, 71},
    {"hdcu-A-cached-3c", Module::kHdcu, 0, WrapperKind::kCacheBased, 3, 5},
    {"hdcu-B-plain-1c", Module::kHdcu, 1, WrapperKind::kPlain, 1, 5},
    {"hdcu-C-cached-3c", Module::kHdcu, 2, WrapperKind::kCacheBased, 3, 7},
    {"icu-C-cached-3c", Module::kIcu, 2, WrapperKind::kCacheBased, 3, 1},
};

void PrintTo(const GoldenCampaign& g, std::ostream* os) { *os << g.label; }

std::string hex_line(const char* label, u64 v) {
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016" PRIx64, v);
  return std::string(label) + " " + hex;
}

std::string golden_line(const GoldenCampaign& g) {
  const bool pcs = g.module == Module::kHdcu;  // Table III HDCU routine
  const auto routine = g.module == Module::kIcu ? core::make_icu_test()
                                                : core::make_fwd_test(pcs);
  exp::Scenario sc{g.active_cores, {0, 3, 7}, 0, 0, g.label};
  auto tests =
      exp::build_scenario_tests(*routine, g.wrapper, sc, g.core, pcs);
  CampaignConfig cc;
  cc.module = g.module;
  cc.core_id = g.core;
  cc.kind = static_cast<isa::CoreKind>(g.core);
  cc.fault_stride = g.stride;
  cc.signature_from_marker = g.wrapper == WrapperKind::kCacheBased;
  cc.threads = 1;
  Campaign campaign(cc, exp::scenario_factory(std::move(tests), sc, g.core));
  const std::vector<u8> bytes = campaign.run().canonical_bytes();
  return hex_line(g.label, fnv1a(bytes.data(), bytes.size()));
}

// --- Runtime corpus ----------------------------------------------------------

runtime::SchedulePlan two_core_plan() {
  std::vector<std::unique_ptr<core::SelfTestRoutine>> owned;
  std::vector<const core::SelfTestRoutine*> ptrs;
  for (const char* n : {"alu", "shifter"}) {
    owned.push_back(core::find_routine(n)->make());
    ptrs.push_back(owned.back().get());
  }
  return runtime::plan_schedule(ptrs, 2);
}

runtime::CampaignSpec disturbance_spec() {
  runtime::CampaignSpec spec;
  spec.seed = 0x601DC0DE;
  spec.runs = 4;
  spec.threads = 1;
  spec.cores = 2;
  spec.routines = {"alu", "shifter"};
  spec.disturb.count = 5;
  spec.disturb.permanent_chance = 0.5;
  return spec;
}

/// Rates high enough that the differential isolation runs.
runtime::SoakCampaignSpec soak_spec() {
  runtime::SoakCampaignSpec spec;
  spec.seed = 0x601D50AC;
  spec.runs = 3;
  spec.threads = 1;
  spec.cores = 2;
  spec.routines = {"alu", "shifter"};
  spec.soak.rates = {200, 400, 300, 120};
  spec.isolate = true;
  return spec;
}

u64 disturbance_digest() {
  return runtime::run_disturbance_campaign(disturbance_spec()).digest();
}

u64 soak_digest() { return runtime::run_soak_campaign(soak_spec()).digest(); }

u64 mission_digest() {
  runtime::MissionSpec spec;
  spec.seed = 0x601D0A11;
  spec.slices = 6;
  spec.cores = 3;
  spec.routines = {"alu", "branch"};
  return runtime::run_mission(spec).digest();
}

u64 fault_manifest_hash() {
  const netlist::FwdNetlist fwd(isa::CoreKind::kA);
  const auto routine = core::make_fwd_test(false);
  exp::Scenario sc{1, {0, 0, 0}, 0, 0, "golden-hash"};
  auto tests =
      exp::build_scenario_tests(*routine, WrapperKind::kPlain, sc, 0, false);
  CampaignConfig cc;
  cc.module = Module::kFwd;
  cc.fault_stride = 61;
  return checkpoint_config_hash(
      cc, fwd.nl(), exp::scenario_factory(std::move(tests), sc, 0)());
}

u64 disturbance_manifest_hash() {
  return runtime::checkpoint_config_hash(disturbance_spec(), two_core_plan());
}

u64 soak_manifest_hash() {
  runtime::SoakCampaignSpec spec = soak_spec();
  spec.soak.duration = 120'000;
  return runtime::soak_checkpoint_config_hash(spec, two_core_plan());
}

struct GoldenValue {
  const char* label;
  u64 (*compute)();
};

void PrintTo(const GoldenValue& g, std::ostream* os) { *os << g.label; }

constexpr GoldenValue kRuntimeValues[] = {
    {"disturbance-digest", disturbance_digest},
    {"soak-digest", soak_digest},
    {"mission-digest", mission_digest},
    {"fault-manifest-hash", fault_manifest_hash},
    {"disturbance-manifest-hash", disturbance_manifest_hash},
    {"soak-manifest-hash", soak_manifest_hash},
};

std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> lines;
  std::ifstream f(DETSTL_GOLDEN_DIR "/campaign_digests.txt");
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    lines[label] = line;
  }
  return lines;
}

class GoldenCampaigns : public ::testing::TestWithParam<GoldenCampaign> {};

TEST_P(GoldenCampaigns, DigestMatchesCommitted) {
  const GoldenCampaign& g = GetParam();
  const std::string got = golden_line(g);
  const auto golden = load_golden();
  const auto it = golden.find(g.label);
  ASSERT_NE(it, golden.end()) << "no golden line; recomputed:\n" << got;
  EXPECT_EQ(got, it->second) << "recomputed golden line:\n" << got;
}

class GoldenRuntime : public ::testing::TestWithParam<GoldenValue> {};

TEST_P(GoldenRuntime, ValueMatchesCommitted) {
  const GoldenValue& g = GetParam();
  const std::string got = hex_line(g.label, g.compute());
  const auto golden = load_golden();
  const auto it = golden.find(g.label);
  ASSERT_NE(it, golden.end()) << "no golden line; recomputed:\n" << got;
  EXPECT_EQ(got, it->second) << "recomputed golden line:\n" << got;
}

TEST(GoldenCampaignsFile, ListsExactlyTheCorpus) {
  const auto golden = load_golden();
  EXPECT_EQ(golden.size(), std::size(kCampaigns) + std::size(kRuntimeValues));
  for (const GoldenCampaign& g : kCampaigns)
    EXPECT_TRUE(golden.count(g.label)) << g.label;
  for (const GoldenValue& g : kRuntimeValues)
    EXPECT_TRUE(golden.count(g.label)) << g.label;
}

/// gtest parameter names: the label with '-' spelled '_'.
template <typename Info>
std::string param_name(const Info& info) {
  std::string name = info.param.label;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenCampaigns,
                         ::testing::ValuesIn(kCampaigns),
                         param_name<::testing::TestParamInfo<GoldenCampaign>>);
INSTANTIATE_TEST_SUITE_P(Runtime, GoldenRuntime,
                         ::testing::ValuesIn(kRuntimeValues),
                         param_name<::testing::TestParamInfo<GoldenValue>>);

}  // namespace
}  // namespace detstl::fault
