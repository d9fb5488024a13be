// Golden campaign corpus: a fixed set of fixed-stride fault campaigns whose
// CampaignResult::canonical_bytes() digests are committed in
// tests/golden/campaign_digests.txt. Any change to the engine, the netlists
// or the simulator that moves a single per-fault outcome (or the good run)
// changes a digest and fails here. The campaigns run at one thread; thread
// count never changes the bytes (tests/test_fault_parallel.cpp).
//
// File format: one campaign per line, "<label> 0x<16 hex digits>". On a
// mismatch the test prints the recomputed line; a deliberate change of
// outcomes is recorded by pasting it into the golden file.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/routines.h"
#include "exp/experiments.h"

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
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016" PRIx64,
                fnv1a(bytes.data(), bytes.size()));
  return std::string(g.label) + " " + hex;
}

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

TEST(GoldenCampaignsFile, ListsExactlyTheCorpus) {
  const auto golden = load_golden();
  EXPECT_EQ(golden.size(), std::size(kCampaigns));
  for (const GoldenCampaign& g : kCampaigns)
    EXPECT_TRUE(golden.count(g.label)) << g.label;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, GoldenCampaigns, ::testing::ValuesIn(kCampaigns),
    [](const auto& info) {
      std::string name = info.param.label;
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

}  // namespace
}  // namespace detstl::fault
