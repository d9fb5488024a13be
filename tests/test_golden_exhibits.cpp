// Golden exhibits: the full text of the three Figure 1 pipeline diagrams,
// their producer->consumer EX distances, and the Table I IF/MEM stall
// averages at the default three stagger samples, committed in
// tests/golden/exhibits.txt. Any change to the pipeline, the memory system
// or the diagram renderer that moves a single stage letter or stall count
// fails here.
//
// File format: '#' lines are comments; everything else must equal the
// recomputed text byte for byte. On a mismatch the test prints the
// recomputed text; a deliberate change is recorded by pasting it in.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/experiments.h"

namespace detstl::exp {
namespace {

std::string exhibits_text() {
  const Fig1Result f = run_fig1();
  std::ostringstream os;
  const auto diagram = [&os](const char* name, u64 distance, const std::string& text) {
    os << "fig1 " << name << " ex-distance " << distance << '\n' << text;
  };
  diagram("cached", f.ex_distance_cached, f.trace_cached);
  diagram("single-core", f.ex_distance_single, f.trace_single_core);
  diagram("triple-core", f.ex_distance_triple, f.trace_triple_core);
  for (const Table1Row& row : run_table1()) {
    char line[96];
    std::snprintf(line, sizeof line, "table1 cores %u if-stalls %.3f mem-stalls %.3f\n",
                  row.active_cores, row.if_stalls, row.mem_stalls);
    os << line;
  }
  return os.str();
}

std::string load_golden() {
  std::ifstream f(DETSTL_GOLDEN_DIR "/exhibits.txt");
  std::string out, line;
  while (std::getline(f, line)) {
    if (!line.empty() && line[0] == '#') continue;
    out += line + '\n';
  }
  return out;
}

TEST(GoldenExhibits, Fig1AndTable1MatchCommitted) {
  const std::string got = exhibits_text();
  EXPECT_EQ(got, load_golden()) << "recomputed exhibits:\n" << got;
}

}  // namespace
}  // namespace detstl::exp
