#include "trace/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "isa/disasm.h"

namespace detstl::trace {

void PipelineDiagram::on_event(const Event& e) {
  if (e.kind != EventKind::kPipeStage || e.core != core_) return;
  const auto stage = static_cast<unsigned>(e.unit);
  if (stage == static_cast<unsigned>(PipeStage::kIssue)) {
    Row row;
    row.ordinal = e.a;
    row.pc = e.addr;
    row.text = isa::disasm_word(e.b);
    row.stage_cycle[stage] = e.cycle;
    rows_.push_back(std::move(row));
    return;
  }
  // The occupant is one of the few newest rows; searching from the back also
  // picks the current run's row once a reset restarts the ordinals. Stages of
  // instructions issued before the sink was installed have no row.
  const auto it = std::find_if(rows_.rbegin(), rows_.rend(),
                               [&](const Row& r) { return r.ordinal == e.a; });
  if (it != rows_.rend()) it->stage_cycle[stage] = e.cycle;
}

std::string PipelineDiagram::render(u64 from_cycle, u64 to_cycle) const {
  // Determine the cycle window covered by the recorded instructions.
  u64 lo = ~0ull, hi = 0;
  for (const auto& r : rows_) {
    for (u64 c : r.stage_cycle) {
      if (c == 0) continue;
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
  }
  if (lo == ~0ull) return "(empty trace)\n";
  lo = std::max(lo, from_cycle);
  hi = std::min(hi, to_cycle);
  if (hi < lo) return "(empty window)\n";

  std::ostringstream os;
  os << "cycle             ";
  for (u64 c = lo; c <= hi; ++c) os << static_cast<char>('0' + c % 10);
  os << '\n';

  static constexpr char kLetters[kNumPipeStages] = {'I', 'E', 'M', 'W'};
  for (const auto& r : rows_) {
    const u64 issue = r.stage_cycle[0];
    if (issue == 0 || issue > hi) continue;
    char line_pc[16];
    std::snprintf(line_pc, sizeof line_pc, "%08x", r.pc);
    std::string row(hi - lo + 1, ' ');
    u64 prev = 0;
    for (unsigned s = 0; s < kNumPipeStages; ++s) {
      const u64 c = r.stage_cycle[s];
      if (c < lo || c > hi || c == 0) continue;
      row[c - lo] = kLetters[s];
      // Mark stall bubbles between consecutive stages.
      if (prev != 0 && c > prev + 1) {
        for (u64 b = prev + 1; b < c; ++b)
          if (b >= lo && b <= hi && row[b - lo] == ' ') row[b - lo] = '-';
      }
      prev = c;
    }
    os << line_pc << "  " << row << "  " << r.text << '\n';
  }
  return os.str();
}

}  // namespace detstl::trace
