#pragma once
// Pipeline-occupancy diagram of one core, built from the CPU's kPipeStage
// events: the renderer behind the paper's Figure 1 (forwarding path excited
// vs. broken by fetch stalls; exp::run_fig1).

#include <string>
#include <vector>

#include "trace/event.h"

namespace detstl::trace {

class PipelineDiagram final : public EventSink {
 public:
  struct Row {
    u32 ordinal = 0;    // issue ordinal (kPipeStage a)
    u32 pc = 0;
    std::string text;   // disassembly of the issued word
    // Cycle at which the instruction (last) occupied each PipeStage; 0 = never.
    u64 stage_cycle[kNumPipeStages] = {};
  };

  /// Collects the kPipeStage events of `core` only (as StreamCapture(core)).
  explicit PipelineDiagram(u8 core) : core_(core) {}

  void on_event(const Event& e) override;

  /// One row per issued instruction, in issue order.
  const std::vector<Row>& rows() const { return rows_; }

  /// Render a Figure-1-style pipeline diagram. Each row is an instruction;
  /// columns are clock cycles; letters mark the stage occupied (I/E/M/W,
  /// '-' for stall cycles in between).
  std::string render(u64 from_cycle = 0, u64 to_cycle = ~0ull) const;

 private:
  u8 core_;
  std::vector<Row> rows_;
};

}  // namespace detstl::trace
