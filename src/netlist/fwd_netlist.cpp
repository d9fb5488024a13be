#include "netlist/modules.h"

namespace detstl::netlist {

Style instance_style(CoreKind kind) {
  switch (kind) {
    case CoreKind::kA:
      return Style{.nand_nand = false, .buf_prob = 0.10, .seed = 0xA11CE};
    case CoreKind::kB:
      // Same RTL as A, different physical design: NAND-family mapping and a
      // different buffer density/seed give a distinct fault list.
      return Style{.nand_nand = true, .buf_prob = 0.16, .seed = 0xB0B};
    case CoreKind::kC:
      return Style{.nand_nand = false, .buf_prob = 0.08, .seed = 0xCA5CADE};
  }
  return {};
}

FwdNetlist::FwdNetlist(CoreKind kind)
    : kind_(kind),
      width_(kind == CoreKind::kC ? 64 : 32),
      nl_(instance_style(kind)) {
  const bool c64 = kind == CoreKind::kC;

  struct Port {
    std::array<NetId, 3> sel;
    NetId high = kNoNet;  // core C only
    std::vector<NetId> rf;
    std::array<std::vector<NetId>, 4> cand;
  };
  std::array<Port, 4> ports;

  // Primary inputs, port-major, in a fixed order (the encode() contract).
  const auto input = [&](u8 port, Field field, unsigned bit) {
    input_bits_.push_back(InputBit{port, field, static_cast<u8>(bit)});
    return nl_.input();
  };
  for (u8 c = 0; c < 4; ++c) {
    Port& port = ports[c];
    for (unsigned b = 0; b < 3; ++b) port.sel[b] = input(c, Field::kSel, b);
    if (c64) port.high = input(c, Field::kHigh, 0);
    port.rf.resize(width_);
    for (unsigned i = 0; i < width_; ++i) port.rf[i] = input(c, Field::kRf, i);
    for (unsigned j = 0; j < 4; ++j) {
      port.cand[j].resize(width_);
      for (unsigned i = 0; i < width_; ++i)
        port.cand[j][i] = input(c, static_cast<Field>(j), i);
    }
  }

  for (Port& port : ports) {
    // One-hot select decode: dec[j] asserts for encoded value j+1; rf_sel for 0.
    auto sel_is = [&](unsigned v) {
      std::array<NetId, 3> bits;
      for (unsigned b = 0; b < 3; ++b)
        bits[b] = (v >> b) & 1 ? port.sel[b] : nl_.not_(port.sel[b]);
      return nl_.and_n(bits);
    };
    const NetId rf_sel = sel_is(0);
    std::array<NetId, 4> dec;
    for (unsigned j = 0; j < 4; ++j) dec[j] = sel_is(j + 1);

    // AND-OR candidate mux, bit-sliced across the datapath width.
    std::vector<NetId> muxed(width_);
    for (unsigned i = 0; i < width_; ++i) {
      std::array<NetId, 4> terms;
      for (unsigned j = 0; j < 4; ++j) terms[j] = nl_.and2(dec[j], port.cand[j][i]);
      muxed[i] = nl_.or_n(terms);
    }

    // Core C: optional high-half extraction of the selected 64-bit value.
    std::vector<NetId> shifted = muxed;
    if (c64) {
      const NetId zero = nl_.constant(false);
      for (unsigned i = 0; i < width_; ++i) {
        const NetId high_src = i < 32 ? muxed[i + 32] : zero;
        shifted[i] = nl_.mux2(port.high, high_src, muxed[i]);
      }
    }

    for (unsigned i = 0; i < width_; ++i)
      outputs_.push_back(nl_.mux2(rf_sel, port.rf[i], shifted[i]));
  }
}

void FwdNetlist::encode(const FwdIn& in, EvalState& s) const {
  for (u32 i = 0; i < nl_.num_inputs(); ++i) s.set_input(i, input_bit(in, i));
}

FwdOut FwdNetlist::decode(const EvalState& s, unsigned lane) const {
  FwdOut out;
  for (u32 pos = 0; pos < outputs_.size(); ++pos)
    set_output_bit(out, pos, s.lane_bit(outputs_[pos], lane));
  return out;
}

FwdOut FwdNetlist::behavioral(const FwdIn& in) const {
  if (width_ == 64) return cpu::fwd_behavioral(in);
  FwdIn narrow = in;
  for (cpu::FwdPortIn& p : narrow.port) p.high_half = false;
  FwdOut out = cpu::fwd_behavioral(narrow);
  for (u64& v : out.operand) v &= 0xffffffffull;
  return out;
}

}  // namespace detstl::netlist
