#include "netlist/modules.h"

namespace detstl::netlist {

HdcuNetlist::HdcuNetlist(CoreKind kind) : kind_(kind), nl_(instance_style(kind)) {
  const bool c64 = kind == CoreKind::kC;

  struct Consumer {
    std::array<NetId, 5> rs;
    NetId used = kNoNet;
    NetId is64 = kNoNet;  // core C only
  };
  struct Producer {
    std::array<NetId, 5> rd;
    NetId writes = kNoNet;
    NetId is64 = kNoNet;  // core C only
    NetId is_load = kNoNet;
  };
  std::array<Consumer, 4> consumers;
  std::array<Producer, 4> producers;
  std::array<std::array<NetId, 3>, 4> sel_out;
  std::array<NetId, 4> high_out;

  // Primary inputs: consumers then producers (the encode() contract).
  const auto input = [&](u8 slot, Field field, unsigned bit) {
    input_bits_.push_back(InputBit{slot, field, static_cast<u8>(bit)});
    return nl_.input();
  };
  for (u8 i = 0; i < 4; ++i) {
    Consumer& c = consumers[i];
    for (unsigned b = 0; b < 5; ++b) c.rs[b] = input(i, Field::kRs, b);
    c.used = input(i, Field::kUsed, 0);
    if (c64) c.is64 = input(i, Field::kCons64, 0);
  }
  for (u8 i = 0; i < 4; ++i) {
    Producer& p = producers[i];
    for (unsigned b = 0; b < 5; ++b) p.rd[b] = input(i, Field::kRd, b);
    p.writes = input(i, Field::kWrites, 0);
    if (c64) p.is64 = input(i, Field::kProd64, 0);
    p.is_load = input(i, Field::kIsLoad, 0);
  }

  const NetId zero = nl_.constant(false);

  // Per-producer rd+1 (64-bit pair-high address), shared across consumers.
  std::array<std::vector<NetId>, 4> rd_plus1;
  if (c64) {
    for (unsigned p = 0; p < 4; ++p)
      rd_plus1[p] = nl_.inc_n(std::span<const NetId>(producers[p].rd));
  }

  std::array<NetId, 4> stall_c{};

  for (unsigned c = 0; c < 4; ++c) {
    const Consumer& cons = consumers[c];
    const NetId nz = nl_.or_n(std::span<const NetId>(cons.rs));
    std::vector<NetId> rs_plus1;
    if (c64) rs_plus1 = nl_.inc_n(std::span<const NetId>(cons.rs));

    // Per-producer match / match-kind signals.
    std::array<NetId, 4> match{}, high{}, stall_cause{};
    for (unsigned p = 0; p < 4; ++p) {
      const Producer& prod = producers[p];
      const bool dist1 = p < 2;  // EXMEM producers
      const NetId e0 = nl_.eq_n(std::span<const NetId>(cons.rs),
                                std::span<const NetId>(prod.rd));
      NetId full = e0;
      NetId hi = zero;
      NetId partial = zero;
      if (c64) {
        const NetId e1 = nl_.eq_n(std::span<const NetId>(cons.rs),
                                  std::span<const NetId>(rd_plus1[p]));
        const NetId e2 = nl_.eq_n(std::span<const NetId>(rs_plus1),
                                  std::span<const NetId>(prod.rd));
        const NetId np64 = nl_.not_(prod.is64);
        const NetId nc64 = nl_.not_(cons.is64);
        const NetId mixed = nl_.and2(np64, cons.is64);  // 32-bit prod, 64-bit cons
        full = nl_.and2(e0, nl_.not_(mixed));
        hi = nl_.and_n(std::array<NetId, 3>{e1, prod.is64, nc64});
        partial = nl_.and2(nl_.or2(e0, e2), mixed);
      }
      const NetId any = nl_.or_n(std::array<NetId, 3>{full, hi, partial});
      match[p] = nl_.and_n(std::array<NetId, 4>{any, prod.writes, cons.used, nz});
      high[p] = hi;
      stall_cause[p] =
          dist1 ? nl_.or2(partial, prod.is_load) : partial;  // qualified by grant
    }

    // Priority grant, youngest first: EXMEM1 > EXMEM0 > MEMWB1 > MEMWB0.
    static constexpr unsigned kOrder[4] = {1, 0, 3, 2};
    std::array<NetId, 4> granted{};  // indexed by producer id
    NetId earlier = zero;
    for (unsigned o = 0; o < 4; ++o) {
      const unsigned p = kOrder[o];
      granted[p] = nl_.and2(match[p], nl_.not_(earlier));
      earlier = nl_.or2(earlier, match[p]);
    }

    // Stall if the granted producer cannot forward.
    std::array<NetId, 4> scause;
    for (unsigned p = 0; p < 4; ++p) scause[p] = nl_.and2(granted[p], stall_cause[p]);
    stall_c[c] = nl_.or_n(scause);
    const NetId notst = nl_.not_(stall_c[c]);

    // Select encoding: EXMEM0=001, EXMEM1=010, MEMWB0=011, MEMWB1=100.
    std::array<NetId, 4> g;
    for (unsigned p = 0; p < 4; ++p) g[p] = nl_.and2(granted[p], notst);
    sel_out[c][0] = nl_.or2(g[0], g[2]);
    sel_out[c][1] = nl_.or2(g[1], g[2]);
    sel_out[c][2] = g[3];

    if (c64) {
      std::array<NetId, 4> gh;
      for (unsigned p = 0; p < 4; ++p) gh[p] = nl_.and2(g[p], high[p]);
      high_out[c] = nl_.or_n(gh);
    } else {
      high_out[c] = zero;
    }
  }

  // Output order: the set_output_bit() contract.
  for (unsigned c = 0; c < 4; ++c) {
    outputs_.insert(outputs_.end(), sel_out[c].begin(), sel_out[c].end());
    outputs_.push_back(high_out[c]);
  }
  outputs_.push_back(nl_.or_n(stall_c));
}

void HdcuNetlist::encode(const HdcuIn& in, EvalState& s) const {
  for (u32 i = 0; i < nl_.num_inputs(); ++i) s.set_input(i, input_bit(in, i));
}

HdcuOut HdcuNetlist::decode(const EvalState& s, unsigned lane) const {
  HdcuOut out;
  for (u32 pos = 0; pos < outputs_.size(); ++pos)
    set_output_bit(out, pos, s.lane_bit(outputs_[pos], lane));
  return out;
}

HdcuOut HdcuNetlist::behavioral(const HdcuIn& in) const {
  if (kind_ == CoreKind::kC) return cpu::hdcu_behavioral(kind_, in);
  HdcuIn narrow = in;
  for (cpu::HdcuProducer& p : narrow.prod) p.is64 = false;
  return cpu::hdcu_behavioral(kind_, narrow);
}

}  // namespace detstl::netlist
