#include "netlist/netlist.h"

#include <algorithm>

namespace detstl::netlist {

NetId Netlist::input() { return add_raw(GateOp::kInput, kNoNet, kNoNet, num_inputs_++); }

NetId Netlist::constant(bool one) {
  return add_raw(one ? GateOp::kConst1 : GateOp::kConst0, kNoNet, kNoNet, 0);
}

NetId Netlist::dff() {
  const NetId q = add_raw(GateOp::kDff, kNoNet, kNoNet, num_flops_++);
  flop_qd_.emplace_back(q, kNoNet);
  return q;
}

void Netlist::connect_dff(NetId q, NetId d) {
  for (auto& [fq, fd] : flop_qd_) {
    if (fq == q) {
      assert(fd == kNoNet && "DFF already connected");
      fd = d;
      return;
    }
  }
  assert(false && "not a DFF net");
}

NetId Netlist::add(GateOp op, NetId a, NetId b) {
  assert(a < gates_.size());
  assert(b == kNoNet || b < gates_.size());
  NetId out = add_raw(op, a, b, 0);
  // Style: random buffer insertion models routing/physical differences
  // between instantiations and enlarges the structural fault list.
  while (style_.buf_prob > 0.0 && rng_.chance(style_.buf_prob))
    out = add_raw(GateOp::kBuf, out, kNoNet, 0);
  return out;
}

NetId Netlist::add_raw(GateOp op, NetId a, NetId b, u32 aux) {
  gates_.push_back(Gate{op, a, b, aux});
  return static_cast<NetId>(gates_.size() - 1);
}

NetId Netlist::and_n(std::span<const NetId> in) {
  assert(!in.empty());
  if (in.size() == 1) return in[0];
  // Balanced tree.
  std::vector<NetId> layer(in.begin(), in.end());
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(and2(layer[i], layer[i + 1]));
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  return layer[0];
}

NetId Netlist::or_n(std::span<const NetId> in) {
  assert(!in.empty());
  if (in.size() == 1) return in[0];
  std::vector<NetId> layer(in.begin(), in.end());
  while (layer.size() > 1) {
    std::vector<NetId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2)
      next.push_back(or2(layer[i], layer[i + 1]));
    if (layer.size() % 2) next.push_back(layer.back());
    layer = std::move(next);
  }
  return layer[0];
}

NetId Netlist::mux2(NetId s, NetId a, NetId b) {
  if (style_.nand_nand) {
    // NAND-NAND decomposition: ~(~(s&a) & ~(~s&b)).
    const NetId ns = not_(s);
    return nand2(nand2(s, a), nand2(ns, b));
  }
  const NetId ns = not_(s);
  return or2(and2(s, a), and2(ns, b));
}

NetId Netlist::eq_n(std::span<const NetId> a, std::span<const NetId> b) {
  assert(a.size() == b.size() && !a.empty());
  std::vector<NetId> bits;
  bits.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) bits.push_back(xnor2(a[i], b[i]));
  return and_n(bits);
}

std::vector<NetId> Netlist::inc_n(std::span<const NetId> a) {
  std::vector<NetId> out;
  out.reserve(a.size());
  NetId carry = constant(true);
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.push_back(xor2(a[i], carry));
    if (i + 1 < a.size()) carry = and2(a[i], carry);
  }
  return out;
}

std::vector<Fault> Netlist::fault_list() const {
  std::vector<Fault> faults;
  faults.reserve(gates_.size() * 2);
  for (NetId n = 0; n < gates_.size(); ++n) {
    const GateOp op = gates_[n].op;
    if (op == GateOp::kConst0 || op == GateOp::kConst1) continue;
    faults.push_back(Fault{n, false});
    faults.push_back(Fault{n, true});
  }
  return faults;
}

EvalState Netlist::make_state() const {
  EvalState s;
  s.value.assign(gates_.size(), 0);
  s.inputs.assign(num_inputs_, 0);
  s.flops.assign(num_flops_, 0);
  s.force0.assign(gates_.size(), 0);
  s.force1.assign(gates_.size(), 0);
  return s;
}

namespace {

/// One net's value under the fault overlay; shared by every evaluator.
inline void eval_net(const Gate& g, NetId n, EvalState& s) {
  u64 v = 0;
  switch (g.op) {
    case GateOp::kInput: v = s.inputs[g.aux]; break;
    case GateOp::kConst0: v = 0; break;
    case GateOp::kConst1: v = ~0ull; break;
    case GateOp::kBuf: v = s.value[g.a]; break;
    case GateOp::kNot: v = ~s.value[g.a]; break;
    case GateOp::kAnd: v = s.value[g.a] & s.value[g.b]; break;
    case GateOp::kOr: v = s.value[g.a] | s.value[g.b]; break;
    case GateOp::kNand: v = ~(s.value[g.a] & s.value[g.b]); break;
    case GateOp::kNor: v = ~(s.value[g.a] | s.value[g.b]); break;
    case GateOp::kXor: v = s.value[g.a] ^ s.value[g.b]; break;
    case GateOp::kXnor: v = ~(s.value[g.a] ^ s.value[g.b]); break;
    case GateOp::kDff: v = s.flops[g.aux]; break;
  }
  s.value[n] = (v | s.force1[n]) & ~s.force0[n];
}

}  // namespace

void Netlist::eval(EvalState& s) const {
  assert(s.value.size() == gates_.size());
  for (NetId n = 0; n < gates_.size(); ++n) eval_net(gates_[n], n, s);
}

void Netlist::eval_gates(EvalState& s, std::span<const NetId> gates) const {
  assert(s.value.size() == gates_.size());
  for (const NetId n : gates) eval_net(gates_[n], n, s);
}

std::vector<NetId> Netlist::fault_cone(NetId net,
                                       std::span<const NetId> outputs,
                                       std::vector<u32>& affected) const {
  assert(num_flops_ == 0 && "fault cones do not cross flops");
  assert(net == kNoNet || net < gates_.size());
  constexpr u8 kFanout = 1, kNeeded = 2;
  std::vector<u8> mark(gates_.size(), 0);
  // Operands precede their gate, so one forward sweep finds the fan-out cone.
  if (net != kNoNet) {
    mark[net] = kFanout;
    for (NetId n = net + 1; n < gates_.size(); ++n) {
      const Gate& g = gates_[n];
      if ((g.a != kNoNet && mark[g.a]) || (g.b != kNoNet && mark[g.b]))
        mark[n] = kFanout;
    }
  }
  affected.clear();
  for (u32 i = 0; i < outputs.size(); ++i) {
    if (net != kNoNet && !(mark[outputs[i]] & kFanout)) continue;
    affected.push_back(i);
    mark[outputs[i]] |= kNeeded;
  }
  // ...and one backward sweep its fan-in closure.
  std::vector<NetId> gates;
  for (NetId n = static_cast<NetId>(gates_.size()); n-- > 0;) {
    if (!(mark[n] & kNeeded)) continue;
    gates.push_back(n);
    const Gate& g = gates_[n];
    if (g.a != kNoNet) mark[g.a] |= kNeeded;
    if (g.b != kNoNet) mark[g.b] |= kNeeded;
  }
  std::reverse(gates.begin(), gates.end());
  return gates;
}

void Netlist::clock(EvalState& s) const {
  for (const auto& [q, d] : flop_qd_) {
    assert(d != kNoNet && "unconnected DFF");
    s.flops[gates_[q].aux] = s.value[d];
  }
}

void Netlist::clear_faults(EvalState& s) {
  std::fill(s.force0.begin(), s.force0.end(), 0);
  std::fill(s.force1.begin(), s.force1.end(), 0);
}

void Netlist::inject(EvalState& s, const Fault& f, u64 lane_mask) {
  (f.stuck1 ? s.force1 : s.force0)[f.net] |= lane_mask;
}

}  // namespace detstl::netlist
