#pragma once
// Netlist-backed implementations of the CPU module interfaces. A fault
// campaign installs these via CpuHooks to drive the pipeline from gate-level
// logic, optionally with one injected stuck-at fault.
//
// The combinational modules (FWD, HDCU) are cone-restricted: set_fault()
// computes the fault's cone once (Netlist::fault_cone), and each eval()
// takes the fault-free outputs from the behavioural model and recomputes
// only the outputs the fault can reach, from the gates that compute them.
// Without a fault the cone spans every output, so the fault-free adapter
// still evaluates every gate. The ICU is sequential (a fault persists in its
// flops) and evaluates the whole netlist every call.

#include <optional>

#include "netlist/modules.h"

namespace detstl::netlist {

/// Cone-restricted single-fault evaluator over a combinational module
/// (FwdNetlist or HdcuNetlist).
template <class Module, class In, class Out>
class ConeEval {
 public:
  explicit ConeEval(const Module& mod)
      : mod_(&mod), state_(mod.nl().make_state()) {
    set_fault(std::nullopt);
  }

  void set_fault(std::optional<Fault> f) {
    const Netlist& nl = mod_->nl();
    Netlist::clear_faults(state_);
    if (f) Netlist::inject(state_, *f, ~0ull);
    gates_ = nl.fault_cone(f ? f->net : kNoNet, mod_->outputs(), affected_);
    inputs_.clear();
    for (const NetId n : gates_)
      if (nl.gate(n).op == GateOp::kInput) inputs_.push_back(nl.gate(n).aux);
  }

  Out eval(const In& in) {
    for (const u32 i : inputs_) state_.set_input(i, mod_->input_bit(in, i));
    mod_->nl().eval_gates(state_, gates_);
    Out out = mod_->behavioral(in);
    for (const u32 pos : affected_)
      mod_->set_output_bit(out, pos, state_.lane_bit(mod_->outputs()[pos], 0));
    return out;
  }

 private:
  const Module* mod_;
  EvalState state_;
  std::vector<NetId> gates_;   // the cone, in evaluation order
  std::vector<u32> inputs_;    // primary inputs the cone reads
  std::vector<u32> affected_;  // output positions the fault can change
};

class NetlistHazard final : public cpu::HazardModel {
 public:
  explicit NetlistHazard(const HdcuNetlist& mod) : cone_(mod) {}

  void set_fault(std::optional<Fault> f) { cone_.set_fault(f); }
  HdcuOut eval(const HdcuIn& in) override { return cone_.eval(in); }

 private:
  ConeEval<HdcuNetlist, HdcuIn, HdcuOut> cone_;
};

class NetlistForward final : public cpu::ForwardModel {
 public:
  explicit NetlistForward(const FwdNetlist& mod) : cone_(mod) {}

  void set_fault(std::optional<Fault> f) { cone_.set_fault(f); }
  FwdOut eval(const FwdIn& in) override { return cone_.eval(in); }

 private:
  ConeEval<FwdNetlist, FwdIn, FwdOut> cone_;
};

class NetlistIcu final : public cpu::IcuModel {
 public:
  explicit NetlistIcu(const IcuNetlist& mod)
      : mod_(&mod), state_(mod.nl().make_state()) {}

  void set_fault(std::optional<Fault> f) {
    Netlist::clear_faults(state_);
    if (f) Netlist::inject(state_, *f, ~0ull);
  }

  IcuOut eval(const IcuIn& in) override {
    mod_->encode(in, state_);
    mod_->nl().eval(state_);
    return mod_->decode(state_, 0);
  }

  void clock(const IcuIn& in) override {
    mod_->encode(in, state_);
    mod_->nl().eval(state_);
    mod_->nl().clock(state_);
  }

  void load_state(u16 state) override { mod_->load_state(state_, state); }

 private:
  const IcuNetlist* mod_;
  EvalState state_;
};

}  // namespace detstl::netlist
