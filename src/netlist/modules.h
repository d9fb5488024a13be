#pragma once
// Gate-level netlists of the three graded modules, built per core kind and
// per physical-design instance (Style). Each wrapper owns its Netlist plus
// the input/output net bindings and struct<->lane codecs.
//
// The input encodings are the contract between the CPU-side structs
// (cpu::FwdIn / HdcuIn / IcuIn) and the recorded traces replayed by the
// fault-simulation engine; they must stay stable.

#include <array>
#include <vector>

#include "cpu/forward.h"
#include "cpu/hazard.h"
#include "cpu/icu.h"
#include "netlist/netlist.h"

namespace detstl::netlist {

using cpu::FwdIn;
using cpu::FwdOut;
using cpu::HdcuIn;
using cpu::HdcuOut;
using cpu::IcuIn;
using cpu::IcuOut;
using isa::CoreKind;

/// Physical-design instance styles: cores A and B implement the same RTL with
/// different gate decompositions and buffer densities (hence different fault
/// lists), core C has its own 64-bit datapath.
Style instance_style(CoreKind kind);

// -----------------------------------------------------------------------------
// Forwarding Logic (Table II): the EX operand multiplexers.
// -----------------------------------------------------------------------------

class FwdNetlist {
 public:
  explicit FwdNetlist(CoreKind kind);

  CoreKind kind() const { return kind_; }
  unsigned width() const { return width_; }
  const Netlist& nl() const { return nl_; }

  /// Value of primary input `input_idx` for `in`: the per-bit form of
  /// encode(). Inputs are port-major: sel[3], high (core C), rf[width],
  /// cand[4][width].
  bool input_bit(const FwdIn& in, u32 input_idx) const {
    const InputBit& b = input_bits_[input_idx];
    const cpu::FwdPortIn& p = in.port[b.port];
    u64 v = 0;
    switch (b.field) {
      case Field::kSel: v = static_cast<u64>(p.sel); break;
      case Field::kHigh: v = p.high_half; break;
      case Field::kRf: v = p.rf; break;
      default: v = p.cand[static_cast<unsigned>(b.field)]; break;
    }
    return (v >> b.bit) & 1;
  }
  void encode(const FwdIn& in, EvalState& s) const;
  FwdOut decode(const EvalState& s, unsigned lane) const;
  /// Write output `pos` (an index into outputs(): port-major, width() bits
  /// per port) into `out`.
  void set_output_bit(FwdOut& out, u32 pos, bool v) const {
    u64& w = out.operand[pos / width_];
    const u64 m = 1ull << (pos % width_);
    w = v ? (w | m) : (w & ~m);
  }
  /// The fault-free netlist's function, computed by the behavioural model
  /// over the inputs the netlist has: 32-bit cores have no high-half input
  /// and drive only width() bits.
  FwdOut behavioral(const FwdIn& in) const;

  /// Output nets, for divergence screening.
  const std::vector<NetId>& outputs() const { return outputs_; }

 private:
  // kCandJ == J: input_bit() indexes cand[] with the field.
  enum class Field : u8 { kCand0, kCand1, kCand2, kCand3, kRf, kSel, kHigh };
  struct InputBit {
    u8 port;
    Field field;
    u8 bit;
  };

  CoreKind kind_;
  unsigned width_;
  Netlist nl_;
  std::vector<InputBit> input_bits_;  // by primary-input index
  std::vector<NetId> outputs_;
};

// -----------------------------------------------------------------------------
// Hazard Detection Control Unit (Table III): comparators, priority, stall.
// -----------------------------------------------------------------------------

class HdcuNetlist {
 public:
  explicit HdcuNetlist(CoreKind kind);

  CoreKind kind() const { return kind_; }
  const Netlist& nl() const { return nl_; }

  /// Value of primary input `input_idx` for `in`: the per-bit form of
  /// encode(). Inputs are consumers (rs[5], used, is64 on core C) then
  /// producers (rd[5], writes, is64 on core C, is_load).
  bool input_bit(const HdcuIn& in, u32 input_idx) const {
    const InputBit& b = input_bits_[input_idx];
    const cpu::HdcuConsumer& c = in.cons[b.slot];
    const cpu::HdcuProducer& p = in.prod[b.slot];
    switch (b.field) {
      case Field::kRs: return (c.rs >> b.bit) & 1;
      case Field::kUsed: return c.used;
      case Field::kCons64: return c.is64;
      case Field::kRd: return (p.rd >> b.bit) & 1;
      case Field::kWrites: return p.writes;
      case Field::kProd64: return p.is64;
      case Field::kIsLoad: return p.is_load;
    }
    return false;
  }
  void encode(const HdcuIn& in, EvalState& s) const;
  HdcuOut decode(const EvalState& s, unsigned lane) const;
  /// Write output `pos` into `out`. outputs() holds, per port, sel[3] and
  /// high, then the stall line.
  void set_output_bit(HdcuOut& out, u32 pos, bool v) const {
    if (pos == kStallPos) {
      out.stall = v;
    } else if (pos % 4 == 3) {
      out.high_half[pos / 4] = v;
    } else {
      const unsigned m = 1u << (pos % 4);
      const auto sel = static_cast<unsigned>(out.sel[pos / 4]);
      out.sel[pos / 4] = static_cast<cpu::FwdSel>(v ? (sel | m) : (sel & ~m));
    }
  }
  /// The fault-free netlist's function, computed by the behavioural model
  /// over the inputs the netlist has: 32-bit cores have no is64 inputs.
  HdcuOut behavioral(const HdcuIn& in) const;

  const std::vector<NetId>& outputs() const { return outputs_; }

 private:
  static constexpr u32 kStallPos = 16;
  enum class Field : u8 { kRs, kUsed, kCons64, kRd, kWrites, kProd64, kIsLoad };
  struct InputBit {
    u8 slot;  // consumer or producer index
    Field field;
    u8 bit;
  };

  CoreKind kind_;
  Netlist nl_;
  std::vector<InputBit> input_bits_;  // by primary-input index
  std::vector<NetId> outputs_;
};

// -----------------------------------------------------------------------------
// Interrupt Control Unit (Table III): pending flops, priority, cause mapping.
// -----------------------------------------------------------------------------

class IcuNetlist {
 public:
  explicit IcuNetlist(CoreKind kind);

  CoreKind kind() const { return kind_; }
  const Netlist& nl() const { return nl_; }

  void encode(const IcuIn& in, EvalState& s) const;
  IcuOut decode(const EvalState& s, unsigned lane) const;
  /// Seed the pending flops (checkpoint restore), broadcasting to all lanes.
  void load_state(EvalState& s, u16 state) const;

  const std::vector<NetId>& outputs() const { return outputs_; }

 private:
  CoreKind kind_;
  Netlist nl_;
  std::array<NetId, isa::kNumIcuSources> in_events_;
  std::array<NetId, isa::kNumIcuSources> in_mie_;
  std::array<NetId, isa::kNumIcuSources> in_clear_;
  NetId in_ack_ = kNoNet;
  std::array<NetId, isa::kNumIcuSources> pending_q_;
  NetId irq_out_ = kNoNet;
  std::vector<NetId> cause_out_;
  std::array<NetId, isa::kNumIcuSources> pending_out_;
  std::vector<NetId> outputs_;
};

}  // namespace detstl::netlist
