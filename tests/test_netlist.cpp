// Netlist engine + module netlists: gate evaluation, DFFs, fault overlays,
// and exhaustive/randomised equivalence against the behavioural models.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>

#include "common/rng.h"
#include "core/routines.h"
#include "exp/experiments.h"
#include "netlist/adapters.h"

namespace detstl::netlist {
namespace {

using cpu::FwdSel;

// ----------------------------------------------------------------------------
// Engine basics
// ----------------------------------------------------------------------------

TEST(NetlistEngine, GatesComputeTruthTables) {
  Netlist nl;
  const NetId a = nl.input();
  const NetId b = nl.input();
  const NetId g_and = nl.and2(a, b);
  const NetId g_or = nl.or2(a, b);
  const NetId g_xor = nl.xor2(a, b);
  const NetId g_nand = nl.nand2(a, b);
  const NetId g_nor = nl.nor2(a, b);
  const NetId g_xnor = nl.xnor2(a, b);
  const NetId g_not = nl.not_(a);
  EvalState s = nl.make_state();
  for (unsigned av = 0; av < 2; ++av) {
    for (unsigned bv = 0; bv < 2; ++bv) {
      s.set_input(0, av);
      s.set_input(1, bv);
      nl.eval(s);
      EXPECT_EQ(s.lane_bit(g_and, 0), (av & bv) != 0);
      EXPECT_EQ(s.lane_bit(g_or, 0), (av | bv) != 0);
      EXPECT_EQ(s.lane_bit(g_xor, 0), (av ^ bv) != 0);
      EXPECT_EQ(s.lane_bit(g_nand, 0), !(av & bv));
      EXPECT_EQ(s.lane_bit(g_nor, 0), !(av | bv));
      EXPECT_EQ(s.lane_bit(g_xnor, 0), !(av ^ bv));
      EXPECT_EQ(s.lane_bit(g_not, 0), !av);
    }
  }
}

TEST(NetlistEngine, DffHoldsState) {
  Netlist nl;
  const NetId q = nl.dff();
  const NetId d = nl.input();
  nl.connect_dff(q, nl.xor2(q, d));  // toggle flop
  EvalState s = nl.make_state();
  s.set_input(0, true);
  nl.eval(s);
  EXPECT_FALSE(s.lane_bit(q, 0));
  nl.clock(s);
  nl.eval(s);
  EXPECT_TRUE(s.lane_bit(q, 0));
  nl.clock(s);
  nl.eval(s);
  EXPECT_FALSE(s.lane_bit(q, 0));
}

TEST(NetlistEngine, FaultOverlayPerLane) {
  Netlist nl;
  const NetId a = nl.input();
  const NetId out = nl.buf(a);
  EvalState s = nl.make_state();
  s.set_input(0, false);
  Netlist::inject(s, Fault{out, true}, 0b10);  // SA1 in lane 1 only
  nl.eval(s);
  EXPECT_FALSE(s.lane_bit(out, 0));
  EXPECT_TRUE(s.lane_bit(out, 1));
  Netlist::clear_faults(s);
  nl.eval(s);
  EXPECT_FALSE(s.lane_bit(out, 1));
}

TEST(NetlistEngine, Mux2BothStyles) {
  for (bool nn : {false, true}) {
    Netlist nl(Style{.nand_nand = nn, .buf_prob = 0.0, .seed = 3});
    const NetId sel = nl.input();
    const NetId a = nl.input();
    const NetId b = nl.input();
    const NetId m = nl.mux2(sel, a, b);
    EvalState s = nl.make_state();
    for (unsigned v = 0; v < 8; ++v) {
      s.set_input(0, v & 1);
      s.set_input(1, (v >> 1) & 1);
      s.set_input(2, (v >> 2) & 1);
      nl.eval(s);
      const bool expect = (v & 1) ? ((v >> 1) & 1) : ((v >> 2) & 1);
      EXPECT_EQ(s.lane_bit(m, 0), expect) << "style " << nn << " v " << v;
    }
  }
}

TEST(NetlistEngine, IncrementerWraps) {
  Netlist nl;
  std::vector<NetId> in(5);
  for (auto& n : in) n = nl.input();
  const auto out = nl.inc_n(in);
  EvalState s = nl.make_state();
  for (u32 v = 0; v < 32; ++v) {
    for (unsigned b = 0; b < 5; ++b) s.set_input(b, (v >> b) & 1);
    nl.eval(s);
    u32 got = 0;
    for (unsigned b = 0; b < 5; ++b) got |= static_cast<u32>(s.lane_bit(out[b], 0)) << b;
    EXPECT_EQ(got, (v + 1) % 32);
  }
}

TEST(NetlistEngine, BufferInsertionGrowsFaultList) {
  Netlist plain(Style{});
  Netlist buffered(Style{.nand_nand = false, .buf_prob = 0.5, .seed = 9});
  auto build = [](Netlist& nl) {
    const NetId a = nl.input();
    const NetId b = nl.input();
    NetId x = nl.and2(a, b);
    for (int i = 0; i < 20; ++i) x = nl.or2(x, nl.and2(a, b));
    return x;
  };
  build(plain);
  build(buffered);
  EXPECT_GT(buffered.fault_list().size(), plain.fault_list().size());
}

TEST(NetlistEngine, WideAndOrEqAgainstReference) {
  Rng rng(55);
  for (int trial = 0; trial < 50; ++trial) {
    const unsigned n = 1 + static_cast<unsigned>(rng.below(12));
    Netlist nl;
    std::vector<NetId> a_in(n), b_in(n);
    for (auto& x : a_in) x = nl.input();
    for (auto& x : b_in) x = nl.input();
    const NetId all = nl.and_n(a_in);
    const NetId any = nl.or_n(a_in);
    const NetId eq = nl.eq_n(a_in, b_in);
    EvalState s = nl.make_state();
    for (int vec = 0; vec < 20; ++vec) {
      u32 av = 0, bv = 0;
      for (unsigned i = 0; i < n; ++i) {
        const bool ab = rng.chance(0.5), bb = rng.chance(0.5);
        av |= static_cast<u32>(ab) << i;
        bv |= static_cast<u32>(bb) << i;
        s.set_input(i, ab);
        s.set_input(n + i, bb);
      }
      nl.eval(s);
      const u32 mask = n >= 32 ? ~0u : ((1u << n) - 1);
      EXPECT_EQ(s.lane_bit(all, 0), (av & mask) == mask);
      EXPECT_EQ(s.lane_bit(any, 0), av != 0);
      EXPECT_EQ(s.lane_bit(eq, 0), av == bv);
    }
  }
}

TEST(NetlistEngine, FaultListExcludesConstants) {
  Netlist nl;
  const NetId c0 = nl.constant(false);
  const NetId c1 = nl.constant(true);
  const NetId in = nl.input();
  nl.and2(in, nl.or2(c0, c1));
  for (const Fault& f : nl.fault_list()) {
    EXPECT_NE(f.net, c0);
    EXPECT_NE(f.net, c1);
  }
  // Both polarities of every non-constant net.
  EXPECT_EQ(nl.fault_list().size(), 2 * (nl.num_nets() - 2));
}

TEST(NetlistEngine, LaneIndependenceUnderDistinctFaults) {
  // Two different faults in two lanes must not interact: each lane behaves
  // exactly like a single-fault machine.
  Netlist nl;
  const NetId a = nl.input();
  const NetId b = nl.input();
  const NetId x = nl.xor2(a, b);
  const NetId y = nl.and2(x, a);
  EvalState multi = nl.make_state();
  Netlist::inject(multi, Fault{x, true}, 1ull << 0);
  Netlist::inject(multi, Fault{y, false}, 1ull << 1);
  for (unsigned v = 0; v < 4; ++v) {
    multi.set_input(0, v & 1);
    multi.set_input(1, (v >> 1) & 1);
    nl.eval(multi);
    for (unsigned lane = 0; lane < 2; ++lane) {
      EvalState solo = nl.make_state();
      Netlist::inject(solo, lane == 0 ? Fault{x, true} : Fault{y, false}, ~0ull);
      solo.set_input(0, v & 1);
      solo.set_input(1, (v >> 1) & 1);
      nl.eval(solo);
      EXPECT_EQ(multi.lane_bit(y, lane), solo.lane_bit(y, 0))
          << "v=" << v << " lane=" << lane;
    }
  }
}

// ----------------------------------------------------------------------------
// Fault cones: Netlist::fault_cone + eval_gates
// ----------------------------------------------------------------------------

/// For every input vector of a small netlist: the outputs in `f`'s cone,
/// computed by eval_gates over the cone alone, equal the full faulty
/// netlist; every other output of the full faulty netlist equals the
/// fault-free netlist.
void expect_cone_exact(const Netlist& nl, std::span<const NetId> outputs,
                       const Fault& f) {
  std::vector<u32> affected;
  const std::vector<NetId> cone = nl.fault_cone(f.net, outputs, affected);
  EvalState full = nl.make_state(), good = nl.make_state();
  EvalState part = nl.make_state();
  Netlist::inject(full, f, ~0ull);
  Netlist::inject(part, f, ~0ull);
  for (u32 v = 0; v < (1u << nl.num_inputs()); ++v) {
    for (u32 i = 0; i < nl.num_inputs(); ++i) {
      const bool b = (v >> i) & 1;
      full.set_input(i, b);
      good.set_input(i, b);
      part.set_input(i, b);
    }
    nl.eval(full);
    nl.eval(good);
    nl.eval_gates(part, cone);
    for (u32 pos = 0; pos < outputs.size(); ++pos) {
      const bool in_cone =
          std::find(affected.begin(), affected.end(), pos) != affected.end();
      const EvalState& want = in_cone ? part : good;
      EXPECT_EQ(full.lane_bit(outputs[pos], 0), want.lane_bit(outputs[pos], 0))
          << "fault net " << f.net << " sa" << f.stuck1 << " output " << pos
          << " v " << v;
    }
  }
}

/// a, b, c -> x = a&b fans out to p = x&c and q = ~(x|c), which reconverge
/// in r = p^q; o2 = b|c lies outside x's fan-out; dead = a^c is unobserved.
struct SmallNet {
  Netlist nl;
  NetId a, b, c, x, p, q, r, o2, dead;
  SmallNet()
      : a(nl.input()), b(nl.input()), c(nl.input()), x(nl.and2(a, b)),
        p(nl.and2(x, c)), q(nl.nor2(x, c)), r(nl.xor2(p, q)), o2(nl.or2(b, c)),
        dead(nl.xor2(a, c)) {}
};

TEST(FaultCone, ReconvergentFanout) {
  const SmallNet n;
  const std::vector<NetId> outs = {n.r, n.o2};
  std::vector<u32> affected;
  EXPECT_EQ(n.nl.fault_cone(n.x, outs, affected),
            (std::vector<NetId>{n.a, n.b, n.c, n.x, n.p, n.q, n.r}));
  EXPECT_EQ(affected, std::vector<u32>{0});
  for (const Fault& f : n.nl.fault_list()) expect_cone_exact(n.nl, outs, f);
}

TEST(FaultCone, PrimaryInputFault) {
  const SmallNet n;
  const std::vector<NetId> outs = {n.r, n.o2};
  std::vector<u32> affected;
  // The input net itself is in its cone, so its force applies.
  EXPECT_EQ(n.nl.fault_cone(n.a, outs, affected),
            (std::vector<NetId>{n.a, n.b, n.c, n.x, n.p, n.q, n.r}));
  EXPECT_EQ(affected, std::vector<u32>{0});
  // Everything but `dead`.
  EXPECT_EQ(n.nl.fault_cone(n.b, outs, affected).size(), 8u);
  EXPECT_EQ(affected, (std::vector<u32>{0, 1}));
  expect_cone_exact(n.nl, outs, Fault{n.a, true});
  expect_cone_exact(n.nl, outs, Fault{n.c, false});
}

TEST(FaultCone, OutputNetFault) {
  const SmallNet n;
  const std::vector<NetId> outs = {n.r, n.o2};
  std::vector<u32> affected;
  EXPECT_EQ(n.nl.fault_cone(n.o2, outs, affected),
            (std::vector<NetId>{n.b, n.c, n.o2}));
  EXPECT_EQ(affected, std::vector<u32>{1});
  expect_cone_exact(n.nl, outs, Fault{n.o2, true});
  expect_cone_exact(n.nl, outs, Fault{n.r, false});
}

TEST(FaultCone, DuplicateAndConstantOutputs) {
  SmallNet n;
  const NetId one = n.nl.constant(true);
  const std::vector<NetId> outs = {n.r, one, n.r, n.o2};
  std::vector<u32> affected;
  n.nl.fault_cone(n.p, outs, affected);
  EXPECT_EQ(affected, (std::vector<u32>{0, 2}));
  // The fault-free cone covers every output, constants included.
  const std::vector<NetId> all = n.nl.fault_cone(kNoNet, outs, affected);
  EXPECT_EQ(affected, (std::vector<u32>{0, 1, 2, 3}));
  EXPECT_EQ(all, (std::vector<NetId>{n.a, n.b, n.c, n.x, n.p, n.q, n.r, n.o2,
                                     one}));
  EvalState s = n.nl.make_state();
  n.nl.eval_gates(s, all);
  EXPECT_TRUE(s.lane_bit(one, 0));
  for (const Fault& f : n.nl.fault_list()) expect_cone_exact(n.nl, outs, f);
}

TEST(FaultCone, UnobservedFaultHasEmptyCone) {
  const SmallNet n;
  const std::vector<NetId> outs = {n.r, n.o2};
  std::vector<u32> affected = {7};
  EXPECT_TRUE(n.nl.fault_cone(n.dead, outs, affected).empty());
  EXPECT_TRUE(affected.empty());
  expect_cone_exact(n.nl, outs, Fault{n.dead, true});
}

/// A stand-in module for ConeEval over SmallNet (inputs a, b, c = bits 0-2;
/// outputs r, o2 = bits 0-1) whose "behavioural model" deliberately answers
/// the complement of the netlist, so the test sees which outputs ConeEval
/// patches from the cone and which it takes from the model.
struct ComplementModule {
  SmallNet n;
  std::vector<NetId> outs = {n.r, n.o2};
  const Netlist& nl() const { return n.nl; }
  const std::vector<NetId>& outputs() const { return outs; }
  bool input_bit(u32 in, u32 idx) const { return (in >> idx) & 1; }
  void set_output_bit(u32& out, u32 pos, bool v) const {
    out = (out & ~(1u << pos)) | (static_cast<u32>(v) << pos);
  }
  u32 truth(u32 in) const {
    const bool a = in & 1, b = (in >> 1) & 1, c = (in >> 2) & 1;
    const bool x = a && b;
    const bool r = (x && c) != !(x || c);
    return static_cast<u32>(r) | (static_cast<u32>(b || c) << 1);
  }
  u32 behavioral(u32 in) const { return ~truth(in) & 3u; }
};

TEST(ConeEval, PatchesOnlyTheAffectedOutputs) {
  const ComplementModule mod;
  ConeEval<ComplementModule, u32, u32> cone(mod);
  for (u32 in = 0; in < 8; ++in) {
    // Fault-free: every output comes from the netlist.
    EXPECT_EQ(cone.eval(in), mod.truth(in)) << in;
  }
  cone.set_fault(Fault{mod.n.dead, true});
  for (u32 in = 0; in < 8; ++in)
    EXPECT_EQ(cone.eval(in), mod.behavioral(in)) << in;
  // o2 comes from the netlist (stuck at 0), r from the model.
  cone.set_fault(Fault{mod.n.o2, false});
  for (u32 in = 0; in < 8; ++in)
    EXPECT_EQ(cone.eval(in), mod.behavioral(in) & 1u) << in;
  cone.set_fault(std::nullopt);
  for (u32 in = 0; in < 8; ++in) EXPECT_EQ(cone.eval(in), mod.truth(in)) << in;
}

// ----------------------------------------------------------------------------
// Random CPU-reachable stimulus generators
// ----------------------------------------------------------------------------

cpu::HdcuIn random_hdcu_in(Rng& rng, CoreKind kind) {
  cpu::HdcuIn in;
  const bool c64 = kind == CoreKind::kC;
  for (auto& c : in.cons) {
    c.rs = static_cast<u8>(rng.below(32));
    c.used = rng.chance(0.8);
    c.is64 = c64 && rng.chance(0.3);
    if (c.is64) c.rs &= ~1u;
  }
  for (auto& p : in.prod) {
    p.rd = static_cast<u8>(rng.below(32));
    p.writes = rng.chance(0.7) && p.rd != 0;  // CPU invariant: writes => rd != 0
    p.is64 = c64 && rng.chance(0.3);
    if (p.is64) p.rd &= ~1u;
    p.is_load = rng.chance(0.3);
  }
  return in;
}

cpu::FwdIn random_fwd_in(Rng& rng, CoreKind kind) {
  cpu::FwdIn in;
  const bool c64 = kind == CoreKind::kC;
  const u64 mask = c64 ? ~0ull : 0xffffffffull;
  for (auto& p : in.port) {
    p.rf = rng.next_u64() & mask;
    for (auto& c : p.cand) c = rng.next_u64() & mask;
    p.sel = static_cast<FwdSel>(rng.below(5));
    p.high_half = c64 && p.sel != FwdSel::kRegFile && rng.chance(0.25);
  }
  return in;
}

cpu::IcuIn random_icu_in(Rng& rng) {
  cpu::IcuIn in;
  in.events = static_cast<u8>(rng.below(16));
  in.mie = static_cast<u8>(rng.below(16));
  in.ack = rng.chance(0.3);
  in.clear = static_cast<u8>(rng.below(16));
  return in;
}

// ----------------------------------------------------------------------------
// Equivalence: netlist == behavioural (parameterised over core kinds)
// ----------------------------------------------------------------------------

class PerCore : public ::testing::TestWithParam<int> {
 protected:
  CoreKind kind() const { return static_cast<CoreKind>(GetParam()); }
};

TEST_P(PerCore, HdcuNetlistMatchesBehavioral) {
  const HdcuNetlist mod(kind());
  NetlistHazard hz(mod);
  Rng rng(42 + GetParam());
  for (int i = 0; i < 3000; ++i) {
    const cpu::HdcuIn in = random_hdcu_in(rng, kind());
    const cpu::HdcuOut want = cpu::hdcu_behavioral(kind(), in);
    const cpu::HdcuOut got = hz.eval(in);
    ASSERT_EQ(got, want) << "iteration " << i;
  }
}

TEST_P(PerCore, FwdNetlistMatchesBehavioral) {
  const FwdNetlist mod(kind());
  NetlistForward fw(mod);
  Rng rng(137 + GetParam());
  for (int i = 0; i < 1000; ++i) {
    const cpu::FwdIn in = random_fwd_in(rng, kind());
    const cpu::FwdOut want = cpu::fwd_behavioral(in);
    const cpu::FwdOut got = fw.eval(in);
    ASSERT_EQ(got, want) << "iteration " << i;
  }
}

TEST_P(PerCore, IcuNetlistMatchesBehavioralSequence) {
  const IcuNetlist mod(kind());
  NetlistIcu ni(mod);
  cpu::IcuState behav(kind());
  Rng rng(7 + GetParam());
  for (int i = 0; i < 5000; ++i) {
    const cpu::IcuIn in = random_icu_in(rng);
    const cpu::IcuOut want = behav.eval(in);
    const cpu::IcuOut got = ni.eval(in);
    ASSERT_EQ(got, want) << "iteration " << i;
    behav.clock(in);
    ni.clock(in);
  }
}

TEST_P(PerCore, IcuLoadStateSeedsFlops) {
  const IcuNetlist mod(kind());
  NetlistIcu ni(mod);
  // Pending sources 0 and 2, both synchroniser stages set (bits 4/5).
  ni.load_state(0b0101 | (1u << 4) | (1u << 5));
  cpu::IcuIn in;
  in.mie = 0xf;
  const cpu::IcuOut out = ni.eval(in);
  EXPECT_TRUE(out.irq);
  EXPECT_EQ(out.pending, 0b0101);

  // Without the synchroniser stages the request line lags by two clocks.
  NetlistIcu lagged(mod);
  lagged.load_state(0b0101);
  EXPECT_FALSE(lagged.eval(in).irq);
  lagged.clock(in);
  lagged.clock(in);
  EXPECT_TRUE(lagged.eval(in).irq);
}

INSTANTIATE_TEST_SUITE_P(Kinds, PerCore, ::testing::Values(0, 1, 2));

// ----------------------------------------------------------------------------
// Fault behaviour of the module netlists
// ----------------------------------------------------------------------------

TEST(ModuleFaults, StuckStallForcesPermanentStall) {
  const HdcuNetlist mod(CoreKind::kA);
  NetlistHazard hz(mod);
  // The stall output is the last entry of outputs().
  hz.set_fault(Fault{mod.outputs().back(), true});
  cpu::HdcuIn in;  // empty packet: behaviourally no stall
  EXPECT_TRUE(hz.eval(in).stall);
  hz.set_fault(std::nullopt);
  EXPECT_FALSE(hz.eval(in).stall);
}

TEST(ModuleFaults, FwdOutputBitStuck) {
  const FwdNetlist mod(CoreKind::kA);
  NetlistForward fw(mod);
  fw.set_fault(Fault{mod.outputs()[0], true});  // port0 bit0 SA1
  cpu::FwdIn in;
  in.port[0].rf = 0;
  in.port[0].sel = FwdSel::kRegFile;
  EXPECT_EQ(fw.eval(in).operand[0] & 1, 1u);
}

TEST(ModuleFaults, IcuPendingStuckLowNeverInterrupts) {
  const IcuNetlist mod(CoreKind::kC);
  NetlistIcu ni(mod);
  // Find the irq output (first entry) and force it low.
  ni.set_fault(Fault{mod.outputs()[0], false});
  cpu::IcuIn in;
  in.events = 0x1;
  in.mie = 0xf;
  EXPECT_FALSE(ni.eval(in).irq);
}

// ----------------------------------------------------------------------------
// Differential oracle: cone-restricted adapters vs. the full faulty netlist
// ----------------------------------------------------------------------------

/// Module-call inputs of a real fault-free make_fwd_test run on `core`.
struct ModuleTrace final : cpu::ModuleTap {
  std::vector<cpu::FwdIn> fwd;
  std::vector<cpu::HdcuIn> hdcu;
  void on_fwd(u64, const cpu::FwdIn& in, const cpu::FwdOut&) override {
    fwd.push_back(in);
  }
  void on_hdcu(u64, const cpu::HdcuIn& in, const cpu::HdcuOut&) override {
    hdcu.push_back(in);
  }
};

const ModuleTrace& fwd_test_trace(CoreKind kind) {
  static std::array<std::optional<ModuleTrace>, 3> cache;
  const unsigned core = static_cast<unsigned>(kind);
  if (!cache[core]) {
    const auto routine = core::make_fwd_test(/*with_perf_counters=*/false);
    const exp::Scenario sc{1, {0, 0, 0}, 0, 0, "oracle"};
    soc::Soc s = exp::scenario_factory(
        exp::build_scenario_tests(*routine, core::WrapperKind::kPlain, sc, core,
                                  false),
        sc, core)();
    s.reset();
    ModuleTrace& t = cache[core].emplace();
    s.core(core).hooks().tap = &t;
    while (!s.core(core).halted() && s.now() < 2'000'000) s.tick();
    EXPECT_TRUE(s.core(core).halted());
    s.core(core).hooks().tap = nullptr;
  }
  return *cache[core];
}

/// Any encodable FWD input: invalid selects 5-7, and on 32-bit cores
/// register and candidate values with high bits set and stray high_half.
cpu::FwdIn any_fwd_in(Rng& rng) {
  cpu::FwdIn in;
  for (auto& p : in.port) {
    p.rf = rng.next_u64();
    for (auto& c : p.cand) c = rng.next_u64();
    p.sel = static_cast<FwdSel>(rng.below(8));
    p.high_half = rng.chance(0.3);
  }
  return in;
}

/// Any encodable HDCU input under the CPU's one structural invariant
/// (writes => rd != 0): odd pair registers, is64 on 32-bit cores.
cpu::HdcuIn any_hdcu_in(Rng& rng) {
  cpu::HdcuIn in;
  for (auto& c : in.cons) {
    c.rs = static_cast<u8>(rng.below(32));
    c.used = rng.chance(0.8);
    c.is64 = rng.chance(0.3);
  }
  for (auto& p : in.prod) {
    p.rd = static_cast<u8>(rng.below(32));
    p.writes = rng.chance(0.7) && p.rd != 0;
    p.is64 = rng.chance(0.3);
    p.is_load = rng.chance(0.3);
  }
  return in;
}

/// Checks `Adapter` against the reference on every `stride`-th net's faults.
/// Each fault sees one batch of `lanes` patterns drawn round-robin from
/// `patterns`. The reference is the full faulty netlist: the fault injected
/// into all lanes, pattern j encoded into lane j, one Netlist::eval, and
/// decode(lane j).
template <class Adapter, class Module, class In>
void expect_adapter_matches_full_netlist(const Module& mod,
                                         const std::vector<In>& patterns,
                                         unsigned lanes, u32 stride) {
  const Netlist& nl = mod.nl();
  const std::size_t nbatches = (patterns.size() + lanes - 1) / lanes;
  std::vector<std::vector<u64>> packed(nbatches,
                                       std::vector<u64>(nl.num_inputs(), 0));
  EvalState one = nl.make_state();
  for (std::size_t k = 0; k < patterns.size(); ++k) {
    mod.encode(patterns[k], one);
    for (u32 i = 0; i < nl.num_inputs(); ++i)
      packed[k / lanes][i] |= (one.inputs[i] & 1) << (k % lanes);
  }

  Adapter adapter(mod);
  EvalState ref = nl.make_state();
  const std::vector<Fault> faults = nl.fault_list();
  std::size_t checked = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if ((fi / 2) % stride != 0) continue;
    const Fault& f = faults[fi];
    const std::size_t batch = (fi / 2 / stride) % nbatches;
    ref.inputs = packed[batch];
    Netlist::clear_faults(ref);
    Netlist::inject(ref, f, ~0ull);
    nl.eval(ref);
    adapter.set_fault(f);
    const std::size_t end = std::min(patterns.size(), (batch + 1) * lanes);
    for (std::size_t k = batch * lanes; k < end; ++k) {
      ASSERT_EQ(adapter.eval(patterns[k]), mod.decode(ref, k % lanes))
          << "fault net " << f.net << " sa" << f.stuck1 << " pattern " << k;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
  // No stale cone: the fault-free adapter is the behavioural model again.
  adapter.set_fault(std::nullopt);
  for (const In& in : patterns) ASSERT_EQ(adapter.eval(in), mod.behavioral(in));
}

TEST_P(PerCore, HdcuConeMatchesFullNetlistForEveryFault) {
  const HdcuNetlist mod(kind());
  Rng rng(0xC0DE + GetParam());
  std::vector<cpu::HdcuIn> patterns = fwd_test_trace(kind()).hdcu;
  for (int i = 0; i < 512; ++i) patterns.push_back(any_hdcu_in(rng));
  expect_adapter_matches_full_netlist<NetlistHazard>(mod, patterns, 64, 1);
  // Within the CPU's input domain the fault-free adapter is hdcu_behavioral.
  for (const cpu::HdcuIn& in : fwd_test_trace(kind()).hdcu)
    ASSERT_EQ(mod.behavioral(in), cpu::hdcu_behavioral(kind(), in));
}

TEST_P(PerCore, FwdConeMatchesFullNetlist) {
  const FwdNetlist mod(kind());
  Rng rng(0xF0D + GetParam());
  std::vector<cpu::FwdIn> patterns = fwd_test_trace(kind()).fwd;
  for (int i = 0; i < 512; ++i) patterns.push_back(any_fwd_in(rng));
  // Every fault on cores A and B, a stride over core C's larger netlist.
  const u32 stride = kind() == CoreKind::kC ? 3 : 1;
  expect_adapter_matches_full_netlist<NetlistForward>(mod, patterns, 64,
                                                      stride);
  for (const cpu::FwdIn& in : fwd_test_trace(kind()).fwd)
    ASSERT_EQ(mod.behavioral(in), cpu::fwd_behavioral(in));
}

TEST(ModuleStats, FaultListSizes) {
  // Not a functional check: documents the scale of the structural models and
  // guards against accidental collapse of the netlists.
  for (int k = 0; k < 3; ++k) {
    const auto kind = static_cast<CoreKind>(k);
    const FwdNetlist fwd(kind);
    const HdcuNetlist hdcu(kind);
    const IcuNetlist icu(kind);
    EXPECT_GT(fwd.nl().fault_list().size(), 1000u) << "fwd core " << k;
    EXPECT_GT(hdcu.nl().fault_list().size(), 400u) << "hdcu core " << k;
    EXPECT_GT(icu.nl().fault_list().size(), 80u) << "icu core " << k;
  }
  // Cores A and B: same function, different instantiation -> different lists.
  EXPECT_NE(FwdNetlist(CoreKind::kA).nl().fault_list().size(),
            FwdNetlist(CoreKind::kB).nl().fault_list().size());
}

}  // namespace
}  // namespace detstl::netlist
