// SoC-level properties: value-semantic checkpointing (the fault engine's
// foundation), start staggers, activity isolation, loaders and debug access.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/routines.h"
#include "core/stl.h"
#include "testutil.h"

// Heap allocations made by this binary, counted by a replacement of the
// global allocation functions (SocCheckpoint.CopyAllocatesPerBufferNotPerLine).
namespace {
std::atomic<unsigned long> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace detstl {
namespace {

using namespace isa;
using isa::Assembler;

isa::Program counting_program(u32 base, u32 sram_slot) {
  Assembler a(base);
  a.li(R10, sram_slot);
  a.addi(R1, R0, 0);
  a.li(R2, 500);
  a.label("loop");
  a.addi(R1, R1, 3);
  a.sw(R1, R10, 0);
  a.addi(R2, R2, -1);
  a.bne(R2, R0, "loop");
  a.halt();
  return a.assemble();
}

// ----------------------------------------------------------------------------
// Checkpoint copy semantics
// ----------------------------------------------------------------------------

TEST(SocCheckpoint, CopyIsBitExactContinuation) {
  // Run N cycles, snapshot, run both the original and the copy for M more
  // cycles: every piece of architectural state must match. This is the
  // invariant the fault campaign's checkpoint restore rests on.
  soc::Soc s;
  for (unsigned c = 0; c < 3; ++c) {
    const auto p = counting_program(mem::kFlashBase + 0x2000 + c * 0x10000,
                                    mem::kSramBase + 0x6000 + c * 64);
    s.load_program(p);
    s.set_boot(c, p.entry());
  }
  s.reset();
  for (int i = 0; i < 700; ++i) s.tick();

  soc::Soc copy = s;
  for (int i = 0; i < 900; ++i) {
    s.tick();
    copy.tick();
  }
  EXPECT_EQ(copy.now(), s.now());
  for (unsigned c = 0; c < 3; ++c) {
    for (unsigned r = 0; r < isa::kNumRegs; ++r)
      ASSERT_EQ(copy.core(c).reg(r), s.core(c).reg(r)) << "core " << c << " r" << r;
    EXPECT_EQ(copy.core(c).perf().cycles, s.core(c).perf().cycles);
    EXPECT_EQ(copy.core(c).perf().instret, s.core(c).perf().instret);
    EXPECT_EQ(copy.core(c).perf().if_stalls, s.core(c).perf().if_stalls);
    EXPECT_EQ(copy.core(c).halted(), s.core(c).halted());
  }
  for (u32 off = 0; off < 192; off += 4)
    ASSERT_EQ(copy.debug_read32(mem::kSramBase + 0x6000 + off),
              s.debug_read32(mem::kSramBase + 0x6000 + off));
}

// A snapshot copies a handful of buffers (SRAM, TCMs, the cache arrays, the
// fetch queues), never one per cache line: line data lives inline in the
// cache array, so doubling the caches adds bytes but no allocations.
TEST(SocCheckpoint, CopyAllocatesPerBufferNotPerLine) {
  const auto copy_allocs = [](u32 cache_scale) {
    soc::SocConfig cfg;
    cfg.mem.icache.size_bytes *= cache_scale;
    cfg.mem.dcache.size_bytes *= cache_scale;
    soc::Soc s(cfg);
    for (unsigned c = 0; c < 3; ++c) {
      Assembler a(mem::kFlashBase + 0x2000 + c * 0x10000);
      a.li(R1, isa::kCacheOpInvI | isa::kCacheOpInvD);
      a.csrw(Csr::kCacheOp, R1);
      a.li(R1, isa::kCacheCfgIEn | isa::kCacheCfgDEn | isa::kCacheCfgWriteAllocate);
      a.csrw(Csr::kCacheCfg, R1);
      a.li(R10, mem::kSramBase + 0x6000 + c * 64);
      a.li(R2, 500);
      a.label("loop");
      a.sw(R2, R10, 0);
      a.addi(R2, R2, -1);
      a.bne(R2, R0, "loop");
      a.halt();
      const auto p = a.assemble();
      s.load_program(p);
      s.set_boot(c, p.entry());
    }
    s.reset();
    for (int i = 0; i < 700; ++i) s.tick();
    EXPECT_GT(s.core(0).memsys().icache().valid_lines(), 0u);
    const unsigned long before = g_heap_allocs.load();
    const soc::Soc copy = s;
    const unsigned long allocs = g_heap_allocs.load() - before;
    EXPECT_EQ(copy.now(), s.now());
    return allocs;
  };
  const unsigned long base = copy_allocs(1);
  EXPECT_GT(base, 0u);  // the counter is live
  EXPECT_LE(base, 24u);
  EXPECT_EQ(copy_allocs(2), base);
}

TEST(SocCheckpoint, CopyDivergesIndependently) {
  soc::Soc s;
  const auto p = counting_program(mem::kFlashBase + 0x2000, mem::kSramBase + 0x6000);
  s.load_program(p);
  s.set_boot(0, p.entry());
  s.reset();
  for (int i = 0; i < 300; ++i) s.tick();
  soc::Soc copy = s;
  for (int i = 0; i < 400; ++i) s.tick();  // only the original advances
  EXPECT_GT(s.core(0).perf().cycles, copy.core(0).perf().cycles);
  // The copy continues from exactly where it was snapshot.
  const u64 before = copy.core(0).perf().cycles;
  copy.tick();
  EXPECT_EQ(copy.core(0).perf().cycles, before + 1);
}

// ----------------------------------------------------------------------------
// Determinism across identical runs
// ----------------------------------------------------------------------------

TEST(SocDeterminism, IdenticalRunsProduceIdenticalCycleCounts) {
  auto once = [] {
    soc::Soc s(soc::SocConfig{.start_delay = {0, 4, 9}});
    for (unsigned c = 0; c < 3; ++c) {
      const auto p = counting_program(mem::kFlashBase + 0x2000 + c * 0x10000,
                                      mem::kSramBase + 0x6000 + c * 64);
      s.load_program(p);
      s.set_boot(c, p.entry());
    }
    s.reset();
    s.run(1'000'000);
    return std::array<u64, 3>{s.core(0).perf().cycles, s.core(1).perf().cycles,
                              s.core(2).perf().cycles};
  };
  EXPECT_EQ(once(), once());
}

TEST(SocDeterminism, StaggerChangesTimingNotResults) {
  auto run_with = [](std::array<u32, 3> stagger) {
    soc::Soc s(soc::SocConfig{.start_delay = stagger});
    for (unsigned c = 0; c < 3; ++c) {
      const auto p = counting_program(mem::kFlashBase + 0x2000 + c * 0x10000,
                                      mem::kSramBase + 0x6000 + c * 64);
      s.load_program(p);
      s.set_boot(c, p.entry());
    }
    s.reset();
    s.run(1'000'000);
    return s;
  };
  auto s1 = run_with({0, 0, 0});
  auto s2 = run_with({3, 11, 6});
  for (unsigned c = 0; c < 3; ++c) {
    // Architectural results identical...
    EXPECT_EQ(s1.core(c).reg(1), s2.core(c).reg(1));
    EXPECT_EQ(s1.debug_read32(mem::kSramBase + 0x6000 + c * 64),
              s2.debug_read32(mem::kSramBase + 0x6000 + c * 64));
  }
  // ...but the contention timing differs for at least one core.
  bool timing_differs = false;
  for (unsigned c = 0; c < 3; ++c)
    timing_differs |= s1.core(c).perf().if_stalls != s2.core(c).perf().if_stalls;
  EXPECT_TRUE(timing_differs);
}

// ----------------------------------------------------------------------------
// Activity isolation
// ----------------------------------------------------------------------------

TEST(SocIsolation, InactiveCoresGenerateNoTraffic) {
  auto cycles_with = [](unsigned actives) {
    soc::Soc s;
    for (unsigned c = 0; c < actives; ++c) {
      const auto p = counting_program(mem::kFlashBase + 0x2000 + c * 0x10000,
                                      mem::kSramBase + 0x6000 + c * 64);
      s.load_program(p);
      s.set_boot(c, p.entry());
    }
    s.reset();
    s.run(1'000'000);
    return s.core(0).perf().cycles;
  };
  const u64 solo = cycles_with(1);
  const u64 trio = cycles_with(3);
  EXPECT_GT(trio, solo);  // contention slows core 0 down
}

TEST(SocIsolation, PrivateTcmsArePerCore) {
  soc::Soc s;
  for (unsigned c = 0; c < 2; ++c) {
    Assembler a(mem::kFlashBase + 0x2000 + c * 0x10000);
    a.li(R1, mem::kDtcmBase + 0x20);
    a.li(R2, 0x1000 + c);
    a.sw(R2, R1, 0);
    a.halt();
    const auto p = a.assemble();
    s.load_program(p);
    s.set_boot(c, p.entry());
  }
  s.reset();
  s.run(100000);
  EXPECT_EQ(s.debug_read32(0, mem::kDtcmBase + 0x20), 0x1000u);
  EXPECT_EQ(s.debug_read32(1, mem::kDtcmBase + 0x20), 0x1001u);
}

// ----------------------------------------------------------------------------
// Loader + debug access
// ----------------------------------------------------------------------------

TEST(SocLoader, SegmentsReachFlashAndSram) {
  Assembler a(mem::kFlashBase + 0x3000);
  a.word(0x11223344);
  a.org(mem::kSramBase + 0x500);
  a.word(0x55667788);
  soc::Soc s;
  s.load_program(a.assemble());
  EXPECT_EQ(s.debug_read32(mem::kFlashBase + 0x3000), 0x11223344u);
  EXPECT_EQ(s.debug_read32(mem::kSramBase + 0x500), 0x55667788u);
}

TEST(SocLoader, DebugReadSeesDirtyCacheLines) {
  // A store sitting dirty in a write-back D$ must be visible to the debug
  // view (the harness reads verdicts this way when caches stay enabled).
  Assembler a(mem::kFlashBase);
  a.li(R1, isa::kCacheOpInvD);
  a.csrw(Csr::kCacheOp, R1);
  a.li(R1, isa::kCacheCfgDEn | isa::kCacheCfgWriteAllocate);
  a.csrw(Csr::kCacheCfg, R1);
  a.li(R10, mem::kSramBase + 0x5000);
  a.li(R2, 0xfeedface);
  a.sw(R2, R10, 0);
  a.halt();
  auto s = test::run_single_core(a.assemble());
  EXPECT_EQ(s.sram().read32(mem::kSramBase + 0x5000), 0u);  // still dirty
  EXPECT_EQ(s.debug_read32(mem::kSramBase + 0x5000), 0xfeedfaceu);
}

}  // namespace
}  // namespace detstl
