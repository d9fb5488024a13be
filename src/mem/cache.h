#pragma once
// Core-private L1 cache: set-associative, LRU, write-back, configurable
// write-allocate / no-write-allocate (the paper's method prescribes a dummy
// load after each store when the cache is no-write-allocate, Sec. III
// step 1). Invalidate-all discards content including dirty lines — this is
// the initialisation step of the wrapper (Fig. 2b block b).
//
// The cache is a passive tag/data structure; the per-core MemSystem drives
// the miss/refill/writeback sequencing.
//
// Lines: one set search per access. find() and lookup() map an address to
// its resident Line, fill() returns the Line it installed and dirty_victim()
// the Line a refill would evict; callers then act on that Line (read, write,
// invalidate, data(), dirty(), set_of/way_of for tracing) instead of
// searching again by address. A Line reference never outlives the call that
// uses it: an injector may drop or refill the way between cycles, and a Soc
// copy must not carry pointers into the array it was copied from.
// Stats: lookup() counts a hit or a miss, fill() a refill and, when it
// evicts a dirty line, a writeback; nothing else counts. LRU: lookup(),
// write() and fill() touch the line; find(), read() and the injection points
// do not.

#include <array>
#include <cassert>
#include <vector>

#include "common/bitutil.h"
#include "mem/flash.h"

namespace detstl::mem {

/// One line of data, in the one format the cache array, the bus bursts and
/// the disturbance injector share: little-endian 32-bit words (line byte i
/// is byte i % 4 of word i / 4), sized for the widest line, one flash line.
/// A narrower line uses the leading line_bytes / 4 words; the cache keeps
/// the rest zero.
using LineWords = std::array<u32, kFlashLineBytes / 4>;

struct CacheConfig {
  u32 size_bytes = 4096;
  u32 ways = 2;
  u32 line_bytes = 32;

  u32 num_sets() const { return size_bytes / (ways * line_bytes); }
};

struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 refills = 0;  // lines installed via fill()
  u64 writebacks = 0;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  const CacheConfig& config() const { return cfg_; }
  CacheStats& stats() { return stats_; }
  const CacheStats& stats() const { return stats_; }

  /// One line of the array: read it here, change it only through Cache.
  class Line {
   public:
    bool dirty() const { return dirty_; }
    const LineWords& data() const { return data_; }

   private:
    friend class Cache;
    bool valid_ = false;
    bool dirty_ = false;
    u32 tag_ = 0;
    u32 lru_ = 0;  // higher = more recently used
    LineWords data_{};
  };

  /// `addr`'s resident line, or null. No side effects.
  const Line* find(u32 addr) const;
  Line* find(u32 addr);

  /// find() plus an LRU touch and a hit/miss count: the CPU-access probe.
  Line* lookup(u32 addr);

  /// Read `size` bytes at `addr` (within `line`).
  u32 read(const Line& line, u32 addr, unsigned size) const;

  /// Write `size` bytes at `addr` (within `line`), marking it dirty.
  void write(Line& line, u32 addr, u32 value, unsigned size);

  /// The LRU victim of `addr`'s set when it holds dirty data, else null.
  const Line* dirty_victim(u32 addr) const;

  /// Install the line containing `addr` with the leading line_bytes/4 words
  /// of `data` in the LRU victim way, chosen now, and return it.
  Line& fill(u32 addr, const LineWords& data);

  void invalidate_all();

  /// Number of valid lines (diagnostics).
  u32 valid_lines() const;

  /// Set index `addr` maps to (diagnostics / tracing).
  u32 set_of(u32 addr) const { return set_index(addr); }

  /// Set, way and base address of a line of this cache.
  u32 set_of(const Line& line) const { return index_of(line) / cfg_.ways; }
  u32 way_of(const Line& line) const { return index_of(line) % cfg_.ways; }
  u32 line_addr(const Line& line) const {
    return (line.tag_ * cfg_.num_sets() + set_of(line)) * cfg_.line_bytes;
  }

  // --- disturbance-injection points (runtime::DisturbanceInjector) -------------
  // These model external perturbations — snoop-style invalidations and
  // particle-strike soft errors — so none of them touch the LRU state or the
  // dirty flag: the cache cannot tell a corrupted line from a clean one,
  // which is exactly why the wrapper's signature check exists.

  /// Drop `line` (dirty content is lost, like invalidate_all).
  void invalidate(Line& line);

  /// Drop `addr`'s line if resident. Returns true when a line was discarded.
  bool invalidate_line(u32 addr);

  /// Toggle one bit of `addr`'s resident line (single-event upset).
  /// `bit` counts from the line base, modulo line_bytes*8. Returns false when
  /// the line is not resident.
  bool flip_bit(u32 addr, u32 bit);

  /// Force one bit of `addr`'s resident line to `value` (stuck-at defect in
  /// the data array). Returns false when the line is not resident.
  bool force_bit(u32 addr, u32 bit, bool value);

  /// Base addresses of every valid line, set-major then way order — a
  /// deterministic enumeration for seeded disturbance targeting.
  std::vector<u32> resident_lines() const;

 private:
  u32 set_index(u32 addr) const { return (addr / cfg_.line_bytes) % cfg_.num_sets(); }
  u32 tag_of(u32 addr) const { return addr / cfg_.line_bytes / cfg_.num_sets(); }
  u32 index_of(const Line& line) const { return static_cast<u32>(&line - lines_.data()); }
  u32 victim_way(u32 addr) const;
  void touch(Line& line);

  CacheConfig cfg_;
  std::vector<Line> lines_;  // [set * ways + way], data inline
  CacheStats stats_;
  u32 lru_clock_ = 0;
};

}  // namespace detstl::mem
