#include "mem/cache.h"

#include <algorithm>

namespace detstl::mem {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  assert(is_pow2(cfg.size_bytes) && is_pow2(cfg.ways) && is_pow2(cfg.line_bytes));
  assert(cfg.line_bytes >= 4 && cfg.line_bytes <= sizeof(LineWords));
  assert(cfg.num_sets() >= 1);
  lines_.resize(cfg.num_sets() * cfg.ways);
}

const Cache::Line* Cache::find(u32 addr) const {
  const u32 set = set_index(addr);
  const u32 tag = tag_of(addr);
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const Line& l = lines_[set * cfg_.ways + w];
    if (l.valid && l.tag == tag) return &l;
  }
  return nullptr;
}

Cache::Line* Cache::find(u32 addr) {
  return const_cast<Line*>(static_cast<const Cache*>(this)->find(addr));
}

void Cache::touch(Line& line) { line.lru = ++lru_clock_; }

bool Cache::lookup(u32 addr) {
  Line* l = find(addr);
  if (l != nullptr) {
    touch(*l);
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  return false;
}

bool Cache::probe(u32 addr) const { return find(addr) != nullptr; }

bool Cache::line_dirty(u32 addr) const {
  const Line* l = find(addr);
  return l != nullptr && l->dirty;
}

const LineWords& Cache::read_line(u32 addr) const {
  const Line* l = find(addr);
  assert(l != nullptr);
  return l->data;
}

// Byte lanes [off, off + size) of a line, as a window over the word at
// off / 4 and, for an access straddling two words (debug reads only; every
// CPU access is naturally aligned), the next one.
u32 Cache::read(u32 addr, unsigned size) const {
  const Line* l = find(addr);
  assert(l != nullptr && "read from non-resident line");
  const u32 off = addr % cfg_.line_bytes;
  assert(off + size <= cfg_.line_bytes);
  u64 window = l->data[off / 4];
  if (off % 4 + size > 4) window |= u64{l->data[off / 4 + 1]} << 32;
  return static_cast<u32>((window >> (8 * (off % 4))) & ((u64{1} << (8 * size)) - 1));
}

void Cache::write(u32 addr, u32 value, unsigned size) {
  Line* l = find(addr);
  assert(l != nullptr && "write to non-resident line");
  const u32 off = addr % cfg_.line_bytes;
  assert(off + size <= cfg_.line_bytes);
  const bool straddles = off % 4 + size > 4;
  const u32 shift = 8 * (off % 4);
  const u64 mask = ((u64{1} << (8 * size)) - 1) << shift;
  u64 window = l->data[off / 4] | (straddles ? u64{l->data[off / 4 + 1]} << 32 : 0);
  window = (window & ~mask) | ((u64{value} << shift) & mask);
  l->data[off / 4] = static_cast<u32>(window);
  if (straddles) l->data[off / 4 + 1] = static_cast<u32>(window >> 32);
  l->dirty = true;
  touch(*l);
}

u32 Cache::victim_way(u32 addr) const {
  const u32 set = set_index(addr);
  u32 best = 0;
  u32 best_lru = ~0u;
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const Line& l = lines_[set * cfg_.ways + w];
    if (!l.valid) return w;  // free way first
    if (l.lru < best_lru) {
      best_lru = l.lru;
      best = w;
    }
  }
  return best;
}

bool Cache::victim_dirty(u32 addr, u32& wb_addr, LineWords& data) const {
  const u32 set = set_index(addr);
  const Line& victim = lines_[set * cfg_.ways + victim_way(addr)];
  if (!victim.valid || !victim.dirty) return false;
  wb_addr = (victim.tag * cfg_.num_sets() + set) * cfg_.line_bytes;
  data = victim.data;
  return true;
}

void Cache::fill(u32 addr, const LineWords& data) {
  const u32 set = set_index(addr);
  Line& l = lines_[set * cfg_.ways + victim_way(addr)];
  if (l.valid && l.dirty) ++stats_.writebacks;
  ++stats_.refills;
  l.valid = true;
  l.dirty = false;
  l.tag = tag_of(addr);
  std::copy_n(data.begin(), cfg_.line_bytes / 4, l.data.begin());
  touch(l);
}

void Cache::invalidate_all() {
  for (auto& l : lines_) {
    l.valid = false;
    l.dirty = false;
    l.lru = 0;
  }
  lru_clock_ = 0;
}

u32 Cache::valid_lines() const {
  u32 n = 0;
  for (const auto& l : lines_)
    if (l.valid) ++n;
  return n;
}

bool Cache::invalidate_line(u32 addr) {
  Line* l = find(addr);
  if (l == nullptr) return false;
  l->valid = false;
  l->dirty = false;
  l->lru = 0;
  return true;
}

bool Cache::flip_bit(u32 addr, u32 bit) {
  Line* l = find(addr);
  if (l == nullptr) return false;
  bit %= cfg_.line_bytes * 8;
  l->data[bit / 32] ^= 1u << (bit % 32);
  return true;
}

bool Cache::force_bit(u32 addr, u32 bit, bool value) {
  Line* l = find(addr);
  if (l == nullptr) return false;
  bit %= cfg_.line_bytes * 8;
  const u32 mask = 1u << (bit % 32);
  if (value)
    l->data[bit / 32] |= mask;
  else
    l->data[bit / 32] &= ~mask;
  return true;
}

std::vector<u32> Cache::resident_lines() const {
  std::vector<u32> out;
  out.reserve(lines_.size());
  for (u32 set = 0; set < cfg_.num_sets(); ++set) {
    for (u32 w = 0; w < cfg_.ways; ++w) {
      const Line& l = lines_[set * cfg_.ways + w];
      if (l.valid) out.push_back((l.tag * cfg_.num_sets() + set) * cfg_.line_bytes);
    }
  }
  return out;
}

int Cache::way_of(u32 addr) const {
  const u32 set = set_index(addr);
  const u32 tag = tag_of(addr);
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const Line& l = lines_[set * cfg_.ways + w];
    if (l.valid && l.tag == tag) return static_cast<int>(w);
  }
  return -1;
}

}  // namespace detstl::mem
