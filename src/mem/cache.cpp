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
    if (l.valid_ && l.tag_ == tag) return &l;
  }
  return nullptr;
}

Cache::Line* Cache::find(u32 addr) {
  return const_cast<Line*>(static_cast<const Cache*>(this)->find(addr));
}

void Cache::touch(Line& line) { line.lru_ = ++lru_clock_; }

Cache::Line* Cache::lookup(u32 addr) {
  Line* l = find(addr);
  if (l != nullptr) {
    touch(*l);
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return l;
}

// Byte lanes [off, off + size) of a line, as a window over the word at
// off / 4 and, for an access straddling two words (debug reads only; every
// CPU access is naturally aligned), the next one.
u32 Cache::read(const Line& line, u32 addr, unsigned size) const {
  assert(line.valid_ && "read from an invalid line");
  const u32 off = addr % cfg_.line_bytes;
  assert(off + size <= cfg_.line_bytes);
  u64 window = line.data_[off / 4];
  if (off % 4 + size > 4) window |= u64{line.data_[off / 4 + 1]} << 32;
  return static_cast<u32>((window >> (8 * (off % 4))) & ((u64{1} << (8 * size)) - 1));
}

void Cache::write(Line& line, u32 addr, u32 value, unsigned size) {
  assert(line.valid_ && "write to an invalid line");
  const u32 off = addr % cfg_.line_bytes;
  assert(off + size <= cfg_.line_bytes);
  const bool straddles = off % 4 + size > 4;
  const u32 shift = 8 * (off % 4);
  const u64 mask = ((u64{1} << (8 * size)) - 1) << shift;
  u64 window = line.data_[off / 4] | (straddles ? u64{line.data_[off / 4 + 1]} << 32 : 0);
  window = (window & ~mask) | ((u64{value} << shift) & mask);
  line.data_[off / 4] = static_cast<u32>(window);
  if (straddles) line.data_[off / 4 + 1] = static_cast<u32>(window >> 32);
  line.dirty_ = true;
  touch(line);
}

u32 Cache::victim_way(u32 addr) const {
  const u32 set = set_index(addr);
  u32 best = 0;
  u32 best_lru = ~0u;
  for (u32 w = 0; w < cfg_.ways; ++w) {
    const Line& l = lines_[set * cfg_.ways + w];
    if (!l.valid_) return w;  // free way first
    if (l.lru_ < best_lru) {
      best_lru = l.lru_;
      best = w;
    }
  }
  return best;
}

const Cache::Line* Cache::dirty_victim(u32 addr) const {
  const Line& victim = lines_[set_index(addr) * cfg_.ways + victim_way(addr)];
  return victim.valid_ && victim.dirty_ ? &victim : nullptr;
}

Cache::Line& Cache::fill(u32 addr, const LineWords& data) {
  Line& l = lines_[set_index(addr) * cfg_.ways + victim_way(addr)];
  if (l.valid_ && l.dirty_) ++stats_.writebacks;
  ++stats_.refills;
  l.valid_ = true;
  l.dirty_ = false;
  l.tag_ = tag_of(addr);
  std::copy_n(data.begin(), cfg_.line_bytes / 4, l.data_.begin());
  touch(l);
  return l;
}

void Cache::invalidate_all() {
  for (auto& l : lines_) {
    l.valid_ = false;
    l.dirty_ = false;
    l.lru_ = 0;
  }
  lru_clock_ = 0;
}

u32 Cache::valid_lines() const {
  u32 n = 0;
  for (const auto& l : lines_)
    if (l.valid_) ++n;
  return n;
}

void Cache::invalidate(Line& line) {
  line.valid_ = false;
  line.dirty_ = false;
  line.lru_ = 0;
}

bool Cache::invalidate_line(u32 addr) {
  Line* l = find(addr);
  if (l == nullptr) return false;
  invalidate(*l);
  return true;
}

bool Cache::flip_bit(u32 addr, u32 bit) {
  Line* l = find(addr);
  if (l == nullptr) return false;
  bit %= cfg_.line_bytes * 8;
  l->data_[bit / 32] ^= 1u << (bit % 32);
  return true;
}

bool Cache::force_bit(u32 addr, u32 bit, bool value) {
  Line* l = find(addr);
  if (l == nullptr) return false;
  bit %= cfg_.line_bytes * 8;
  const u32 mask = 1u << (bit % 32);
  if (value)
    l->data_[bit / 32] |= mask;
  else
    l->data_[bit / 32] &= ~mask;
  return true;
}

std::vector<u32> Cache::resident_lines() const {
  std::vector<u32> out;
  out.reserve(lines_.size());
  for (const Line& l : lines_)
    if (l.valid_) out.push_back(line_addr(l));
  return out;
}

}  // namespace detstl::mem
