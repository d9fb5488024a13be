#pragma once
// In-memory event capture and byte-exact stream serialisation — the raw
// material of the determinism audit (trace/audit.h): two captured streams
// are "the same execution" iff their serialised bytes are identical.

#include <string>
#include <vector>

#include "common/bytes.h"
#include "trace/event.h"

namespace detstl::trace {

/// Buffers every event, optionally restricted to one core (bus events are
/// attributed to core = requester / 3 at the emit site).
class StreamCapture final : public EventSink {
 public:
  StreamCapture() = default;
  explicit StreamCapture(u8 only_core) : only_core_(only_core), filter_(true) {}

  void on_event(const Event& e) override {
    if (filter_ && e.core != only_core_) return;
    events_.push_back(e);
  }

  const std::vector<Event>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
  u8 only_core_ = kNoCore;
  bool filter_ = false;
};

/// Field-wise little-endian serialisation (no struct padding leaks).
inline void append_bytes(const Event& e, std::string& out) {
  put64(out, e.cycle);
  put8(out, static_cast<u8>(e.kind));
  put8(out, e.core);
  put8(out, e.unit);
  put8(out, e.flags);
  put32(out, e.addr);
  put32(out, e.a);
  put32(out, e.b);
}

inline std::string serialize(const std::vector<Event>& events) {
  std::string out;
  out.reserve(events.size() * 24);
  for (const Event& e : events) append_bytes(e, out);
  return out;
}

}  // namespace detstl::trace
