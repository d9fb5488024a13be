#include "trace/trace_io.h"

#include <cstdio>
#include <cstring>

#include "common/bytes.h"

namespace detstl::trace {

namespace {

constexpr char kMagic[4] = {'D', 'S', 'E', 'V'};
constexpr std::size_t kRecordBytes = 24;

}  // namespace

bool write_events_file(const std::string& path,
                       const std::vector<Event>& events) {
  std::string blob;
  blob.reserve(16 + events.size() * kRecordBytes);
  blob.append(kMagic, sizeof kMagic);
  put32(blob, kEventFileVersion);
  put64(blob, events.size());
  blob += serialize(events);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  return std::fclose(f) == 0 && ok;
}

EventFileResult read_events_file(const std::string& path) {
  EventFileResult r;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    r.error = "cannot open " + path;
    return r;
  }
  std::string blob;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) blob.append(buf, n);
  std::fclose(f);

  if (blob.size() < 16 || std::memcmp(blob.data(), kMagic, sizeof kMagic) != 0) {
    r.error = path + ": not a DSEV event file";
    return r;
  }
  const auto* p = reinterpret_cast<const u8*>(blob.data());
  const u32 version = load32(p + 4);
  if (version != kEventFileVersion) {
    r.error = path + ": unsupported event-file version " +
              std::to_string(version);
    return r;
  }
  const u64 count = load64(p + 8);
  if (blob.size() != 16 + count * kRecordBytes) {
    r.error = path + ": truncated (" + std::to_string(blob.size()) +
              " bytes for " + std::to_string(count) + " records)";
    return r;
  }
  r.events.reserve(static_cast<std::size_t>(count));
  for (u64 i = 0; i < count; ++i) {
    const u8* rec = p + 16 + i * kRecordBytes;
    Event e;
    e.cycle = load64(rec);
    e.kind = static_cast<EventKind>(rec[8]);
    e.core = rec[9];
    e.unit = rec[10];
    e.flags = rec[11];
    e.addr = load32(rec + 12);
    e.a = load32(rec + 16);
    e.b = load32(rec + 20);
    r.events.push_back(e);
  }
  r.ok = true;
  return r;
}

}  // namespace detstl::trace
