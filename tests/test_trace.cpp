// detscope observability regression tests: phase recognition, byte-exact
// stream serialisation, Chrome-trace JSON well-formedness, per-phase metrics
// attribution, the sink's checkpoint contract, and the two determinism
// audits (solo-vs-contended execution loop, campaign thread-count sweep).

#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/routines.h"
#include "core/stl.h"
#include "core/wrapper.h"
#include "exp/experiments.h"
#include "fault/campaign.h"
#include "soc/soc.h"
#include "trace/audit.h"
#include "trace/capture.h"
#include "trace/chrome_trace.h"
#include "trace/event.h"
#include "trace/metrics.h"
#include "trace/pipeline.h"
#include "trace/trace_io.h"
#include "trace/xval.h"

namespace detstl {
namespace {

// -----------------------------------------------------------------------------
// PhaseTracker
// -----------------------------------------------------------------------------

TEST(PhaseTracker, RecognisesCacheWrapperSequence) {
  trace::PhaseTracker t;
  EXPECT_FALSE(t.active());
  EXPECT_FALSE(t.observe_loop_counter(2));  // not inside a wrapper yet
  EXPECT_FALSE(t.observe_cache_op(0x4));    // enable bits only, no invalidate

  EXPECT_TRUE(t.observe_cache_op(0x3));
  EXPECT_TRUE(t.active());
  EXPECT_EQ(t.current(), trace::Phase::kInvalidate);
  EXPECT_FALSE(t.observe_cache_op(0x1));  // repeated invalidate: same phase

  EXPECT_TRUE(t.observe_loop_counter(2));
  EXPECT_EQ(t.current(), trace::Phase::kLoadingLoop);
  EXPECT_FALSE(t.observe_loop_counter(5));  // counter churn inside the loop

  EXPECT_TRUE(t.observe_loop_counter(1));
  EXPECT_EQ(t.current(), trace::Phase::kExecutionLoop);

  EXPECT_TRUE(t.observe_loop_counter(0));
  EXPECT_EQ(t.current(), trace::Phase::kSignatureCheck);
  EXPECT_FALSE(t.observe_loop_counter(0));

  t.reset();
  EXPECT_FALSE(t.active());
  // A plain/TCM wrapper never invalidates, so r30 writes must stay silent.
  EXPECT_FALSE(t.observe_loop_counter(1));
}

TEST(PhaseTracker, CacheCfgDisableEndsExecutionLoop) {
  trace::PhaseTracker t;
  EXPECT_FALSE(t.observe_cache_cfg(0));  // outside a wrapper: ignored
  EXPECT_TRUE(t.observe_cache_op(0x3));
  // Ablation builds with one loop iteration seed the counter straight to 1.
  EXPECT_TRUE(t.observe_loop_counter(1));
  EXPECT_EQ(t.current(), trace::Phase::kExecutionLoop);
  EXPECT_TRUE(t.observe_cache_cfg(0));
  EXPECT_EQ(t.current(), trace::Phase::kSignatureCheck);
  EXPECT_FALSE(t.observe_cache_cfg(0));
}

// -----------------------------------------------------------------------------
// Stream serialisation + capture
// -----------------------------------------------------------------------------

TEST(StreamSerialize, FieldWiseLittleEndian) {
  trace::Event e;
  e.cycle = 0x1122334455667788ull;
  e.kind = trace::EventKind::kCacheMiss;
  e.core = 2;
  e.unit = 1;
  e.flags = 0xa5;
  e.addr = 0xdeadbeef;
  e.a = 0x01020304;
  e.b = 0x0a0b0c0d;

  std::string s;
  trace::append_bytes(e, s);
  ASSERT_EQ(s.size(), 24u);
  const auto at = [&s](std::size_t i) {
    return static_cast<unsigned>(static_cast<unsigned char>(s[i]));
  };
  EXPECT_EQ(at(0), 0x88u);  // cycle, LSB first
  EXPECT_EQ(at(7), 0x11u);
  EXPECT_EQ(at(8), static_cast<unsigned>(trace::EventKind::kCacheMiss));
  EXPECT_EQ(at(9), 2u);     // core
  EXPECT_EQ(at(10), 1u);    // unit
  EXPECT_EQ(at(11), 0xa5u); // flags
  EXPECT_EQ(at(12), 0xefu); // addr, LSB first
  EXPECT_EQ(at(15), 0xdeu);
  EXPECT_EQ(at(16), 0x04u); // a
  EXPECT_EQ(at(20), 0x0du); // b
  EXPECT_EQ(at(23), 0x0au);

  EXPECT_EQ(trace::serialize({e, e}), s + s);
}

TEST(StreamCapture, FiltersByCore) {
  trace::StreamCapture all;
  trace::StreamCapture core1(1);
  for (const int c : {0, 1, 2, 1}) {
    trace::Event e;
    e.core = static_cast<u8>(c);
    all.on_event(e);
    core1.on_event(e);
  }
  EXPECT_EQ(all.events().size(), 4u);
  EXPECT_EQ(core1.events().size(), 2u);
  EXPECT_EQ(core1.events()[0].core, 1u);
  core1.clear();
  EXPECT_TRUE(core1.events().empty());
}

// -----------------------------------------------------------------------------
// PipelineDiagram windowed rendering
// -----------------------------------------------------------------------------

/// One kPipeStage event of core 0 (issue events carry the raw word).
trace::Event stage_event(u64 cycle, trace::PipeStage stage, u32 ordinal, u32 pc,
                         u32 word = 0) {
  return trace::Event{.cycle = cycle,
                      .kind = trace::EventKind::kPipeStage,
                      .core = 0,
                      .unit = static_cast<u8>(stage),
                      .addr = pc,
                      .a = ordinal,
                      .b = word};
}

TEST(PipelineDiagram, RenderWindowSelectsCycles) {
  trace::PipelineDiagram rec(0);
  EXPECT_EQ(rec.render(), "(empty trace)\n");

  using trace::PipeStage;
  const u32 add = isa::encode(isa::Instr{.op = isa::Op::kAdd, .rd = 1, .rs1 = 2, .rs2 = 3});
  const u32 sub = isa::encode(isa::Instr{.op = isa::Op::kSub, .rd = 4, .rs1 = 5, .rs2 = 6});
  rec.on_event(stage_event(2, PipeStage::kIssue, 0, 0x100, add));
  rec.on_event(stage_event(3, PipeStage::kEx, 0, 0x100));
  rec.on_event(stage_event(4, PipeStage::kMem, 0, 0x100));
  rec.on_event(stage_event(5, PipeStage::kWb, 0, 0x100));
  rec.on_event(stage_event(10, PipeStage::kIssue, 1, 0x104, sub));
  rec.on_event(stage_event(11, PipeStage::kEx, 1, 0x104));
  rec.on_event(stage_event(12, PipeStage::kMem, 1, 0x104));
  rec.on_event(stage_event(13, PipeStage::kWb, 1, 0x104));

  const std::string full = rec.render();
  EXPECT_NE(full.find("00000100"), std::string::npos);
  EXPECT_NE(full.find("00000104"), std::string::npos);
  EXPECT_NE(full.find("add    r1, r2, r3"), std::string::npos);

  // Early window: the second instruction issues past the window end.
  const std::string early = rec.render(0, 5);
  EXPECT_NE(early.find("00000100"), std::string::npos);
  EXPECT_EQ(early.find("00000104"), std::string::npos);

  const std::string late = rec.render(10, 13);
  EXPECT_NE(late.find("00000104"), std::string::npos);

  EXPECT_EQ(rec.render(20, 30), "(empty window)\n");
  EXPECT_EQ(rec.render(8, 6), "(empty window)\n");
}

// -----------------------------------------------------------------------------
// Traced quickstart scenario (shared by the metrics and JSON tests)
// -----------------------------------------------------------------------------

bool run_cached(unsigned cores, trace::EventSink* sink) {
  const auto routine = core::make_alu_test();
  std::vector<core::BuiltTest> tests;
  for (unsigned c = 0; c < cores; ++c) {
    core::BuildEnv env;
    env.core_id = c;
    env.kind = static_cast<isa::CoreKind>(c);
    env.code_base = mem::kFlashBase + 0x2000 + c * 0x40000;
    env.data_base = core::default_data_base(c);
    tests.push_back(
        core::build_wrapped(*routine, core::WrapperKind::kCacheBased, env));
  }
  soc::SocConfig cfg;
  cfg.start_delay = {0, 3, 7};
  soc::Soc soc(cfg);
  for (const auto& t : tests) {
    soc.load_program(t.prog);
    soc.set_boot(t.env.core_id, t.prog.entry());
  }
  for (unsigned c = cores; c < 3; ++c) soc.set_active(c, false);
  soc.set_trace_sink(sink);
  soc.reset();
  if (soc.run(10'000'000).timed_out) return false;
  bool ok = true;
  for (unsigned c = 0; c < cores; ++c) {
    const auto v = core::read_verdict(soc, soc::mailbox_addr(c));
    ok &= v.status == soc::kStatusPass && v.signature == tests[c].golden;
  }
  return ok;
}

TEST(Metrics, ExecutionLoopIsBusSilent) {
  trace::MetricsRegistry metrics;
  ASSERT_TRUE(run_cached(1, &metrics));

  const auto& exec = metrics.counters(0, trace::Phase::kExecutionLoop);
  EXPECT_GT(exec.events, 0u);
  EXPECT_EQ(exec.bus_submits, 0u);
  EXPECT_EQ(exec.icache_misses, 0u);
  EXPECT_EQ(exec.dcache_misses, 0u);
  EXPECT_EQ(exec.dcache_writebacks, 0u);

  // The loading loop is where the lines get pulled in.
  const auto& loading = metrics.counters(0, trace::Phase::kLoadingLoop);
  EXPECT_GT(loading.events, 0u);

  EXPECT_TRUE(metrics.violations().empty());
  EXPECT_GT(metrics.total_events(), 0u);
  EXPECT_EQ(metrics.campaign_events(), 0u);

  // render() must mention every phase bucket.
  const std::string r = metrics.render();
  EXPECT_NE(r.find(trace::phase_name(trace::Phase::kExecutionLoop)),
            std::string::npos);
}

// -----------------------------------------------------------------------------
// Chrome-trace JSON: parse it back, one monotone timeline per track
// -----------------------------------------------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  const Json* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

// Minimal strict JSON parser — enough to re-read what ChromeTraceWriter
// emits and fail loudly on malformed output.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(Json& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value(Json& out) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out.kind = Json::Kind::kString; return string(out.string);
      case 't': out.kind = Json::Kind::kBool; out.boolean = true; return literal("true");
      case 'f': out.kind = Json::Kind::kBool; out.boolean = false; return literal("false");
      case 'n': out.kind = Json::Kind::kNull; return literal("null");
      default: return number(out);
    }
  }

  bool object(Json& out) {
    out.kind = Json::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !string(key)) return false;
      skip_ws();
      if (!peek(':')) return false;
      skip_ws();
      Json v;
      if (!value(v)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (peek('}')) return true;
      if (!peek(',')) return false;
    }
  }

  bool array(Json& out) {
    out.kind = Json::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek(']')) return true;
    while (true) {
      skip_ws();
      Json v;
      if (!value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (peek(']')) return true;
      if (!peek(',')) return false;
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) return false;
            pos_ += 4;
            c = '?';  // code point itself is irrelevant to these tests
            break;
          default: return false;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number(Json& out) {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    out.number = std::strtod(start, &end);
    if (end == start) return false;
    out.kind = Json::Kind::kNumber;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(ChromeTrace, JsonParsesBackAndTimelinesAreMonotone) {
  trace::ChromeTraceWriter writer;
  ASSERT_TRUE(run_cached(2, &writer));
  ASSERT_GT(writer.size(), 0u);

  std::ostringstream os;
  writer.write(os);
  const std::string text = os.str();

  Json root;
  ASSERT_TRUE(JsonParser(text).parse(root)) << "trace JSON failed to parse";
  ASSERT_EQ(root.kind, Json::Kind::kObject);
  const Json* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Json::Kind::kArray);
  ASSERT_FALSE(events->array.empty());

  std::map<int, double> last_ts;
  std::set<int> named_tracks;
  for (const Json& ev : events->array) {
    ASSERT_EQ(ev.kind, Json::Kind::kObject);
    const Json* ph = ev.find("ph");
    const Json* tid = ev.find("tid");
    const Json* pid = ev.find("pid");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_EQ(ph->kind, Json::Kind::kString);
    const int track = static_cast<int>(tid->number);
    if (ph->string == "M") {
      named_tracks.insert(track);
      continue;
    }
    const Json* ts = ev.find("ts");
    ASSERT_NE(ts, nullptr);
    ASSERT_EQ(ts->kind, Json::Kind::kNumber);
    const auto it = last_ts.find(track);
    if (it != last_ts.end()) {
      EXPECT_GE(ts->number, it->second) << "non-monotone ts on track " << track;
    }
    last_ts[track] = ts->number;
  }
  // Both traced cores produced events, and every track that carries events
  // announced its name via thread_name metadata.
  EXPECT_GE(last_ts.size(), 2u);
  for (const auto& [track, ts] : last_ts) {
    (void)ts;
    EXPECT_TRUE(named_tracks.count(track)) << "unnamed track " << track;
  }
}

// Mission and soak events land on their own core's track with the same
// unit/addr/a/b args as the supervisor events.
TEST(ChromeTrace, MissionAndSoakEventsDrawOnTheirCoreTrack) {
  using trace::EventKind;
  trace::ChromeTraceWriter writer;
  writer.on_event({.cycle = 5, .kind = EventKind::kMissionSlice, .core = 1, .unit = 0,
                   .addr = 0x1000, .a = 2, .b = 3});
  writer.on_event({.cycle = 6, .kind = EventKind::kMissionCheck, .core = 2, .unit = 0,
                   .addr = 0, .a = 0xbeef, .b = 7});
  writer.on_event({.cycle = 7, .kind = EventKind::kSoakUpset, .core = 2, .unit = 1,
                   .addr = 0x20000040, .a = 9, .b = 4});
  std::ostringstream os;
  writer.write(os);
  Json root;
  ASSERT_TRUE(JsonParser(os.str()).parse(root)) << "trace JSON failed to parse";
  const Json* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);

  struct Want {
    const char* name;
    int tid;
    double unit, a, b;
    const char* addr;
  };
  const Want wants[] = {{"mission-slice", 1, 0, 2, 3, "0x00001000"},
                        {"mission-check", 2, 0, 0xbeef, 7, "0x00000000"},
                        {"soak-upset", 2, 1, 9, 4, "0x20000040"}};
  for (const Want& w : wants) {
    const Json* found = nullptr;
    for (const Json& ev : events->array) {
      const Json* name = ev.find("name");
      if (name != nullptr && name->string == w.name) found = &ev;
    }
    ASSERT_NE(found, nullptr) << w.name;
    EXPECT_EQ(found->find("tid")->number, w.tid) << w.name;
    const Json* args = found->find("args");
    ASSERT_NE(args, nullptr) << w.name;
    EXPECT_EQ(args->find("unit")->number, w.unit) << w.name;
    EXPECT_EQ(args->find("addr")->string, w.addr) << w.name;
    EXPECT_EQ(args->find("a")->number, w.a) << w.name;
    EXPECT_EQ(args->find("b")->number, w.b) << w.name;
  }
}

// Stage events are for the pipeline diagram and the audit: the Chrome trace
// and the per-phase metrics of a run must not change when they are present.
TEST(ChromeTrace, JsonAndMetricsIgnorePipeStageEvents) {
  trace::StreamCapture cap;
  ASSERT_TRUE(run_cached(3, &cap));
  std::vector<trace::Event> without;
  for (const trace::Event& e : cap.events())
    if (e.kind != trace::EventKind::kPipeStage) without.push_back(e);
  ASSERT_LT(without.size(), cap.events().size());

  const auto render = [](const std::vector<trace::Event>& events) {
    trace::ChromeTraceWriter writer;
    writer.set_include_hits(true);
    writer.set_include_beats(true);
    trace::MetricsRegistry metrics;
    for (const trace::Event& e : events) {
      writer.on_event(e);
      metrics.on_event(e);
    }
    std::ostringstream os;
    writer.write(os);
    // detscope run prints size() as the trace's event count.
    return std::to_string(writer.size()) + "\n" + os.str() + metrics.render();
  };
  EXPECT_EQ(render(cap.events()), render(without));
}

// -----------------------------------------------------------------------------
// Checkpoint contract of the sink pointer
// -----------------------------------------------------------------------------

TEST(SocTrace, SinkSurvivesResetAndFollowsCheckpointCopies) {
  trace::StreamCapture cap;
  soc::Soc soc;
  soc.set_trace_sink(&cap);
  EXPECT_EQ(soc.trace_sink(), &cap);
  EXPECT_EQ(soc.bus().trace_sink(), &cap);

  soc.reset();  // rebuilds the bus; the sink must be re-installed
  EXPECT_EQ(soc.bus().trace_sink(), &cap);

  soc::Soc copy = soc;  // checkpoint copy carries the pointer verbatim
  EXPECT_EQ(copy.trace_sink(), &cap);
  EXPECT_EQ(copy.bus().trace_sink(), &cap);

  copy.set_trace_sink(nullptr);  // the restorer's responsibility
  EXPECT_EQ(copy.trace_sink(), nullptr);
  EXPECT_EQ(copy.bus().trace_sink(), nullptr);
  EXPECT_EQ(soc.bus().trace_sink(), &cap);  // original untouched
}

// -----------------------------------------------------------------------------
// Determinism audits (the tier-1 check behind tools/detscope)
// -----------------------------------------------------------------------------

TEST(DeterminismAudit, AluCacheWrappedIsDeterministic) {
  const auto r = trace::audit_determinism(*core::make_alu_test());
  EXPECT_TRUE(r.passed()) << r.detail;
  EXPECT_GT(r.window_events_solo, 0u);
  EXPECT_EQ(r.window_events_solo, r.window_events_contended);
  // The neighbours really were hammering the bus while the window ran.
  EXPECT_GT(r.contended_neighbor_grants, 0u);
  // The compared window carries the graded core's pipeline timing: every
  // stage occupancy of the execution loop, not only its bus/cache events.
  std::set<unsigned> stages;
  for (const trace::Event& e : r.window) {
    if (e.kind != trace::EventKind::kPipeStage) continue;
    EXPECT_EQ(e.core, 0u);
    stages.insert(e.unit);
  }
  EXPECT_EQ(stages.size(), trace::kNumPipeStages);
}

TEST(DeterminismAudit, FwdPcCacheWrappedIsDeterministic) {
  const auto* e = core::find_routine("fwd-pc");
  ASSERT_NE(e, nullptr);
  const auto r = trace::audit_determinism(*e->make());
  EXPECT_TRUE(r.passed()) << r.detail;
}

// -----------------------------------------------------------------------------
// Campaign tracing + thread-count determinism
// -----------------------------------------------------------------------------

struct CampaignFixture {
  fault::CampaignConfig cc;
  fault::SocFactory factory;
};

CampaignFixture make_fwd_campaign(u32 stride) {
  const auto routine = core::make_fwd_test(/*with_perf_counters=*/false);
  exp::Scenario sc;
  sc.active_cores = 1;
  sc.label = "trace-campaign";
  auto tests = exp::build_scenario_tests(*routine, core::WrapperKind::kPlain, sc,
                                         /*graded=*/0, /*use_perf_counters=*/false);
  CampaignFixture f;
  f.cc.module = fault::Module::kFwd;
  f.cc.core_id = 0;
  f.cc.kind = isa::CoreKind::kA;
  f.cc.fault_stride = stride;
  f.factory = exp::scenario_factory(std::move(tests), sc, 0);
  return f;
}

TEST(CampaignTrace, LifecycleEventsWallClockAndThreads) {
  auto f = make_fwd_campaign(/*stride=*/16);
  trace::StreamCapture cap;
  f.cc.sink = &cap;
  f.cc.threads = 2;
  fault::Campaign campaign(f.cc, f.factory);
  const auto res = campaign.run();

  EXPECT_EQ(res.threads_used, 2u);
  EXPECT_GT(res.wall_seconds, 0.0);

  u64 fault_events = 0;
  bool done_seen = false;
  for (const auto& e : cap.events()) {
    if (e.kind == trace::EventKind::kCampaignFault) ++fault_events;
    if (e.kind == trace::EventKind::kCampaignDone) {
      done_seen = true;
      EXPECT_EQ(e.a, static_cast<u32>(res.detected));
      EXPECT_EQ(e.b, static_cast<u32>(res.simulated_faults));
    }
  }
  EXPECT_TRUE(done_seen);
  EXPECT_EQ(fault_events, res.simulated_faults);
}

TEST(CampaignAudit, ByteIdenticalAcrossThreadCounts) {
  auto f = make_fwd_campaign(/*stride=*/8);
  const auto r = trace::audit_campaign_determinism(f.cc, f.factory, {1, 2, 8});
  EXPECT_TRUE(r.passed()) << r.detail;
  EXPECT_GT(r.events, 0u);
  ASSERT_EQ(r.thread_counts.size(), 3u);
}

// ----------------------------------------------------------------------------
// Event-stream files (trace_io.h)
// ----------------------------------------------------------------------------

TEST(TraceIo, EventFileRoundTripsByteExactly) {
  std::vector<trace::Event> events;
  for (unsigned i = 0; i < 37; ++i) {
    trace::Event e;
    e.cycle = 1000 + i;
    e.kind = i % 2 ? trace::EventKind::kCacheMiss : trace::EventKind::kBusGrant;
    e.core = static_cast<u8>(i % 3);
    e.unit = static_cast<u8>(i % 2);
    e.flags = static_cast<u8>(i & 1);
    e.addr = 0x10002000 + i * 32;
    e.a = i;
    e.b = ~i;
    events.push_back(e);
  }
  const std::string path = ::testing::TempDir() + "roundtrip.dsev";
  ASSERT_TRUE(trace::write_events_file(path, events));
  const auto r = trace::read_events_file(path);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.events.size(), events.size());
  EXPECT_EQ(trace::serialize(r.events), trace::serialize(events));
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsGarbageAndTruncation) {
  const std::string path = ::testing::TempDir() + "garbage.dsev";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not an event file at all", f);
  std::fclose(f);
  EXPECT_FALSE(trace::read_events_file(path).ok);
  EXPECT_FALSE(trace::read_events_file(path + ".missing").ok);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------------------
// Static<->dynamic cross-validation (xval.h)
// ----------------------------------------------------------------------------

TEST(Xval, QuickstartRunMatchesStaticPrediction) {
  // Record the 1-core quickstart scenario in-process, then replay it against
  // the abstract interpreter: predicted exec miss set == observed (empty),
  // loading refills inside the may-footprint, bus waits within d_max.
  const auto routine = core::find_routine("alu")->make();
  const auto bt = core::build_wrapped(*routine, core::WrapperKind::kCacheBased,
                                      core::quickstart_env(0, true));
  soc::Soc soc;
  soc.load_program(bt.prog);
  soc.set_boot(0, bt.prog.entry());
  for (unsigned c = 1; c < 3; ++c) soc.set_active(c, false);
  trace::StreamCapture capture;
  soc.set_trace_sink(&capture);
  soc.reset();
  ASSERT_FALSE(soc.run(5'000'000).timed_out);

  trace::XvalOptions opt;
  opt.routine = "alu";
  opt.cores = 1;
  const auto r = trace::cross_validate(capture.events(), opt);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.passed()) << trace::format(r);
  ASSERT_EQ(r.cores.size(), 1u);
  EXPECT_TRUE(r.cores[0].statically_proven);
  EXPECT_EQ(r.cores[0].exec_misses, 0u);
  EXPECT_EQ(r.cores[0].unpredicted_refills, 0u);
  EXPECT_GT(r.cores[0].loading_refills, 0u);
  EXPECT_EQ(r.d_max, 44u);  // 1 core -> 3 requesters
}

TEST(Xval, ExecLoopMissRefutesThePrediction) {
  // Inject a synthetic execution-loop miss into an otherwise-passing trace:
  // the cross-validator must flag it (predicted miss set is empty).
  const auto routine = core::find_routine("alu")->make();
  const auto bt = core::build_wrapped(*routine, core::WrapperKind::kCacheBased,
                                      core::quickstart_env(0, true));
  soc::Soc soc;
  soc.load_program(bt.prog);
  soc.set_boot(0, bt.prog.entry());
  for (unsigned c = 1; c < 3; ++c) soc.set_active(c, false);
  trace::StreamCapture capture;
  soc.set_trace_sink(&capture);
  soc.reset();
  ASSERT_FALSE(soc.run(5'000'000).timed_out);

  std::vector<trace::Event> events = capture.events();
  // Place the fake miss right after the execution-loop phase marker.
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == trace::EventKind::kPhaseBegin &&
        static_cast<trace::Phase>(events[i].unit) ==
            trace::Phase::kExecutionLoop) {
      trace::Event miss;
      miss.cycle = events[i].cycle + 1;
      miss.kind = trace::EventKind::kCacheMiss;
      miss.core = 0;
      miss.unit = 1;
      miss.addr = 0x20008000;
      events.insert(events.begin() + static_cast<std::ptrdiff_t>(i) + 1, miss);
      break;
    }
  }

  trace::XvalOptions opt;
  opt.routine = "alu";
  opt.cores = 1;
  const auto r = trace::cross_validate(events, opt);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.passed());
  EXPECT_EQ(r.cores[0].exec_misses, 1u);
}

}  // namespace
}  // namespace detstl
