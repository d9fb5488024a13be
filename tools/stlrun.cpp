// stlrun — fault-tolerant on-line STL supervisor driver.
//
// Runs seeded disturbance campaigns against the cache-wrapped self-test
// routines and prints the per-core recovery report. The report and the
// campaign outcome vector are deterministic for a fixed seed at any thread
// count; --verify-threads re-runs the campaign at several thread counts and
// fails (exit 1) unless the outcome vectors are byte-identical.
//
// With --checkpoint-dir the campaign journals completed runs into checksummed
// shards; SIGINT/SIGTERM drain cooperatively (finish in-flight runs, flush a
// final shard) and exit 3 = interrupted-but-resumable. --resume continues
// from the verified shards; the completed result is byte-identical to an
// uninterrupted run.
//
// Exit codes (tools/cli_util.h): 0 success, 1 determinism mismatch,
// 2 usage / setup error, 3 interrupted but resumable.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli_util.h"
#include "common/table.h"
#include "core/stl.h"
#include "perf/collect.h"
#include "perf/session.h"
#include "runtime/campaign.h"
#include "runtime/mission.h"
#include "runtime/soak.h"

namespace {

using namespace detstl;
using namespace detstl::runtime;

constexpr const char* kTool = "stlrun";

void usage(std::FILE* to) {
  std::fprintf(to,
      "usage: stlrun <command> [options]\n"
      "\n"
      "commands:\n"
      "  campaign     run a seeded disturbance campaign, print the recovery report\n"
      "  soak         run a rate-based SEU soak campaign with differential isolation\n"
      "  mission      interleave STL slices with mission workloads, check the\n"
      "               signatures and the stlint interference bound\n"
      "  list-kinds   list disturbance kinds and registered routines\n"
      "\n"
      "campaign options (plus the executor options below):\n"
      "  --seed N               master seed; REQUIRED and non-zero (exit 2 otherwise)\n"
      "  --runs N               supervised runs, 1..100000 (default 16)\n"
      "  --verify-threads LIST  run at each thread count in LIST (e.g. 1,2,8);\n"
      "                         exit 1 unless outcome vectors are byte-identical\n"
      "  --cores N              active cores, 1..3 (default 3)\n"
      "  --routine NAME         registry routine, repeatable (default built-in mix)\n"
      "  --events N             disturbances per run, 0..1000 (default 6)\n"
      "  --permanent PCT        chance of a permanent flash fault per run, 0..100\n"
      "  --stall N              bus-stall burst cycles, 1..100000 (default 150)\n"
      "  --margin PCT           watchdog interference margin, 0..10000 (default 250)\n"
      "  --attempts N           cached-rung attempts, 1..16 (default 3)\n"
      "  --fallback-attempts N  fallback-rung attempts, 0..16 (default 2)\n"
      "  --digest-only          print only the outcome digest line\n"
      "  --metrics-out FILE     write an stlperf JSON report of the run\n"
      "                         (src/perf/perf_report.h; host timings on stderr\n"
      "                         so stdout stays byte-stable across thread counts)\n"
      "\n"
      "soak options (plus --seed/--runs/--verify-threads/--cores/--routine/\n"
      "--margin/--digest-only/--metrics-out and the executor options):\n"
      "  --duration N           upset-arrival horizon in cycles, 0 = derived from\n"
      "                         the schedule calibration (default 0)\n"
      "  --rate-ram N           RAM upsets per million cycles (default 60)\n"
      "  --rate-l1i N           L1 I-cache upsets per million cycles (default 30)\n"
      "  --rate-l1d N           L1 D-cache upsets per million cycles (default 30)\n"
      "  --rate-pipe N          pipeline-latch upsets per million cycles (default 15)\n"
      "  --no-isolate           skip the differential bisection on diverged runs\n"
      "\n"
      "mission options:\n"
      "  --seed N               master seed; REQUIRED and non-zero (exit 2 otherwise)\n"
      "  --slices N             STL slices, 1..10000 (default 12)\n"
      "  --gap N                mission-only cycles between slices (default 2000)\n"
      "  --cores N              active cores, 1..3 (default 3)\n"
      "  --routine NAME         registry routine, repeatable (default built-in mix)\n"
      "  --margin PCT           per-slice watchdog margin (default 250)\n"
      "  exit 1 when any slice diverges from the golden signature or any\n"
      "  measured per-access bus wait exceeds the predicted d_max\n"
      "\n"
      "%s"
      "\n"
      "  --version                print suite + checkpoint schema version\n",
      cli::kExecutorUsage);
}

int cmd_list_kinds() {
  std::printf("disturbance kinds:\n");
  for (unsigned k = 0; k < kNumDisturbanceKinds; ++k)
    std::printf("  %s%s\n", disturbance_name(static_cast<DisturbanceKind>(k)),
                static_cast<DisturbanceKind>(k) == DisturbanceKind::kFlashCorrupt
                    ? " (permanent; drawn via --permanent)"
                    : "");
  std::printf("routines:\n");
  for (const core::RoutineEntry& e : core::routine_registry())
    std::printf("  %s\n", e.name);
  return 0;
}

/// Seeded campaigns refuse to run without an explicit non-zero master seed:
/// a zero/defaulted seed silently degrades every derived per-run seed into
/// the same splitmix stream, and "which seed produced this divergence?" is
/// the one question an in-field soak log must always answer.
bool require_seed(const char* cmd, bool seed_set, u64 seed) {
  if (seed_set && seed != 0) return true;
  std::fprintf(stderr, "%s: %s requires an explicit non-zero --seed\n", kTool, cmd);
  return false;
}

/// Command-line state of the journalled commands (campaign, soak) beyond
/// their spec.
struct JournalledOpts {
  std::vector<unsigned> verify_threads;
  bool digest_only = false;
  bool seed_set = false;
  std::string metrics_out;
};

/// The options campaign and soak share: the seed/runs/cores/routines/margin
/// fields both specs carry, the report options, and the executor group
/// (cli::ExecutorFlags). False = not a shared option.
template <typename Spec, typename Need>
bool parse_journalled(const std::string& a, Need& need, Spec& spec,
                      JournalledOpts& o, cli::ExecutorFlags& executor) {
  if (a == "--seed") {
    spec.seed = cli::require_u64(kTool, "--seed", need(), 0, ~0ull);
    o.seed_set = true;
  } else if (a == "--runs") {
    spec.runs = cli::require_unsigned(kTool, "--runs", need(), 1, 100'000);
  } else if (a == "--verify-threads") {
    o.verify_threads =
        cli::require_unsigned_list(kTool, "--verify-threads", need(), 1, 256);
  } else if (a == "--cores") {
    spec.cores = cli::require_unsigned(kTool, "--cores", need(), 1, 3);
  } else if (a == "--routine") {
    spec.routines.push_back(need());
  } else if (a == "--margin") {
    spec.supervisor.margin_percent =
        cli::require_unsigned(kTool, "--margin", need(), 0, 10'000);
  } else if (a == "--digest-only") {
    o.digest_only = true;
  } else if (a == "--metrics-out") {
    o.metrics_out = need();
  } else {
    return executor.parse(a, need);
  }
  return true;
}

/// Validate the shared options and arm the drain machinery (signal
/// handlers, --interrupt-after, --timeout). Returns an exit code on a usage
/// error, -1 to run.
int prepare_journalled(const char* cmd, const JournalledOpts& o, u64 seed,
                       const fault::ExecutorConfig& ex,
                       cli::ExecutorFlags& executor) {
  if (!require_seed(cmd, o.seed_set, seed)) return cli::kExitUsage;
  if (!o.verify_threads.empty()) {
    // The verify loop runs the same campaign several times: sharing one
    // journal across them would make every pass after the first a no-op,
    // and one report could not say which pass it measured.
    const char* other = ex.checkpoint.enabled()  ? "--checkpoint-dir"
                        : !o.metrics_out.empty() ? "--metrics-out"
                                                 : nullptr;
    if (other != nullptr) {
      std::fprintf(stderr, "%s: %s cannot be combined with --verify-threads\n",
                   kTool, other);
      return cli::kExitUsage;
    }
  }
  return executor.arm();
}

/// Checkpoint summary and interrupted exit of one journalled run, then its
/// report (or digest line) on stdout. Returns an exit code when the run was
/// drained, -1 when it completed.
template <typename Result, typename Render>
int print_journalled(const fault::ExecutorConfig& ex, const Result& res,
                     bool digest_only, Render render) {
  if (res.ckpt.enabled)
    std::fprintf(stderr,
                 "%s: checkpoint: %u shard(s) loaded, %llu run(s) resumed, "
                 "%u corrupt shard(s) quarantined, %u shard(s) flushed\n",
                 kTool, res.ckpt.shards_loaded,
                 static_cast<unsigned long long>(res.ckpt.records_resumed),
                 res.ckpt.shards_corrupt, res.ckpt.shards_flushed);
  if (res.ckpt.interrupted) {
    std::size_t completed = 0;  // resumed + finished this session
    for (const auto& r : res.records) completed += r.seed != 0 ? 1 : 0;
    if (ex.checkpoint.enabled())
      std::fprintf(stderr,
                   "%s: interrupted after %zu/%u run(s); resume with "
                   "--checkpoint-dir %s --resume\n",
                   kTool, completed, res.runs, ex.checkpoint.dir.c_str());
    else
      std::fprintf(stderr,
                   "%s: interrupted after %zu/%u run(s); add "
                   "--checkpoint-dir to make such runs resumable\n",
                   kTool, completed, res.runs);
    return cli::kExitInterrupted;
  }
  if (digest_only)
    std::printf("outcome digest: %s\n",
                TextTable::fmt_hex(res.digest()).c_str());
  else
    std::fputs(render(res).c_str(), stdout);
  return -1;
}

/// Determinism self-check: the same spec at each requested thread count
/// must produce byte-identical outcome vectors (and therefore reports).
template <typename Spec, typename Run, typename Render>
int verify_journalled(const Spec& spec, const JournalledOpts& o, Run run,
                      Render render) {
  std::vector<u8> reference;
  std::string reference_report;
  for (std::size_t t = 0; t < o.verify_threads.size(); ++t) {
    Spec s = spec;
    s.threads = o.verify_threads[t];
    const auto res = run(s);
    std::fprintf(stderr, "%s: threads=%u digest=%s (%.2fs)\n", kTool,
                 res.threads_used, TextTable::fmt_hex(res.digest()).c_str(),
                 res.wall_seconds);
    if (t == 0) {
      reference = res.outcome_vector();
      reference_report = render(res);
      continue;
    }
    if (res.outcome_vector() != reference || render(res) != reference_report) {
      std::fprintf(stderr,
                   "%s: DETERMINISM VIOLATION: threads=%u diverges from "
                   "threads=%u\n",
                   kTool, o.verify_threads[t], o.verify_threads[0]);
      return 1;
    }
  }
  const u64 digest = fault::fnv1a(reference.data(), reference.size());
  if (o.digest_only)  // digest of the verified reference vector
    std::printf("outcome digest: %s\n", TextTable::fmt_hex(digest).c_str());
  else
    std::fputs(reference_report.c_str(), stdout);
  std::string counts;
  for (std::size_t t = 0; t < o.verify_threads.size(); ++t)
    counts += (t == 0 ? "" : ",") + std::to_string(o.verify_threads[t]);
  std::printf("determinism: outcome vector byte-identical across threads {%s}\n",
              counts.c_str());
  return 0;
}

/// One journalled command after its options are parsed: the shared option
/// checks (prepare_journalled), then the verify loop, or one run with its
/// report on stdout, host timings on stderr (the stdout
/// report is diffed across thread counts and straight-vs-resumed runs by
/// the CI drills) and, with --metrics-out, an stlperf report named
/// `stlrun-<cmd>`; `describe(session, result)` mixes the config hash and
/// adds the command's own series.
template <typename Spec, typename Run, typename Render, typename Describe>
int run_journalled(const char* cmd, const Spec& spec, const JournalledOpts& o,
                   cli::ExecutorFlags& executor, Run run, Render render,
                   Describe describe) {
  if (const int rc = prepare_journalled(cmd, o, spec.seed, spec, executor);
      rc >= 0)
    return rc;
  if (!o.verify_threads.empty())
    return verify_journalled(spec, o, run, render);

  perf::Session session(std::string(kTool) + "-" + cmd);
  const auto res = run(spec);
  if (const int rc = print_journalled(spec, res, o.digest_only, render);
      rc >= 0)
    return rc;
  session.mark_phase(cmd);
  describe(session, res);
  const perf::PerfReport rep = session.report();
  std::fprintf(stderr,
               "%s: %u %s run(s) on %u thread(s) in %.2fs | %.1f Mcycles "
               "simulated, %.2f sim-MHz, peak RSS %ld KiB\n",
               kTool, res.runs, cmd, res.threads_used, res.wall_seconds,
               static_cast<double>(rep.sim_cycles) / 1e6, rep.sim_mhz(),
               rep.peak_rss_kb);
  return session.finish(o.metrics_out, cli::kExitSuccess);
}

/// Config-hash fields both journalled specs share, in the campaign report's
/// historical order.
template <typename Spec>
void hash_journalled(ConfigHasher& h, const Spec& spec) {
  h.u64v(spec.seed).u32v(spec.runs).u32v(spec.cores);
  for (const auto& r : spec.routines) h.str(r);
}

int cmd_campaign(int argc, char** argv) {
  CampaignSpec spec;
  JournalledOpts o;
  cli::ExecutorFlags executor(kTool, spec);

  const auto parse = [&](const std::string& a, auto& need) {
    if (a == "--events") {
      spec.disturb.count =
          cli::require_unsigned(kTool, "--events", need(), 0, 1'000);
    } else if (a == "--permanent") {
      spec.disturb.permanent_chance =
          cli::require_unsigned(kTool, "--permanent", need(), 0, 100) / 100.0;
    } else if (a == "--stall") {
      spec.disturb.stall_cycles =
          cli::require_unsigned(kTool, "--stall", need(), 1, 100'000);
    } else if (a == "--attempts") {
      spec.supervisor.max_attempts =
          cli::require_unsigned(kTool, "--attempts", need(), 1, 16);
    } else if (a == "--fallback-attempts") {
      spec.supervisor.fallback_attempts =
          cli::require_unsigned(kTool, "--fallback-attempts", need(), 0, 16);
    } else {
      return parse_journalled(a, need, spec, o, executor);
    }
    return true;
  };
  if (const int rc = cli::parse_args(kTool, usage, argc, argv, parse); rc >= 0)
    return rc;
  return run_journalled(
      "campaign", spec, o, executor,
      [](const CampaignSpec& s) { return run_disturbance_campaign(s); },
      render_recovery_report,
      [&](perf::Session& session, const CampaignResult& res) {
        ConfigHasher& h = session.config();
        hash_journalled(h, spec);
        h.u32v(spec.disturb.count);
        h.f64v(spec.disturb.permanent_chance);
        h.u32v(spec.disturb.stall_cycles);
        h.u32v(spec.supervisor.margin_percent);
        h.u32v(spec.supervisor.max_attempts);
        h.u32v(spec.supervisor.fallback_attempts);
        perf::collect_disturbance_result(session.metrics(), res, "");
      });
}

int cmd_soak(int argc, char** argv) {
  SoakCampaignSpec spec;
  JournalledOpts o;
  cli::ExecutorFlags executor(kTool, spec);

  const auto parse = [&](const std::string& a, auto& need) {
    if (a == "--duration") {
      spec.soak.duration = cli::require_u64(kTool, "--duration", need(), 0, 1'000'000'000);
    } else if (a == "--rate-ram") {
      spec.soak.rates.ram = cli::require_unsigned(kTool, "--rate-ram", need(), 0, 1'000'000);
    } else if (a == "--rate-l1i") {
      spec.soak.rates.l1i = cli::require_unsigned(kTool, "--rate-l1i", need(), 0, 1'000'000);
    } else if (a == "--rate-l1d") {
      spec.soak.rates.l1d = cli::require_unsigned(kTool, "--rate-l1d", need(), 0, 1'000'000);
    } else if (a == "--rate-pipe") {
      spec.soak.rates.pipeline =
          cli::require_unsigned(kTool, "--rate-pipe", need(), 0, 1'000'000);
    } else if (a == "--no-isolate") {
      spec.isolate = false;
    } else {
      return parse_journalled(a, need, spec, o, executor);
    }
    return true;
  };
  if (const int rc = cli::parse_args(kTool, usage, argc, argv, parse); rc >= 0)
    return rc;
  return run_journalled(
      "soak", spec, o, executor, run_soak_campaign, render_soak_report,
      [&](perf::Session& session, const SoakCampaignResult&) {
        ConfigHasher& h = session.config();
        hash_journalled(h, spec);
        h.u64v(spec.soak.duration);
        h.u32v(spec.soak.rates.ram).u32v(spec.soak.rates.l1i);
        h.u32v(spec.soak.rates.l1d).u32v(spec.soak.rates.pipeline);
        h.u8v(spec.isolate ? 1 : 0);
        h.u32v(spec.supervisor.margin_percent);
      });
}

int cmd_mission(int argc, char** argv) {
  MissionSpec spec;
  bool seed_set = false;

  const auto parse = [&](const std::string& a, auto& need) {
    if (a == "--seed") {
      spec.seed = cli::require_u64(kTool, "--seed", need(), 0, ~0ull);
      seed_set = true;
    } else if (a == "--slices") {
      spec.slices = cli::require_unsigned(kTool, "--slices", need(), 1, 10'000);
    } else if (a == "--gap") {
      spec.gap_cycles = cli::require_u64(kTool, "--gap", need(), 0, 10'000'000);
    } else if (a == "--cores") {
      spec.cores = cli::require_unsigned(kTool, "--cores", need(), 1, 3);
    } else if (a == "--routine") {
      spec.routines.push_back(need());
    } else if (a == "--margin") {
      spec.supervisor.margin_percent =
          cli::require_unsigned(kTool, "--margin", need(), 0, 10'000);
    } else {
      return false;
    }
    return true;
  };
  if (const int rc = cli::parse_args(kTool, usage, argc, argv, parse); rc >= 0)
    return rc;

  if (!require_seed("mission", seed_set, spec.seed)) return cli::kExitUsage;
  const MissionResult res = run_mission(spec);
  std::fputs(render_mission_report(res).c_str(), stdout);
  // Mission mode is a pass/fail check of the paper's two in-field claims:
  // any divergence or bound violation fails the invocation.
  return res.divergences() == 0 && res.bound_violations() == 0 ? cli::kExitSuccess
                                                               : cli::kExitFailure;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "campaign") return cmd_campaign(argc - 2, argv + 2);
    if (cmd == "soak") return cmd_soak(argc - 2, argv + 2);
    if (cmd == "mission") return cmd_mission(argc - 2, argv + 2);
    if (cmd == "list-kinds") return cmd_list_kinds();
    if (cmd == "--version") {
      cli::print_version(kTool);
      return 0;
    }
    if (cmd == "--help" || cmd == "-h") {
      usage(stdout);
      return 0;
    }
  } catch (const fault::CheckpointMismatch& e) {
    std::fprintf(stderr, "%s: checkpoint rejected: %s\n", kTool, e.what());
    return cli::kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", kTool, e.what());
    return cli::kExitUsage;
  }
  std::fprintf(stderr, "%s: unknown command '%s'\n", kTool, cmd.c_str());
  usage(stderr);
  return 2;
}
