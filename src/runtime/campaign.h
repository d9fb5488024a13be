#pragma once
// Disturbance campaign: many seeded supervisor runs, one journalled unit per
// run on the shared unit kernel (fault/units.h). Determinism contract (same
// as the fault campaign's): the outcome vector — the concatenation of every
// run's SupervisorResult::outcome_vector() — is byte-identical for a fixed
// seed at ANY thread count. Per-run results are written by run index into a
// pre-sized vector and every aggregate is derived from that vector after the
// join, so scheduling order can never leak into the output.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "fault/units.h"
#include "runtime/supervisor.h"

namespace detstl::runtime {

/// Executor fields come from fault::ExecutorConfig (fault/units.h); units
/// are run indices. The `sink` carries checkpoint telemetry only — the
/// supervised runs never trace there.
struct CampaignSpec : fault::ExecutorConfig {
  u64 seed = 0xD15B0001;
  unsigned runs = 16;
  unsigned cores = 3;
  /// Registry routine names (core/stl.h); empty = a default mix of the
  /// built-in routines. The overload taking routine pointers ignores this.
  std::vector<std::string> routines;
  SupervisorConfig supervisor{};
  DisturbanceSpec disturb{};  // window_hi 0 = derived from the calibration
};

struct RunRecord {
  u64 seed = 0;
  SupervisorResult result;
};

/// Result of a journalled runtime campaign (disturbance, soak).
template <typename Record>
struct RunCampaignResult {
  unsigned runs = 0;
  unsigned cores = 0;
  unsigned threads_used = 0;
  u64 seed = 0;
  std::vector<std::string> routine_names;
  std::vector<Record> records;  // indexed by run
  double wall_seconds = 0.0;    // excluded from the determinism contract
  /// Checkpoint/resume bookkeeping; excluded from the determinism contract.
  fault::CheckpointStats ckpt;

  /// Concatenated canonical run results (byte-identical across thread
  /// counts); specialised per record type.
  std::vector<u8> outcome_vector() const;
  /// FNV-1a 64 of outcome_vector().
  u64 digest() const {
    const std::vector<u8> v = outcome_vector();
    return fault::fnv1a(v.data(), v.size());
  }
};

using CampaignResult = RunCampaignResult<RunRecord>;
template <>
std::vector<u8> CampaignResult::outcome_vector() const;

/// Full round-trip serialisation of one run record (seed + every
/// SupervisorResult field, including routine names) — the shard payload of a
/// disturbance-campaign checkpoint. Unlike outcome_vector() this is
/// loss-less: deserialising reproduces the record exactly.
std::vector<u8> serialize_run_record(const RunRecord& rec);

/// Inverse of serialize_run_record. Returns false (leaving `out`
/// unspecified) on any framing error — the campaign then re-executes that
/// run instead of trusting a half-parsed record.
bool deserialize_run_record(const std::vector<u8>& bytes, RunRecord& out);

/// The hash a disturbance-campaign checkpoint manifest binds to: seed, run
/// count, cores, routine names, the full supervisor and disturbance configs,
/// and the schedule plan's SoC image fingerprint. Deliberately EXCLUDES
/// threads, checkpoint, interrupt and sink.
u64 checkpoint_config_hash(const CampaignSpec& spec, const SchedulePlan& plan);

/// Head shared by the disturbance and soak manifest hashes: schema version,
/// payload kind, seed, run count, cores, the resolved schedule and the
/// supervisor config. Each engine appends its own knobs and the SoC image
/// fingerprint.
ConfigHasher schedule_config_hasher(fault::PayloadKind kind, u64 seed,
                                           unsigned runs, unsigned cores,
                                           const SchedulePlan& plan,
                                           const SupervisorConfig& sup);

/// Per-run seed: splitmix64-style mix of the master seed and the run index,
/// so runs are decorrelated but reproducible individually.
u64 derive_run_seed(u64 master, unsigned run);

/// The executor both runtime campaigns share: spec.runs supervised runs as
/// journalled units (fault/units.h), written into res.records by run index.
/// A journalled record is accepted iff it decodes loss-lessly and carries
/// the derived seed of its run; anything else runs again. `run(seed)`
/// executes one run. `who` prefixes error messages.
template <typename Spec, typename Record, typename Run>
void run_journalled(const Spec& spec, fault::PayloadKind kind,
                    std::function<u64()> config_hash,
                    std::vector<u8> (*encode)(const Record&),
                    bool (*decode)(const std::vector<u8>&, Record&), Run run,
                    const char* who, RunCampaignResult<Record>& res) {
  res.runs = spec.runs;
  res.cores = spec.cores;
  res.seed = spec.seed;
  res.records.resize(spec.runs);
  const auto seed_of = [&spec](u64 i) {
    return derive_run_seed(spec.seed, static_cast<unsigned>(i));
  };
  fault::UnitKernel kernel(
      spec,
      fault::UnitJournal{
          .units = spec.runs,
          .kind = kind,
          .config_hash = std::move(config_hash),
          .decode =
              [&](u64 i, const std::vector<u8>& payload) {
                Record rec;
                if (!decode(payload, rec) || rec.seed != seed_of(i))
                  return false;
                res.records[i] = std::move(rec);
                return true;
              },
          .encode = [&](u64 i) { return encode(res.records[i]); },
      },
      who);
  res.threads_used = std::min(kernel.threads(), std::max(1u, spec.runs));
  res.ckpt = kernel.run(1, [&](u64 i) { res.records[i] = run(seed_of(i)); });
}

CampaignResult run_disturbance_campaign(
    const CampaignSpec& spec,
    const std::vector<const core::SelfTestRoutine*>& routines);

/// Convenience overload resolving spec.routines from the registry; throws
/// std::runtime_error on an unknown name.
CampaignResult run_disturbance_campaign(const CampaignSpec& spec);

/// Deterministic per-core recovery report (no wall-clock, no thread count —
/// safe to diff across thread counts).
std::string render_recovery_report(const CampaignResult& r);

}  // namespace detstl::runtime
