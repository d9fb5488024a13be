#pragma once
// The journalled unit kernel: the one executor behind every campaign that
// must come out byte-identical at any thread count, across kill/resume and
// after an stlserve shard merge — fault detection (fault/campaign.h), the
// disturbance campaign (runtime/campaign.h) and the soak campaign
// (runtime/soak.h).
//
// An engine supplies its unit count, PayloadKind, config hash and record
// codec (UnitJournal) and a pure run_one(i) that fills its pre-sized slot i.
// The kernel alone decides which units are done before any runs (resumed
// from `checkpoint`, merged from `merge_dirs`, or outside the shard range),
// journals each finished unit, and pools, feeds and drains the workers.
// Aggregates are the engine's business, derived from its slots after run()
// joins, so scheduling order never leaks into a result.

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fault/checkpoint.h"

namespace detstl::fault {

/// Executor fields shared by every journalled campaign spec
/// (fault::CampaignConfig, runtime::CampaignSpec, runtime::SoakCampaignSpec).
/// None of them can change an outcome, so none enters a config hash: a
/// campaign may resume on another thread count, and every shard of a
/// partitioned campaign shares one manifest identity — which is what lets
/// src/serve/ reassign a dead worker's subdir and merge all subdirs back.
struct ExecutorConfig {
  /// Worker threads; 0 = one per hardware thread, 1 = serial on the calling
  /// thread (no thread is spawned). Any value yields the same result.
  unsigned threads = 0;
  /// Crash-safe journal (fault/checkpoint.h): finished units are persisted
  /// into checksummed shards every `checkpoint.interval` units; with
  /// `checkpoint.resume` the verified shards are loaded first and only the
  /// remainder runs. Straight and resumed runs are byte-identical.
  CheckpointConfig checkpoint;
  /// Cooperative drain request; workers finish in-flight units, a final
  /// shard is flushed and the result is partial with ckpt.interrupted set.
  /// Null = never interrupted.
  InterruptToken* interrupt = nullptr;
  /// detscope sink (non-owning; null = off). The kernel emits the journal's
  /// kCkptFlush/kCkptLoad/kCkptReject telemetry here; each engine documents
  /// what else it emits.
  trace::EventSink* sink = nullptr;
  /// Half-open shard range of unit indices this process executes; (0, 0) =
  /// all. Units outside it are pre-marked done: never run, never journalled.
  u64 unit_begin = 0;
  u64 unit_end = 0;
  /// Post-hoc merge: also load the journals of these per-shard checkpoint
  /// directories and treat their records as resumed. Units no journal
  /// covers run in-process, so the merge is byte-identical to one process.
  std::vector<std::string> merge_dirs;
  /// Observability hook invoked once per unit THIS process completes (not
  /// for resumed, merged or other shards' units), with the unit index,
  /// after the unit is journalled. May be called concurrently from worker
  /// threads; must never affect the result. The stlserve workers append
  /// their heartbeat record here.
  std::function<void(u64 unit)> on_unit_complete;
};

/// How an engine's units are journalled; see the file comment.
struct UnitJournal {
  u64 units = 0;
  PayloadKind kind = PayloadKind::kFaultOutcomes;
  /// Manifest identity; evaluated only when a journal is read or written.
  std::function<u64()> config_hash;
  /// Accept the journalled payload of unit `index` (< units) into slot
  /// `index`, or reject it (false) so the unit runs again.
  std::function<bool(u64 index, const std::vector<u8>& payload)> decode;
  /// Journal payload of the finished unit `index`.
  std::function<std::vector<u8>(u64 index)> encode;
};

class UnitKernel {
 public:
  /// Resolve the thread count, load the resumed and merged journals
  /// (throws CheckpointMismatch on a foreign checkpoint), open the journal
  /// writer and mark the done units. `who` prefixes error messages.
  UnitKernel(const ExecutorConfig& ex, UnitJournal journal, const char* who);

  /// Resolved thread count (ExecutorConfig::threads == 0 case); the pool
  /// never runs more workers than there are units.
  unsigned threads() const { return threads_; }
  /// Done before run(): resumed, merged or outside the shard range.
  const std::vector<u8>& done() const { return done_; }
  bool stop_requested() const {
    return ex_.interrupt != nullptr && ex_.interrupt->stop_requested();
  }

  /// Run `body(worker, index)` for every index in [0, count) on the
  /// kernel's pool, one index per claim, until a drain is requested. For
  /// the work an engine does before the unit loop (fault screening).
  void for_each(std::size_t count,
                const std::function<void(unsigned, std::size_t)>& body) const;

  /// Execute every unit not done, `chunk` units per claim: run_one(i) —
  /// which must depend on nothing but i and immutable campaign state, since
  /// any worker may call it — then the journal add, the optional engine
  /// hook on_complete(worker, i), ExecutorConfig::on_unit_complete(i), the
  /// interrupt countdown.
  /// Stops claiming once a drain is requested, then finish(). The first
  /// exception a unit throws is rethrown after every worker joined.
  CheckpointStats run(
      std::size_t chunk, const std::function<void(u64)>& run_one,
      const std::function<void(unsigned, u64)>& on_complete = {});
  /// Flush the journal and return the bookkeeping; interrupted = a drain
  /// was requested.
  CheckpointStats finish();

 private:
  void accept(const LoadedCheckpoint& loaded);

  const ExecutorConfig& ex_;
  UnitJournal journal_;
  unsigned threads_ = 1;
  std::vector<u8> done_;
  std::optional<CheckpointWriter> writer_;
  CheckpointStats stats_;
};

}  // namespace detstl::fault
