#include "fault/units.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "fault/work_queue.h"

namespace detstl::fault {

namespace {

/// Drain `queue` on up to `threads` workers, calling body(worker, index) for
/// every index of every claimed chunk, and join. A single worker runs on the
/// calling thread — exactly the serial path, no spawn. Once `interrupt`
/// fires no worker claims another chunk; in-flight chunks finish. The first
/// exception a worker throws is rethrown after the join.
void run_pool(unsigned threads, WorkQueue& queue,
              const InterruptToken* interrupt,
              const std::function<void(unsigned, std::size_t)>& body) {
  const auto drain = [&](unsigned w) {
    while (interrupt == nullptr || !interrupt->stop_requested()) {
      const auto chunk = queue.next();
      if (!chunk) return;
      for (std::size_t i = chunk->begin; i < chunk->end; ++i) body(w, i);
    }
    queue.halt();
  };
  const auto n = std::min<std::size_t>(
      threads, std::max<std::size_t>(1, queue.total()));
  if (n <= 1) {
    drain(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(n);
  std::mutex err_mu;
  std::exception_ptr err;
  for (unsigned w = 0; w < n; ++w) {
    pool.emplace_back([&drain, &err_mu, &err, w] {
      try {
        drain(w);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!err) err = std::current_exception();
      }
    });
  }
  for (auto& t : pool) t.join();
  if (err) std::rethrow_exception(err);
}

}  // namespace

UnitKernel::UnitKernel(const ExecutorConfig& ex, UnitJournal journal,
                       const char* who)
    : ex_(ex),
      journal_(std::move(journal)),
      threads_(ex.threads != 0
                   ? ex.threads
                   : std::max(1u, std::thread::hardware_concurrency())),
      done_(journal_.units, 0) {
  // The manifest hash binds the journal to this exact campaign; the shard
  // range and every executor field stay out of it, so all shards of a
  // partitioned campaign load each other's journals.
  if (ex_.checkpoint.enabled() || !ex_.merge_dirs.empty()) {
    const u64 hash = journal_.config_hash();
    stats_.enabled = true;
    if (ex_.checkpoint.enabled()) {
      LoadedCheckpoint loaded;
      if (ex_.checkpoint.resume)
        loaded = load_checkpoint(ex_.checkpoint, journal_.kind, hash, ex_.sink);
      writer_.emplace(ex_.checkpoint, journal_.kind, hash, loaded.next_shard,
                      ex_.sink);
      accept(loaded);
    }
    // Post-hoc merge. A shard whose worker never wrote its manifest is
    // skipped — its units simply run here — but a journal bound to a
    // different campaign still throws: no silent cross-campaign merges.
    for (const std::string& dir : ex_.merge_dirs) {
      const CheckpointConfig shard{.dir = dir, .resume = true};
      if (checkpoint_present(shard))
        accept(load_checkpoint(shard, journal_.kind, hash, ex_.sink));
    }
  }
  // Shard range: everything outside [unit_begin, unit_end) is some other
  // worker's slice — done, but neither counted as resumed nor journalled.
  if (ex_.unit_begin != 0 || ex_.unit_end != 0) {
    if (ex_.unit_begin >= ex_.unit_end)
      throw std::runtime_error(std::string(who) + ": empty shard range");
    for (u64 i = 0; i < journal_.units; ++i)
      if (i < ex_.unit_begin || i >= ex_.unit_end) done_[i] = 1;
  }
}

void UnitKernel::accept(const LoadedCheckpoint& loaded) {
  stats_.shards_loaded += loaded.shards_loaded;
  stats_.shards_corrupt += loaded.shards_corrupt;
  // Out-of-range indices and rejected payloads are dropped (those units
  // simply run again) — the hash-verified manifest makes them unreachable
  // short of corruption the shard checksums already screen for. A later
  // record of the same unit wins.
  for (const ShardRecord& r : loaded.records) {
    if (r.index >= journal_.units || !journal_.decode(r.index, r.payload))
      continue;
    if (done_[r.index] == 0) {
      done_[r.index] = 1;
      ++stats_.records_resumed;
    }
  }
}

void UnitKernel::for_each(
    std::size_t count,
    const std::function<void(unsigned, std::size_t)>& body) const {
  WorkQueue queue(count, 1);
  run_pool(threads_, queue, ex_.interrupt, body);
}

CheckpointStats UnitKernel::run(
    std::size_t chunk, const std::function<void(u64)>& run_one,
    const std::function<void(unsigned, u64)>& on_complete) {
  WorkQueue queue(journal_.units, chunk, &done_);
  run_pool(threads_, queue, ex_.interrupt, [&](unsigned w, std::size_t i) {
    if (done_[i] != 0) return;  // resumed, merged or another shard's
    run_one(i);
    if (writer_) writer_->add(i, journal_.encode(i));
    if (on_complete) on_complete(w, i);
    if (ex_.on_unit_complete) ex_.on_unit_complete(i);
    if (ex_.interrupt != nullptr) ex_.interrupt->on_unit_complete();
  });
  return finish();
}

CheckpointStats UnitKernel::finish() {
  if (writer_) {
    writer_->flush();
    stats_.shards_flushed = writer_->shards_flushed();
    stats_.flush_ns = writer_->flush_ns();
  }
  stats_.interrupted = stop_requested();
  return stats_;
}

}  // namespace detstl::fault
