#include "core/parallel_builder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "util/macros.h"
#include "util/stopwatch.h"

namespace pgrid {

namespace {

/// Items the calling lane colors per side step before it re-checks whether
/// the running wave is still unfinished.
constexpr size_t kColorStep = 8;

/// Prefetches the leading cache lines of `peer` -- id, path, and reference
/// table header, wherever the object straddles a line boundary -- for writing.
void PrefetchForWrite(const PeerState& peer) {
  const char* base = reinterpret_cast<const char*>(&peer);
  __builtin_prefetch(base, 1);
  __builtin_prefetch(base + 63, 1);
}

/// Profiling clock: steady nanoseconds.
uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

ParallelGridBuilder::ParallelGridBuilder(Grid* grid, ExchangeEngine* exchange,
                                         MeetingScheduler* scheduler, Rng* master,
                                         const ParallelBuildOptions& options)
    : grid_(grid),
      exchange_(exchange),
      scheduler_(scheduler),
      master_(master),
      options_(options),
      pool_(options.threads),
      stream_base_(master != nullptr ? master->engine()() : 0) {
  PGRID_CHECK(grid != nullptr && exchange != nullptr && scheduler != nullptr &&
              master != nullptr);
  PGRID_CHECK_GT(options_.threads, 0u);
  PGRID_CHECK_GT(options_.batch_size, 0u);
  PGRID_CHECK_EQ(grid->size(), scheduler->num_peers());
  lanes_.resize(pool_.threads());
  if (options_.profile) {
    profile_ = std::make_unique<BuildProfile>();
    profile_->threads = pool_.threads();
  }
}

BuildReport ParallelGridBuilder::BuildToAverageDepth(double target_avg_depth,
                                                     uint64_t max_meetings) {
  Stopwatch watch;
  BuildReport report;
  const uint64_t exchanges_before = grid_->stats().count(MessageType::kExchange);
  while (grid_->AveragePathLength() < target_avg_depth &&
         report.meetings < max_meetings) {
    const size_t batch = static_cast<size_t>(
        std::min<uint64_t>(options_.batch_size, max_meetings - report.meetings));
    // Schedule serially on the master stream. The schedule depends only on the
    // seed and the number of meetings drawn so far -- never on how earlier
    // batches were executed.
    std::vector<Meeting> meetings;
    meetings.reserve(batch);
    const uint64_t t_schedule = profile_ != nullptr ? NowNs() : 0;
    scheduler_->NextBatch(master_, batch, &meetings);
    if (profile_ != nullptr) {
      profile_->schedule_ns += NowNs() - t_schedule;
    }
    std::vector<WorkItem> items;
    items.reserve(batch);
    for (const Meeting& m : meetings) items.push_back({m.a, m.b, /*depth=*/0});
    RunBatch(std::move(items));
    ++batch_ordinal_;
    report.meetings += batch;
  }
  report.exchanges = grid_->stats().count(MessageType::kExchange) - exchanges_before;
  report.avg_path_length = grid_->AveragePathLength();
  report.converged = report.avg_path_length >= target_avg_depth;
  report.seconds = watch.ElapsedSeconds();
  if (profile_ != nullptr) {
    profile_->total_ns += static_cast<uint64_t>(report.seconds * 1e9);
  }
  return report;
}

BuildReport ParallelGridBuilder::BuildToFractionOfMaxDepth(double fraction,
                                                           uint64_t max_meetings) {
  PGRID_CHECK(fraction > 0.0 && fraction <= 1.0);
  const double target = fraction * static_cast<double>(exchange_->config().maxl);
  return BuildToAverageDepth(target, max_meetings);
}

void ParallelGridBuilder::RunMeetings(const std::vector<Meeting>& meetings) {
  std::vector<WorkItem> items;
  items.reserve(meetings.size());
  for (const Meeting& m : meetings) {
    if (m.a == m.b) continue;
    items.push_back({m.a, m.b, /*depth=*/0});
  }
  if (items.empty()) return;
  RunBatch(std::move(items));
  ++batch_ordinal_;
}

void ParallelGridBuilder::EnsureSlots(size_t n) {
  while (slots_.size() < n) {
    slots_.push_back(
        std::make_unique<Slot>(DeriveStreamSeed(stream_base_, slots_.size())));
  }
  for (int parity = 0; parity < 2; ++parity) {
    if (captures_[parity].size() < n) captures_[parity].resize(n);
    if (spills_[parity].size() < n) spills_[parity].resize(n);
  }
}

void ParallelGridBuilder::RunBatch(std::vector<WorkItem> items) {
  const bool prof = profile_ != nullptr;
  std::vector<WorkItem> next;
  WaveSchedule* schedule = &schedules_[0];
  WaveSchedule* next_schedule = &schedules_[1];

  // Color the batch's top-level meetings: every item lands in exactly one
  // conflict-free wave, as a pure function of the item list
  // (core/wave_schedule.h). Later rounds are colored while the previous round
  // runs (below).
  uint64_t color_ns = prof ? NowNs() : 0;
  schedule->Begin();
  for (const WorkItem& it : items) schedule->Add({it.a, it.b});
  schedule->Finish();
  if (prof) color_ns = NowNs() - color_ns;

  while (!items.empty()) {
    // The next round is built while this one runs: the recursion each slot
    // captures is gathered in (wave, slot) order -- the order feeds the next
    // round's coloring, so it must be schedule-determined -- and colored item
    // by item, on the calling lane, in whatever time the waves leave it.
    next.clear();
    next_schedule->Begin();
    size_t colored = 0;  // prefix of `next` already added to next_schedule
    size_t gather_wave = 0;  // gather cursor: next (wave, slot) to move
    size_t gather_slot = 0;
    const auto gather_one = [&] {
      const int parity = gather_wave % 2;
      const Capture& cap = captures_[parity][gather_slot];
      for (size_t k = 0; k < std::min<size_t>(cap.count, Capture::kInline); ++k) {
        next.push_back({cap.items[k].initiator, cap.items[k].target, cap.items[k].depth});
      }
      if (cap.count > Capture::kInline) {
        for (const PendingExchange& p : spills_[parity][gather_slot]) {
          next.push_back({p.initiator, p.target, p.depth});
        }
      }
      if (++gather_slot == schedule->wave(gather_wave).size()) {
        ++gather_wave;
        gather_slot = 0;
      }
    };
    const auto gather_before = [&](size_t w) {  // waves < w are complete
      while (gather_wave < w) gather_one();
    };
    const auto color_upto = [&](size_t end) {
      for (; colored < end; ++colored) {
        next_schedule->Add({next[colored].a, next[colored].b});
      }
    };

    for (size_t w = 0; w < schedule->num_waves(); ++w) {
      const std::vector<uint32_t>& wave = schedule->wave(w);
      EnsureSlots(wave.size());
      const uint64_t stamp = ++wave_stamp_;

      WaveProfile* wp = nullptr;
      if (prof) {
        profile_->waves.emplace_back();
        wp = &profile_->waves.back();
        wp->batch = batch_ordinal_;
        wp->wave = wave_ordinal_++;
        wp->scheduled = items.size();
        wp->width = wave.size();
        wp->conflicts = 0;  // by construction of the coloring
        if (w == 0) wp->color_ns = std::exchange(color_ns, 0);
      }

      // Side step of the calling lane: gather what is complete -- earlier
      // waves, then the finished prefix of this one -- and color a few items.
      // Reports whether it made progress; when it made none, the pool has the
      // caller run a chunk of the wave instead. Only the calling lane touches
      // the next round's state.
      const auto side_step = [&]() -> bool {
        const uint64_t t_step = prof ? NowNs() : 0;
        const size_t wave_before = gather_wave;
        const size_t slot_before = gather_slot;
        const size_t colored_before = colored;
        gather_before(w);
        while (gather_wave == w &&
               std::atomic_ref<uint64_t>(captures_[w % 2][gather_slot].done)
                       .load(std::memory_order_acquire) == stamp) {
          gather_one();
        }
        color_upto(std::min(next.size(), colored + kColorStep));
        const bool progress = colored != colored_before ||
                              gather_wave != wave_before || gather_slot != slot_before;
        if (prof && progress) wp->overlap_ns += NowNs() - t_step;
        return progress;
      };

      const size_t chunk = ThreadPool::ChunkSize(wave.size(), pool_.threads());
      const uint64_t t_run = prof ? NowNs() : 0;
      pool_.ParallelFor(
          wave.size(),
          [&](size_t i, size_t lane) {
            if (i % chunk == 0) {
              // First item of a claimed chunk: request the chunk's peer states
              // -- usually last written on another core -- all at once, so
              // their cache lines arrive in parallel instead of one miss at a
              // time. The chunk's items run on this lane, and no other item of
              // the wave touches these peers.
              const size_t end = std::min(wave.size(), i + chunk);
              for (size_t j = i; j < end; ++j) {
                PrefetchForWrite(grid_->peer(items[wave[j]].a));
                PrefetchForWrite(grid_->peer(items[wave[j]].b));
              }
            }
            const uint64_t t_item = prof ? NowNs() : 0;
            Lane& sink = lanes_[lane];
            sink.deferred.clear();
            ExchangeShard shard;
            shard.rng = &slots_[i]->rng;
            shard.stats = &sink.stats;
            shard.metrics = &sink.metrics;
            shard.deferred = &sink.deferred;
            const WorkItem& it = items[wave[i]];
            exchange_->ExchangeSharded(it.a, it.b, it.depth, &shard);
            sink.path_bits += shard.path_bits;
            // Publish the capture: inline part, spill, then the stamp.
            Capture& cap = captures_[w % 2][i];
            const size_t count = sink.deferred.size();
            cap.count = static_cast<uint32_t>(count);
            std::copy_n(sink.deferred.begin(), std::min(count, Capture::kInline),
                        cap.items);
            if (count > Capture::kInline) {
              spills_[w % 2][i].assign(sink.deferred.begin() + Capture::kInline,
                                       sink.deferred.end());
            }
            std::atomic_ref<uint64_t>(cap.done).store(stamp, std::memory_order_release);
            if (prof) sink.busy_ns += NowNs() - t_item;
          },
          side_step);

      if (prof) {
        wp->run_ns = NowNs() - t_run;
        // The pool join above is the happens-before edge; lanes are quiescent.
        wp->lane_busy_ns.resize(lanes_.size());
        for (size_t lane = 0; lane < lanes_.size(); ++lane) {
          wp->lane_busy_ns[lane] = std::exchange(lanes_[lane].busy_ns, 0);
        }
      }
      // Wave w+1 reuses wave w-1's capture buffers: finish gathering those
      // now if the side steps did not get to them.
      const uint64_t t_gather = prof ? NowNs() : 0;
      gather_before(w);
      if (prof) wp->merge_ns += NowNs() - t_gather;
    }

    // Round barrier: gather the rest and color whatever the waves left
    // uncolored; then the next round's schedule is complete.
    const uint64_t t_gather = prof ? NowNs() : 0;
    gather_before(schedule->num_waves());
    color_upto(next.size());
    next_schedule->Finish();
    if (prof) profile_->waves.back().merge_ns += NowNs() - t_gather;
    std::swap(schedule, next_schedule);
    std::swap(items, next);
  }

  // Batch barrier: fold the additive lane shards into the grid ledger, in lane
  // order. The sums are commutative, so which lane ran which item (the only
  // timing-dependent quantity left) cannot affect the result. O(threads) serial
  // work per batch, where the old slot-order fold was O(slots) per wave.
  const uint64_t t_merge = prof ? NowNs() : 0;
  uint64_t path_bits = 0;
  for (Lane& lane : lanes_) {
    grid_->stats().MergeFrom(lane.stats);
    lane.stats.Reset();
    exchange_->FoldMetrics(&lane.metrics);
    path_bits += lane.path_bits;
    lane.path_bits = 0;
  }
  if (path_bits > 0) grid_->NotePathGrowth(path_bits);
  if (prof) profile_->merge_ns += NowNs() - t_merge;
}

}  // namespace pgrid
