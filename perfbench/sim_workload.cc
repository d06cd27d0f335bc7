// sim_build_query: a simulator grid built by ParallelGridBuilder on 4 threads
// to 0.99 * maxl, then random-key query batches through RunParallelQueries on
// 4 threads, everyone online. The core exchange, the wave scheduler, the
// thread pool and the core search do all of the work; net and storage do none.
//
// A run repeats whole rounds until --seconds have passed; each round has its
// own seed drawn from --seed and is one window of the run: every end-to-end
// metric is the median over the rounds of that round's figure, so a short
// burst of host noise moves one round, not the result. A round is
//   - one build, driven one batch of 256 meetings at a time through the
//     builder's public BuildToAverageDepth (capped at the batch size it runs
//     exactly one batch per call, so the stepped build is the same build as
//     one call). An update request is one such batch;
//   - one RunParallelQueries call of 400k random-key queries on 4 threads.
//     A lookup costs a lane the call's wall time x 4 / queries: that is the
//     reported lookup latency (and its inverse per lane, x 4, the throughput);
//   - 20k random-key queries issued one at a time through
//     SearchEngine::Query on the calling thread, each checked (the
//     responder's path must be a prefix of the key) and timed. Their latency
//     is printed, not reported: on a shared host a single thread's memory
//     latency moved by up to a third between runs, more than a 4-lane batch.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "common.h"
#include "core/exchange.h"
#include "core/grid.h"
#include "core/parallel_builder.h"
#include "core/parallel_workload.h"
#include "core/search.h"
#include "core/wave_schedule.h"
#include "sim/digest.h"
#include "sim/meeting_scheduler.h"
#include "tracer.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace pgrid;

namespace {

// Sized so the peer table (~480 B per peer) outgrows a 8 MiB L2 about twice,
// while a round stays short enough for ~10 rounds in a run.
constexpr size_t kPeers = 40'000;
constexpr size_t kMaxl = 8;
constexpr size_t kThreads = 4;
constexpr size_t kBatch = 256;               // the builder's default batch size
constexpr uint64_t kQueriesPerRound = 400'000;  // one RunParallelQueries call
constexpr size_t kTimedQueries = 20'000;        // one at a time, each checked

ExchangeConfig BuildConfig() {
  ExchangeConfig c;
  c.maxl = kMaxl;
  c.refmax = 4;
  c.recmax = 2;
  c.recursion_fanout = 2;
  c.buddymax = 32;
  return c;
}

/// One grid build. Constructing it allocates the community and starts the
/// builder's thread pool; Run() executes the build.
class Build {
 public:
  Build(uint64_t seed, size_t threads, bool profile, size_t peers = kPeers)
      : grid_(std::make_unique<Grid>(peers)),
        rng_(seed),
        exchange_(grid_.get(), BuildConfig(), &rng_),
        scheduler_(peers),
        builder_(grid_.get(), &exchange_, &scheduler_, &rng_, Options(threads, profile)),
        threads_(threads) {}

  void Run() {
    const double target = 0.99 * static_cast<double>(kMaxl);
    const uint64_t cap = 200 * grid_->size();  // far beyond convergence; a safety stop
    const Clock::time_point start = Clock::now();
    while (grid_->AveragePathLength() < target && meetings < cap) {
      const int64_t t0 = NowNs();
      BuildReport r;
      {
        ScopedSpan span(threads_ == 1 ? "core.parallel_builder.batch_t1"
                                      : "core.parallel_builder.batch");
        r = builder_.BuildToAverageDepth(target, kBatch);
      }
      batch_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      meetings += r.meetings;
      exchanges += r.exchanges;
    }
    seconds = SecondsSince(start);
  }

  Grid* grid() { return grid_.get(); }
  const BuildProfile* profile() const { return builder_.profile(); }

  uint64_t meetings = 0;
  uint64_t exchanges = 0;
  double seconds = 0;
  std::vector<double> batch_us;  // one sample per 256-meeting batch

 private:
  static ParallelBuildOptions Options(size_t threads, bool profile) {
    ParallelBuildOptions opts;
    opts.threads = threads;
    opts.batch_size = kBatch;
    opts.profile = profile;
    return opts;
  }

  std::unique_ptr<Grid> grid_;
  Rng rng_;
  ExchangeEngine exchange_;
  MeetingScheduler scheduler_;
  ParallelGridBuilder builder_;
  size_t threads_;
};

struct Queries {
  uint64_t queries = 0;
  uint64_t found = 0;
  uint64_t messages = 0;
  double seconds = 0;
};

Queries RunQueries(Grid* grid, uint64_t seed, size_t threads) {
  ParallelQueryOptions opts;
  opts.threads = threads;
  opts.num_queries = kQueriesPerRound;
  opts.key_length = kMaxl;
  opts.seed = seed;
  const int64_t t0 = NowNs();
  ParallelQueryReport r;
  {
    ScopedSpan span(threads == 1 ? "core.parallel_workload.queries_t1"
                                 : "core.parallel_workload.queries");
    r = RunParallelQueries(grid, nullptr, opts);
  }
  Queries q;
  q.seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  q.queries = r.queries;
  q.found = r.found;
  q.messages = r.messages;
  return q;
}

std::vector<PeerView> Views(const Grid& grid) {
  std::vector<PeerView> views;
  views.reserve(grid.size());
  for (const PeerState& p : grid) {
    PeerView v;
    v.path = p.path();
    for (size_t l = 1; l <= p.depth(); ++l) v.refs.push_back(p.RefsAt(l).ToVector());
    views.push_back(std::move(v));
  }
  return views;
}

/// Issues `count` random keys one by one through SearchEngine::Query from
/// random start peers; times each (us, into `us` when non-null).
std::vector<Answer> TimedAnswers(Grid* grid, uint64_t seed, size_t count,
                                 std::vector<double>* us) {
  Rng rng(seed);
  SearchEngine engine(grid, nullptr, &rng);
  std::vector<Answer> answers;
  answers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Answer a;
    a.key = KeyPath::Random(&rng, kMaxl);
    const PeerId start = static_cast<PeerId>(rng.UniformIndex(grid->size()));
    const int64_t t0 = NowNs();
    QueryResult r;
    {
      ScopedSpan span("core.search.query");
      r = engine.Query(start, a.key);
    }
    if (us != nullptr) us->push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    a.found = r.found;
    if (r.found) a.responder_path = grid->peer(r.responder).path();
    answers.push_back(std::move(a));
  }
  return answers;
}

void CheckGrid(Build& b, RunResult* out) {
  const std::vector<PeerView> views = Views(*b.grid());
  out->Check(CheckReferenceProperty(views));
  out->Check(CheckCoverage(views, kMaxl));
  out->Check(CheckAverageDepth(views, kMaxl, 0.99));
}

/// Colors batches shaped like the build's rounds -- uniformly drawn meetings,
/// 256 per round-0 batch and 1024 per recursion round -- through WaveSchedule.
double WaveScheduleNsPerEdge(uint64_t seed) {
  Rng rng(seed);
  MeetingScheduler scheduler(kPeers);
  WaveSchedule schedule;
  uint64_t edges = 0;
  int64_t ns = 0;
  for (int round = 0; round < 400; ++round) {
    std::vector<Meeting> meetings;
    scheduler.NextBatch(&rng, round % 2 == 0 ? 256 : 1024, &meetings);
    std::vector<WaveEdge> batch;
    for (const Meeting& m : meetings) {
      if (m.a != m.b) batch.push_back({m.a, m.b});
    }
    const int64_t t0 = NowNs();
    {
      ScopedSpan span("core.wave_schedule.color");
      schedule.Color(batch);
    }
    ns += NowNs() - t0;
    edges += batch.size();
  }
  return static_cast<double>(ns) / static_cast<double>(edges);
}

/// p50 of an empty 4-lane ParallelFor, microseconds.
double ThreadPoolHandoffUs() {
  ThreadPool pool(kThreads);
  std::vector<double> us;
  for (int i = 0; i < 20'000; ++i) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan span("util.thread_pool.parallel_for");
      pool.ParallelFor(kThreads, [](size_t) {});
    }
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  return Percentile(us, 0.5);
}

}  // namespace

RunResult RunSimBuildQuery(const RunOptions& opt) {
  RunResult res;
  // Set-up: process start-up plus the first round's community and builder
  // (its thread pool); every later round allocates its own.
  auto build = std::make_unique<Build>(DeriveStreamSeed(opt.seed, 0), kThreads, false);
  const double setup_s = SecondsSince(ProcessStart());

  // Per-round figures; each metric is the median over rounds.
  std::vector<double> build_rate, batch_p50, batch_p99, query_rate, query_lane_us;
  std::vector<double> query_p50, query_p99;  // single queries: printed, not reported
  uint64_t meetings = 0, queries = 0, found = 0, exchanges = 0;
  uint64_t batch_queries = 0, batch_messages = 0;  // RunParallelQueries only
  uint64_t first_digest = 0;
  std::unique_ptr<Build> first;  // kept only in the traced run
  const Clock::time_point start = Clock::now();
  for (uint64_t round = 0; round == 0 || SecondsSince(start) < opt.seconds; ++round) {
    const uint64_t round_seed = DeriveStreamSeed(opt.seed, round);
    if (build == nullptr) build = std::make_unique<Build>(round_seed, kThreads, false);
    Build& b = *build;
    b.Run();
    const Queries q = RunQueries(b.grid(), round_seed ^ 0x5157ull, kThreads);
    std::vector<double> single_us;
    const std::vector<Answer> answers =
        TimedAnswers(b.grid(), round_seed ^ 0xa5a5ull, kTimedQueries, &single_us);

    build_rate.push_back(static_cast<double>(b.meetings) / b.seconds);
    batch_p50.push_back(Percentile(b.batch_us, 0.5));
    batch_p99.push_back(Percentile(b.batch_us, 0.99));
    query_rate.push_back(static_cast<double>(q.queries) / q.seconds);
    query_lane_us.push_back(q.seconds * 1e6 * static_cast<double>(kThreads) /
                            static_cast<double>(q.queries));
    query_p50.push_back(Percentile(single_us, 0.5));
    query_p99.push_back(Percentile(single_us, 0.99));
    meetings += b.meetings;
    exchanges += b.exchanges;
    queries += q.queries + answers.size();
    found += q.found;
    for (const Answer& a : answers) found += a.found ? 1 : 0;
    batch_queries += q.queries;
    batch_messages += q.messages;

    res.Check(CheckAllFound(q.queries, q.found));
    res.Check(CheckResponsible(answers));
    CheckGrid(b, &res);
    if (round == 0) {
      first_digest = sim::GridStateDigest(*b.grid());
      if (opt.trace) first = std::move(build);
    }
    build.reset();
  }
  const double measured_s = SecondsSince(start);
  res.attempted = meetings + queries;
  res.failed = queries - found;

  // Determinism: the first round again on another thread count. The traced
  // run uses one thread (its layer metrics need that build anyway).
  const uint64_t round0 = DeriveStreamSeed(opt.seed, 0);
  const size_t other_threads = opt.trace ? 1 : 2;
  Build other(round0, other_threads, false);
  other.Run();
  res.Check(CheckSameDigest(first_digest, sim::GridStateDigest(*other.grid()), kThreads,
                            other_threads));
  std::fprintf(stderr,
               "%ssim_build_query: %zu rounds in %.2f s; per round (median): %.0f meetings/s, "
               "batch p50 %.1f us, p99 %.1f us, %.0f queries/s, single query p50 %.2f us, p99 "
               "%.2f us\n",
               opt.trace ? "traced " : "", build_rate.size(), measured_s, Median(build_rate),
               Median(batch_p50), Median(batch_p99), Median(query_rate), Median(query_p50),
               Median(query_p99));

  if (!opt.trace) {
    res.Set("setup_s", setup_s, "s");
    res.Set("peak_rss_mb", PeakRssMb(), "MiB");
    res.Set("update_per_s", Median(build_rate), "1/s");
    res.Set("update_p50_us", Median(batch_p50), "us");
    res.Set("lookup_per_s", Median(query_rate), "1/s");
    res.Set("lookup_p50_us", Median(query_lane_us), "us");
    return res;
  }

  // Traced run: layer metrics. The 1-thread build `other` is the first
  // round's build on one lane; the first round's query batch follows on one
  // lane too.
  const Queries q1 = RunQueries(other.grid(), round0 ^ 0x5157ull, 1);
  res.Check(CheckAllFound(q1.queries, q1.found));
  const double rate4 = static_cast<double>(first->meetings) / first->seconds;
  const double rate1 = static_cast<double>(other.meetings) / other.seconds;
  Build profiled(round0, kThreads, true);
  profiled.Run();
  const BuildProfile& prof = *profiled.profile();
  std::vector<double> waits;
  for (uint64_t ns : prof.BarrierWaitSamplesNs()) waits.push_back(static_cast<double>(ns));

  res.Set("core.exchange.per_meeting",
          static_cast<double>(exchanges) / static_cast<double>(meetings), "count");
  res.Set("core.exchange.t1_ns", other.seconds * 1e9 / static_cast<double>(other.exchanges),
          "ns");
  res.Set("core.parallel_builder.speedup_t4", rate4 / rate1, "ratio");
  res.Set("core.parallel_builder.serial_ms", static_cast<double>(prof.SerialNs()) * 1e-6,
          "ms");
  res.Set("core.parallel_builder.utilization", prof.Utilization(), "ratio");
  res.Set("core.parallel_builder.barrier_wait_p99_us", Percentile(waits, 0.99) * 1e-3, "us");
  res.Set("core.wave_schedule.ns_per_edge", WaveScheduleNsPerEdge(opt.seed), "ns");
  res.Set("util.thread_pool.handoff_us", ThreadPoolHandoffUs(), "us");
  res.Set("core.search.messages_per_query",
          static_cast<double>(batch_messages) / static_cast<double>(batch_queries), "count");
  res.Set("core.search.t1_ns", q1.seconds * 1e9 / static_cast<double>(q1.queries), "ns");
  res.Set("core.grid.bytes_per_peer",
          static_cast<double>(first->grid()->ApproxMemoryBytes()) /
              static_cast<double>(first->grid()->size()),
          "B");
  return res;
}

std::vector<CheckDemo> SimCheckDemos() {
  constexpr size_t kSmall = 2'000;
  std::vector<CheckDemo> demos;
  Build b4(99, kThreads, false, kSmall), b2(99, 2, false, kSmall);
  b4.Run();
  b2.Run();
  const std::vector<PeerView> views = Views(*b4.grid());
  auto flip_first = [](const KeyPath& p) {
    KeyPath out;
    for (size_t i = 0; i < p.length(); ++i) out.PushBack(i == 0 ? 1 - p.bit(0) : p.bit(i));
    return out;
  };

  CheckDemo refs{"CheckReferenceProperty", "a level-1 reference pointed at its owner",
                 CheckReferenceProperty(views), ""};
  std::vector<PeerView> bad = views;
  for (size_t id = 0; id < bad.size(); ++id) {
    if (!bad[id].refs.empty()) {
      bad[id].refs[0] = {static_cast<uint32_t>(id)};
      break;
    }
  }
  refs.corrupted = CheckReferenceProperty(bad);
  demos.push_back(refs);

  CheckDemo cover{"CheckCoverage", "first bit of every 0-path set to 1",
                  CheckCoverage(views, kMaxl), ""};
  bad = views;
  for (PeerView& v : bad) {
    if (v.path.length() > 0 && v.path.bit(0) == 0) v.path = flip_first(v.path);
  }
  cover.corrupted = CheckCoverage(bad, kMaxl);
  demos.push_back(cover);

  CheckDemo depth{"CheckAverageDepth", "every path shortened by one bit",
                  CheckAverageDepth(views, kMaxl, 0.99), ""};
  bad = views;
  for (PeerView& v : bad) {
    if (v.path.length() > 0) v.path = v.path.Prefix(v.path.length() - 1);
  }
  depth.corrupted = CheckAverageDepth(bad, kMaxl, 0.99);
  demos.push_back(depth);

  const uint64_t d4 = sim::GridStateDigest(*b4.grid());
  CheckDemo digest{"CheckSameDigest", "one reference of the 2-thread grid replaced",
                   CheckSameDigest(d4, sim::GridStateDigest(*b2.grid()), kThreads, 2), ""};
  for (PeerState& p : *b2.grid()) {
    if (p.depth() > 0 && !p.RefsAt(1).empty()) {
      p.SetRefsAt(1, {p.RefsAt(1)[0] == 0 ? PeerId{1} : PeerId{0}});
      break;
    }
  }
  digest.corrupted = CheckSameDigest(d4, sim::GridStateDigest(*b2.grid()), kThreads, 2);
  demos.push_back(digest);

  ParallelQueryOptions qopts;
  qopts.threads = kThreads;
  qopts.num_queries = 8'192;
  qopts.key_length = kMaxl;
  qopts.seed = 99;
  const ParallelQueryReport r = RunParallelQueries(b4.grid(), nullptr, qopts);
  demos.push_back(CheckDemo{"CheckAllFound", "one query reported not found",
                            CheckAllFound(r.queries, r.found),
                            CheckAllFound(r.queries, r.found - 1)});

  std::vector<Answer> answers = TimedAnswers(b4.grid(), 99, 1'000, nullptr);
  CheckDemo resp{"CheckResponsible (SearchEngine::Query)",
                 "responder path's first bit flipped", CheckResponsible(answers), ""};
  answers.front().responder_path = flip_first(answers.front().responder_path);
  resp.corrupted = CheckResponsible(answers);
  demos.push_back(resp);
  return demos;
}

}  // namespace perfbench
