// node_read and node_write_durable: a fleet of PGridNodes on loopback
// TcpTransport in this process, driven by one closed-loop caller.
//
// Set-up boots the fleet on ephemeral ports, runs random TCP meetings until
// the paths are deep enough, and publishes a corpus. The measured phase then
// repeats whole rounds of operations until --seconds have passed:
//   node_read           1 publish + 9 searches, search keys Zipf-popular over
//                       the corpus, storage off;
//   node_write_durable  4 publishes of new uniform keys + 4 searches favouring
//                       recently published keys, NodeConfig::storage on
//                       (SyncMode::kFlush, default compaction, a fresh
//                       directory per run).
// The loop is closed (one caller, each call waits for its reply) because
// Search and Publish block and TcpTransport starts a thread per accepted
// connection: an open loop would need more callers in flight than the host
// has cores and would measure the scheduler.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "common.h"
#include "key/key_path.h"
#include "net/node.h"
#include "net/protocol.h"
#include "net/tcp_transport.h"
#include "storage/data_item.h"
#include "timed_transport.h"
#include "tracer.h"
#include "util/rng.h"
#include "workload/zipf.h"
#include "workloads.h"

namespace perfbench {

using namespace pgrid;
using net::PGridNode;
using net::WireEntry;

namespace {

struct NodeParams {
  size_t nodes;
  size_t maxl;
  size_t refmax;
  double depth_fraction;  // set-up meets until average depth >= this * maxl
  bool durable;
  size_t corpus;  // items published during set-up
  int publishes_per_round;
  int searches_per_round;
};

constexpr NodeParams kReadParams{32, 5, 3, 0.9, false, 2'000, 1, 9};
// Publishes dominate the durable round's time (~4 ms each against ~0.3 ms a
// search); with 1 search per 4 publishes a 20 s run held ~1,200 searches and
// their rate spread 0.23-0.31 over ten seeds, so each round searches 4 times.
constexpr NodeParams kDurableParams{16, 3, 3, 0.9, true, 4'000, 4, 4};

constexpr size_t kKeyBits = 32;        // item keys; far deeper than maxl
constexpr size_t kRecentWindow = 256;  // searches on node_write_durable
constexpr size_t kRouteSample = 200;
// Operations per throughput window: short enough that most windows miss the
// host's multi-millisecond stalls, so the median window is the sustained rate.
constexpr size_t kRateWindow = 20;

struct Item {
  uint64_t id = 0;
  KeyPath key;
  size_t publisher = 0;  // node index
};

enum class Op : uint8_t { kSearch, kPublish };

/// What one fleet run produced.
struct FleetRun {
  double setup_s = 0;
  uint64_t rounds = 0;
  uint64_t searches = 0, publishes = 0, failed = 0;
  uint64_t search_calls = 0, publish_calls = 0;  // TcpTransport::Call()s made
  double measured_s = 0;
  std::vector<double> search_us, publish_us;
  std::vector<std::string> errors;
  // Traced runs only.
  size_t span_begin = 0, span_end = 0;
  std::unordered_map<uint64_t, Op> ops;  // trace id -> operation
  int threads_peak = 0;
  double echo_call_us = 0;
  double codec_ns = 0;
  uint64_t disk_bytes = 0;
  uint64_t entries_held = 0;
};

/// The fleet: one TCP transport (behind the timing decorator when traced)
/// and the nodes serving on it. Nodes are declared last, so they stop
/// before the transports they use are destroyed.
class Fleet {
 public:
  /// An empty `storage_dir` leaves NodeConfig::storage off.
  Fleet(const NodeParams& p, uint64_t seed, const std::string& storage_dir, bool timed)
      : params_(p), seed_(seed) {
    config_.maxl = p.maxl;
    config_.refmax = p.refmax;
    if (!storage_dir.empty()) {
      config_.storage.dir = storage_dir;
      config_.storage.sync_mode = storage::SyncMode::kFlush;
    }
    if (timed) timed_ = std::make_unique<TimedTransport>(&tcp_);
  }

  net::TcpTransport& tcp() { return tcp_; }
  TimedTransport* timed() { return timed_.get(); }
  net::RpcTransport* transport() {
    return timed_ != nullptr ? static_cast<net::RpcTransport*>(timed_.get()) : &tcp_;
  }
  size_t size() const { return nodes_.size(); }
  PGridNode& node(size_t i) { return *nodes_[i]; }
  const std::string& address(size_t i) const { return addrs_[i]; }
  size_t IndexOf(const std::string& address) const {
    auto it = index_.find(address);
    return it == index_.end() ? nodes_.size() : it->second;
  }

  /// Starts every node on a fresh loopback port.
  std::string Boot() {
    for (size_t i = 0; i < params_.nodes; ++i) {
      // Learn a free port, then hand it to the node (which serves its own handler).
      Result<std::string> probe = tcp_.ServeAnyPort(
          "127.0.0.1", [](const std::string&, const std::string&) { return std::string(); });
      if (!probe.ok()) return "boot: " + probe.status().ToString();
      tcp_.StopServing(*probe);
      addrs_.push_back(*probe);
      index_[*probe] = i;
      nodes_.push_back(nullptr);
      std::string err = StartNode(i);
      if (!err.empty()) return err;
    }
    return "";
  }

  /// (Re)creates node i at its address and starts it.
  std::string StartNode(size_t i) {
    nodes_[i] = std::make_unique<PGridNode>(addrs_[i], transport(), config_,
                                            DeriveStreamSeed(seed_, 1000 + i));
    Status s = nodes_[i]->Start();
    return s.ok() ? "" : "start " + addrs_[i] + ": " + s.ToString();
  }

  /// Stops and destroys node i (its durable state stays on disk).
  void StopNode(size_t i) {
    nodes_[i]->Stop();
    nodes_[i].reset();
  }

  double AverageDepth() const {
    double sum = 0;
    for (const auto& n : nodes_) sum += static_cast<double>(n->path().length());
    return sum / static_cast<double>(nodes_.size());
  }

  std::vector<PeerView> PathViews() const {
    std::vector<PeerView> views;
    for (const auto& n : nodes_) views.push_back(PeerView{n->path(), {}});
    return views;
  }

  NodeState StateOf(size_t i) const {
    NodeState s;
    s.address = addrs_[i];
    s.path = nodes_[i]->path();
    for (size_t l = 1; l <= s.path.length(); ++l) s.refs.push_back(nodes_[i]->RefsAt(l));
    s.entries = nodes_[i]->entries();
    return s;
  }

 private:
  NodeParams params_;
  uint64_t seed_;
  net::NodeConfig config_;
  net::TcpTransport tcp_;
  std::unique_ptr<TimedTransport> timed_;
  std::vector<std::string> addrs_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::unique_ptr<PGridNode>> nodes_;
};

DataItem MakeItem(const Item& it) {
  DataItem d;
  d.id = it.id;
  d.key = it.key;
  d.payload = "item-" + std::to_string(it.id);
  d.version = 1;
  return d;
}

/// Decodes and re-encodes every frame of the sample through the public wire
/// codec; nanoseconds per frame.
double CodecNsPerFrame(const std::vector<std::string>& frames) {
  using net::MsgType;
  uint64_t handled = 0;
  size_t sink = 0;
  const int64_t t0 = NowNs();
  for (int pass = 0; pass < 3; ++pass) {
    for (const std::string& f : frames) {
      Result<MsgType> type = net::PeekType(f);
      if (!type.ok()) continue;
      bool ok = true;
      switch (*type) {
        case MsgType::kQueryReq: {
          auto m = net::DecodeQueryRequest(f);
          if ((ok = m.ok())) sink += net::EncodeQueryRequest(*m).size();
          break;
        }
        case MsgType::kQueryRespFound: {
          auto m = net::DecodeQueryResponseFound(f);
          if ((ok = m.ok())) sink += net::EncodeQueryResponseFound(*m).size();
          break;
        }
        case MsgType::kQueryRespForward: {
          auto m = net::DecodeQueryResponseForward(f);
          if ((ok = m.ok())) sink += net::EncodeQueryResponseForward(*m).size();
          break;
        }
        case MsgType::kPublishReq: {
          auto m = net::DecodePublishRequest(f);
          if ((ok = m.ok())) sink += net::EncodePublishRequest(*m).size();
          break;
        }
        case MsgType::kPublishAck: {
          auto m = net::DecodePublishAck(f);
          if ((ok = m.ok())) sink += net::EncodePublishAck(*m).size();
          break;
        }
        case MsgType::kEntryPushReq: {
          auto m = net::DecodeEntryPushRequest(f);
          if ((ok = m.ok())) sink += net::EncodeEntryPushRequest(*m).size();
          break;
        }
        case MsgType::kEntryPushResp: {
          auto m = net::DecodeEntryPushResponse(f);
          if ((ok = m.ok())) sink += net::EncodeEntryPushResponse(*m).size();
          break;
        }
        case MsgType::kExchangeReq: {
          auto m = net::DecodeExchangeRequest(f);
          if ((ok = m.ok())) sink += net::EncodeExchangeRequest(*m).size();
          break;
        }
        case MsgType::kExchangeResp: {
          auto m = net::DecodeExchangeResponse(f);
          if ((ok = m.ok())) sink += net::EncodeExchangeResponse(*m).size();
          break;
        }
        default:
          ok = false;
      }
      if (ok) ++handled;
    }
  }
  const int64_t ns = NowNs() - t0;
  if (handled == 0 || sink == 0) return 0;
  return static_cast<double>(ns) / static_cast<double>(handled);
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return bytes;
}

/// The published items, drawn from their own stream: key, id and publisher.
class Corpus {
 public:
  Corpus(uint64_t seed, size_t nodes) : rng_(DeriveStreamSeed(seed, 2)), nodes_(nodes) {}

  Item Next() {
    Item it;
    it.id = items.size() + 1;
    it.key = KeyPath::Random(&rng_, kKeyBits);
    it.publisher = rng_.UniformIndex(nodes_);
    return it;
  }

  std::vector<Item> items;  // published so far

 private:
  Rng rng_;
  size_t nodes_;
};

using FailFn = std::function<void(const std::string&)>;

/// Set-up: random TCP meetings until the paths are deep enough, the settling
/// meetings, then the corpus.
void SetUpFleet(Fleet& fleet, const NodeParams& p, uint64_t seed, Corpus* corpus,
                const FailFn& fail) {
  Rng meet_rng(DeriveStreamSeed(seed, 1));
  const double target = p.depth_fraction * static_cast<double>(p.maxl);
  const uint64_t meeting_cap = 2'000 * p.nodes;
  uint64_t meetings = 0;
  while (fleet.AverageDepth() < target && meetings < meeting_cap) {
    for (int i = 0; i < 16; ++i, ++meetings) {
      const size_t a = meet_rng.UniformIndex(fleet.size());
      size_t b = meet_rng.UniformIndex(fleet.size() - 1);
      if (b >= a) ++b;
      ScopedSpan span("net.node.meet");
      (void)fleet.node(a).MeetWith(fleet.address(b));
    }
  }
  // Settle: meet every node whose path is a prefix of another's (equal paths
  // included) until no path is nested in another and replicas at maxl all
  // know each other. Random meetings alone can leave a key with two
  // responsible nodes of which a publish reaches only one (see CHANGES.md);
  // searches on such keys miss, so the workloads leave them out.
  for (int pass = 0; pass < 50; ++pass) {
    bool met = false;
    for (size_t i = 0; i < fleet.size(); ++i) {
      for (size_t j = 0; j < fleet.size(); ++j) {
        if (i == j) continue;
        const KeyPath pi = fleet.node(i).path(), pj = fleet.node(j).path();
        if (!pi.IsPrefixOf(pj)) continue;
        if (pi == pj && pi.length() == p.maxl) {
          const std::vector<std::string> buddies = fleet.node(i).buddies();
          if (std::find(buddies.begin(), buddies.end(), fleet.address(j)) != buddies.end()) {
            continue;
          }
        }
        ScopedSpan span("net.node.meet");
        (void)fleet.node(i).MeetWith(fleet.address(j));
        met = true;
      }
    }
    if (!met) break;
  }
  const std::vector<PeerView> views = fleet.PathViews();
  fail(CheckAverageDepth(views, p.maxl, p.depth_fraction));
  fail(CheckCoverage(views, p.maxl));

  for (size_t i = 0; i < p.corpus; ++i) {
    Item it = corpus->Next();
    ScopedSpan span("net.node.publish");
    Status s = fleet.node(it.publisher).Publish(MakeItem(it));
    if (!s.ok()) fail("set-up publish of item " + std::to_string(it.id) + ": " + s.ToString());
    corpus->items.push_back(std::move(it));
  }
}

/// Routes the keys of `count` random published items from random nodes and
/// records the path of the node each lands on.
std::vector<Answer> RouteAnswers(Fleet& fleet, const std::vector<Item>& items, size_t count,
                                 Rng* rng) {
  std::vector<Answer> answers;
  for (size_t i = 0; i < count; ++i) {
    const Item& it = items[rng->UniformIndex(items.size())];
    Answer a;
    a.key = it.key;
    Result<std::string> to =
        fleet.node(rng->UniformIndex(fleet.size())).RouteToResponsible(it.key);
    const size_t idx = to.ok() ? fleet.IndexOf(*to) : fleet.size();
    a.found = idx < fleet.size();
    if (a.found) a.responder_path = fleet.node(idx).path();
    answers.push_back(std::move(a));
  }
  return answers;
}

/// Stops every node, restarts each from its storage directory at the same
/// address, and returns the states before and after (empty `after` entries
/// for a node that failed to come back, reported through `fail`).
std::pair<std::vector<NodeState>, std::vector<NodeState>> Restart(Fleet& fleet,
                                                                  const FailFn& fail) {
  std::vector<NodeState> before, after;
  for (size_t i = 0; i < fleet.size(); ++i) before.push_back(fleet.StateOf(i));
  for (size_t i = 0; i < fleet.size(); ++i) fleet.StopNode(i);
  for (size_t i = 0; i < fleet.size(); ++i) {
    const std::string err = fleet.StartNode(i);
    if (!err.empty()) {
      fail(err);
      after.push_back(NodeState{});
      continue;
    }
    if (!fleet.node(i).recovered_from_disk()) {
      fail("node " + fleet.address(i) + " did not recover from its storage directory");
    }
    after.push_back(fleet.StateOf(i));
  }
  return {std::move(before), std::move(after)};
}

/// Boots a fleet, sets it up, and runs the measured phase: whole rounds until
/// `seconds` have passed, or exactly `fixed_rounds` rounds when nonzero (the
/// storage-off twin of a traced durable run replays the same rounds). An
/// empty `storage_dir` runs the nodes without storage.
FleetRun RunFleet(const NodeParams& p, uint64_t seed, const std::string& storage_dir,
                  bool traced, double seconds, uint64_t fixed_rounds, bool restart_check) {
  FleetRun run;
  Tracer& tracer = Tracer::Get();
  run.span_begin = tracer.spans().size();
  const FailFn fail = [&run](const std::string& e) {
    if (!e.empty() && run.errors.size() < 20) run.errors.push_back(e);
  };
  Fleet fleet(p, seed, storage_dir, traced);
  {
    const std::string err = fleet.Boot();
    if (!err.empty()) {
      fail(err);
      return run;
    }
  }
  Corpus corpus(seed, fleet.size());
  SetUpFleet(fleet, p, seed, &corpus, fail);
  std::vector<Item>& items = corpus.items;

  // Search popularity: Zipf ranks over the corpus (rank -> a random item), or
  // over the most recent publishes on the durable workload.
  Rng op_rng(DeriveStreamSeed(seed, 3));
  std::vector<size_t> by_rank(items.size());
  std::iota(by_rank.begin(), by_rank.end(), 0);
  op_rng.Shuffle(&by_rank);
  const ZipfGenerator popular(items.size(), 1.0);
  const ZipfGenerator recent(kRecentWindow, 1.0);

  std::atomic<bool> sampling{traced};
  std::atomic<int> threads_peak{0};
  std::thread sampler;
  if (traced) {
    fleet.timed()->TakeFrames();  // keep only the measured phase's frames
    sampler = std::thread([&] {
      while (sampling.load()) {
        threads_peak.store(std::max(threads_peak.load(), ThreadsNow()));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }

  run.setup_s = SecondsSince(ProcessStart());
  const obs::Counter* rpc_calls = fleet.tcp().metrics().GetCounter("rpc.calls");
  uint64_t next_trace = 1;
  const Clock::time_point start = Clock::now();
  while (fixed_rounds != 0 ? run.rounds < fixed_rounds
                           : run.rounds == 0 || SecondsSince(start) < seconds) {
    for (int k = 0; k < p.publishes_per_round + p.searches_per_round; ++k) {
      const bool publish = k < p.publishes_per_round;
      const uint64_t trace = next_trace++;
      if (traced) run.ops[trace] = publish ? Op::kPublish : Op::kSearch;
      if (publish) {
        Item it = corpus.Next();
        const DataItem d = MakeItem(it);
        tracer.SetTrace(trace);
        const uint64_t calls0 = rpc_calls->value();
        const int64_t t0 = NowNs();
        Status s;
        {
          ScopedSpan span("net.node.publish");
          s = fleet.node(it.publisher).Publish(d);
        }
        const int64_t ns = NowNs() - t0;
        run.publish_calls += rpc_calls->value() - calls0;
        tracer.SetTrace(0);
        ++run.publishes;
        if (!s.ok()) {
          ++run.failed;
          fail("publish of item " + std::to_string(it.id) + ": " + s.ToString());
          continue;
        }
        run.publish_us.push_back(static_cast<double>(ns) * 1e-3);
        items.push_back(std::move(it));
        continue;
      }
      size_t pick;
      if (p.durable) {
        size_t r = recent.Next(&op_rng);
        if (r >= items.size()) r %= items.size();
        pick = items.size() - 1 - r;
      } else {
        pick = by_rank[popular.Next(&op_rng)];
      }
      const Item& it = items[pick];
      const size_t origin = op_rng.UniformIndex(fleet.size());
      tracer.SetTrace(trace);
      const uint64_t calls0 = rpc_calls->value();
      const int64_t t0 = NowNs();
      Result<std::vector<WireEntry>> r = Status::Internal("unset");
      {
        ScopedSpan span("net.node.search");
        r = fleet.node(origin).Search(it.key);
      }
      const int64_t ns = NowNs() - t0;
      run.search_calls += rpc_calls->value() - calls0;
      tracer.SetTrace(0);
      ++run.searches;
      if (!r.ok()) {
        ++run.failed;
        fail("search for item " + std::to_string(it.id) + ": " + r.status().ToString());
        continue;
      }
      run.search_us.push_back(static_cast<double>(ns) * 1e-3);
      fail(CheckSearchHit(*r, it.id, fleet.address(it.publisher)));
    }
    ++run.rounds;
  }
  run.measured_s = SecondsSince(start);
  if (traced) {
    sampling.store(false);
    sampler.join();
    run.threads_peak = threads_peak.load();
    run.codec_ns = CodecNsPerFrame(fleet.timed()->TakeFrames());
  }

  // Routing lands on a responsible node.
  fail(CheckResponsible(RouteAnswers(fleet, items, kRouteSample, &op_rng)));

  if (traced) {
    // p50 of a Call to a no-op handler on the fleet's transport.
    Result<std::string> echo = fleet.tcp().ServeAnyPort(
        "127.0.0.1", [](const std::string&, const std::string&) { return std::string(); });
    if (echo.ok()) {
      std::vector<double> us;
      for (int i = 0; i < 2'000; ++i) {
        const int64_t t0 = NowNs();
        (void)fleet.tcp().Call(*echo, "perfbench", "x");
        us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      }
      run.echo_call_us = Percentile(us, 0.5);
      fleet.tcp().StopServing(*echo);
    }
    for (size_t i = 0; i < fleet.size(); ++i) run.entries_held += fleet.node(i).entries().size();
    if (!storage_dir.empty()) run.disk_bytes = DirectoryBytes(storage_dir);
  }

  if (restart_check) {
    // What each node recovers from disk must equal what it held.
    const auto [before, after] = Restart(fleet, fail);
    for (size_t i = 0; i < before.size(); ++i) fail(CheckRecovered(before[i], after[i]));
  }
  run.span_end = tracer.spans().size();
  return run;
}

/// Self times (us) of spans named `name` in [begin, end) of the trace.
std::vector<double> SelfUs(const std::vector<int64_t>& self, size_t begin, size_t end,
                           const std::string& name) {
  std::vector<double> out;
  const auto& spans = Tracer::Get().spans();
  for (size_t i = begin; i < end; ++i) {
    if (name == spans[i].name) out.push_back(static_cast<double>(self[i]) * 1e-3);
  }
  return out;
}

}  // namespace

RunResult RunNodeWorkload(const RunOptions& opt) {
  const bool durable = opt.workload == "node_write_durable";
  const NodeParams& p = durable ? kDurableParams : kReadParams;
  const std::string storage_dir = opt.out_dir + "/storage-" + opt.workload + "-" +
                                  std::to_string(opt.seed) + "-" +
                                  std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  std::filesystem::remove_all(storage_dir, ec);

  FleetRun run = RunFleet(p, opt.seed, durable ? storage_dir : "", opt.trace, opt.seconds, 0,
                          durable);
  std::fprintf(stderr,
               "%s%s: set-up %.2f s, measured %.2f s (%llu rounds): %llu searches, %.2f "
               "connections each, p50 %.1f us, p99 %.1f us; %llu publishes, %.2f connections "
               "each, p50 %.1f us, p99 %.1f us; process time %.2f s\n",
               opt.trace ? "traced " : "", opt.workload.c_str(), run.setup_s, run.measured_s,
               static_cast<unsigned long long>(run.rounds),
               static_cast<unsigned long long>(run.searches),
               static_cast<double>(run.search_calls) / static_cast<double>(run.searches),
               Percentile(run.search_us, 0.5), Percentile(run.search_us, 0.99),
               static_cast<unsigned long long>(run.publishes),
               static_cast<double>(run.publish_calls) / static_cast<double>(run.publishes),
               Percentile(run.publish_us, 0.5), Percentile(run.publish_us, 0.99),
               SecondsSince(ProcessStart()));
  RunResult res;
  res.attempted = run.searches + run.publishes;
  res.failed = run.failed;
  for (const std::string& e : run.errors) res.Check(e);

  if (!opt.trace) {
    std::filesystem::remove_all(storage_dir, ec);
    res.Set("setup_s", run.setup_s, "s");
    res.Set("peak_rss_mb", PeakRssMb(), "MiB");
    res.Set("update_per_s", WindowedRate(run.publish_us, kRateWindow), "1/s");
    res.Set("update_p50_us", Percentile(run.publish_us, 0.5), "us");
    res.Set("lookup_per_s", WindowedRate(run.search_us, kRateWindow), "1/s");
    res.Set("lookup_p50_us", Percentile(run.search_us, 0.5), "us");
    return res;
  }

  // Traced run: per-layer metrics from the spans.
  const std::vector<int64_t> self = Tracer::Get().SelfTimesNs();
  const size_t b = run.span_begin, e = run.span_end;
  uint64_t search_calls = 0, publish_calls = 0;
  {
    const auto& spans = Tracer::Get().spans();
    for (size_t i = b; i < e; ++i) {
      if (std::string("net.tcp_transport.call") != spans[i].name) continue;
      auto it = run.ops.find(spans[i].trace);
      if (it == run.ops.end()) continue;
      (it->second == Op::kSearch ? search_calls : publish_calls) += 1;
    }
  }
  res.Set("net.node.calls_per_search",
          static_cast<double>(search_calls) / static_cast<double>(run.searches), "count");
  res.Set("net.node.calls_per_publish",
          static_cast<double>(publish_calls) / static_cast<double>(run.publishes), "count");
  res.Set("net.node.client_self_us.search",
          Percentile(SelfUs(self, b, e, "net.node.search"), 0.5), "us");
  res.Set("net.tcp_transport.call_us", run.echo_call_us, "us");
  res.Set("net.tcp_transport.threads_peak", run.threads_peak, "count");
  for (const char* type : {"query", "publish", "entry_push", "exchange"}) {
    const std::string span = std::string("net.node.serve.") + type;
    res.Set("net.node.serve_us." + std::string(type), Percentile(SelfUs(self, b, e, span), 0.5),
            "us");
  }
  res.Set("net.wire.codec_ns", run.codec_ns, "ns");

  double serve_extra = 0, bytes_per_entry = 0;
  if (durable) {
    // The storage-off twin: same seed, same rounds; the persist layer's share
    // of a served mutating request is the difference of the mean serve times.
    FleetRun twin = RunFleet(p, opt.seed, "", true, 0, run.rounds, false);
    for (const std::string& err : twin.errors) res.Check("storage-off twin: " + err);
    const std::vector<int64_t> self2 = Tracer::Get().SelfTimesNs();
    auto mutating_mean = [&](size_t lo, size_t hi) {
      std::vector<double> v = SelfUs(self2, lo, hi, "net.node.serve.publish");
      const std::vector<double> push = SelfUs(self2, lo, hi, "net.node.serve.entry_push");
      v.insert(v.end(), push.begin(), push.end());
      return Mean(v);
    };
    serve_extra = mutating_mean(b, e) - mutating_mean(twin.span_begin, twin.span_end);
    if (run.entries_held > 0) {
      bytes_per_entry =
          static_cast<double>(run.disk_bytes) / static_cast<double>(run.entries_held);
    }
  }
  std::filesystem::remove_all(storage_dir, ec);
  res.Set("net.node_persist.serve_extra_us", serve_extra, "us");
  res.Set("net.node_persist.disk_bytes_per_entry", bytes_per_entry, "B");
  return res;
}

std::vector<CheckDemo> NodeCheckDemos(const std::string& storage_dir) {
  constexpr NodeParams kSmall{8, 3, 3, 0.9, true, 200, 4, 1};
  std::vector<CheckDemo> demos;
  std::vector<std::string> errors;
  const FailFn fail = [&errors](const std::string& e) {
    if (!e.empty()) errors.push_back(e);
  };
  std::error_code ec;
  std::filesystem::remove_all(storage_dir, ec);
  {
    Fleet fleet(kSmall, 7, storage_dir, false);
    fail(fleet.Boot());
    Corpus corpus(7, fleet.size());
    SetUpFleet(fleet, kSmall, 7, &corpus, fail);
    const Item& it = corpus.items.front();
    const std::string holder = fleet.address(it.publisher);

    Result<std::vector<WireEntry>> hit = fleet.node(1).Search(it.key);
    std::vector<WireEntry> entries = hit.ok() ? *hit : std::vector<WireEntry>{};
    CheckDemo search{"CheckSearchHit", "holder of the returned entry rewritten",
                     CheckSearchHit(entries, it.id, holder), ""};
    for (WireEntry& e : entries) e.holder = "127.0.0.1:1";
    search.corrupted = CheckSearchHit(entries, it.id, holder);
    demos.push_back(search);

    Rng rng(7);
    std::vector<Answer> answers = RouteAnswers(fleet, corpus.items, 50, &rng);
    CheckDemo route{"CheckResponsible (RouteToResponsible)",
                    "responder path's first bit flipped", CheckResponsible(answers), ""};
    KeyPath flipped;
    const KeyPath& path = answers.front().responder_path;
    for (size_t i = 0; i < path.length(); ++i) flipped.PushBack(i == 0 ? 1 - path.bit(0) : path.bit(i));
    answers.front().responder_path = flipped;
    route.corrupted = CheckResponsible(answers);
    demos.push_back(route);

    auto [before, after] = Restart(fleet, fail);
    CheckDemo restart{"CheckRecovered", "one recovered entry dropped", "", ""};
    for (size_t i = 0; i < before.size(); ++i) {
      const std::string e = CheckRecovered(before[i], after[i]);
      if (restart.clean.empty()) restart.clean = e;
    }
    for (size_t i = 0; i < after.size(); ++i) {
      if (after[i].entries.empty()) continue;
      after[i].entries.pop_back();
      restart.corrupted = CheckRecovered(before[i], after[i]);
      break;
    }
    demos.push_back(restart);
  }
  std::filesystem::remove_all(storage_dir, ec);
  if (!errors.empty()) demos.push_back(CheckDemo{"node fleet set-up", "none", errors.front(), "x"});
  return demos;
}

}  // namespace perfbench
