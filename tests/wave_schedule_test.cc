// The wave schedule's whole contract (core/wave_schedule.h): a batch of
// meetings is partitioned into waves such that
//   (1) validity      -- no two meetings in a wave share an endpoint,
//   (2) completeness  -- every meeting is scheduled exactly once,
//   (3) determinism   -- the waves are a pure function of the batch,
//   (4) the bound     -- for simple batches, waves <= max_degree + 1 (Vizing).
// Parallel edges (the same pair drawn twice in one batch) can legitimately
// exceed the Vizing bound -- the multigraph bound is max_degree +
// max_multiplicity -- which is pinned here too so the fallback path stays
// covered.

#include "core/wave_schedule.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/rng.h"

namespace pgrid {
namespace {

/// Renders the schedule as "w0: 1 4 7 | w1: 0 2 ..." for equality comparison.
std::string Render(const WaveSchedule& s) {
  std::ostringstream out;
  for (size_t w = 0; w < s.num_waves(); ++w) {
    out << "w" << w << ":";
    for (uint32_t e : s.wave(w)) out << " " << e;
    out << " | ";
  }
  return out.str();
}

/// Asserts validity + completeness for `edges`, returning the wave count.
size_t CheckProper(const WaveSchedule& s, const std::vector<WaveEdge>& edges) {
  EXPECT_EQ(s.num_edges(), edges.size());
  std::vector<int> seen(edges.size(), 0);
  size_t total = 0;
  for (size_t w = 0; w < s.num_waves(); ++w) {
    std::set<PeerId> endpoints;
    EXPECT_FALSE(s.wave(w).empty()) << "empty wave " << w;
    for (uint32_t e : s.wave(w)) {
      EXPECT_LT(e, edges.size());
      if (e >= edges.size()) continue;
      ++seen[e];
      ++total;
      // Validity: both endpoints unused so far within this wave.
      EXPECT_TRUE(endpoints.insert(edges[e].a).second)
          << "wave " << w << " reuses peer " << edges[e].a;
      EXPECT_TRUE(endpoints.insert(edges[e].b).second)
          << "wave " << w << " reuses peer " << edges[e].b;
    }
    // Items inside a wave keep input order (part of the slot contract).
    EXPECT_TRUE(std::is_sorted(s.wave(w).begin(), s.wave(w).end()));
  }
  EXPECT_EQ(total, edges.size());
  for (size_t e = 0; e < edges.size(); ++e) {
    EXPECT_EQ(seen[e], 1) << "edge " << e << " scheduled " << seen[e] << " times";
  }
  return s.num_waves();
}

size_t MaxDegree(const std::vector<WaveEdge>& edges) {
  std::vector<size_t> deg;
  for (const WaveEdge& e : edges) {
    const size_t need = std::max(e.a, e.b) + 1;
    if (deg.size() < need) deg.resize(need, 0);
    ++deg[e.a];
    ++deg[e.b];
  }
  return deg.empty() ? 0 : *std::max_element(deg.begin(), deg.end());
}

/// Reference coloring: Misra-Gries exactly as first implemented -- a palette
/// of max_degree + 1 fixed for the whole batch up front, and linear scans over
/// it for the smallest free color and the fan candidates. WaveSchedule must
/// produce the same waves (it keeps per-vertex color bitmasks and grows the
/// palette as edges arrive); tests compare the two wave for wave.
class ScanReference {
 public:
  explicit ScanReference(const std::vector<WaveEdge>& edges) {
    std::map<PeerId, uint32_t> dense;
    for (const WaveEdge& e : edges) {
      u_.push_back(dense.emplace(e.a, static_cast<uint32_t>(dense.size())).first->second);
      v_.push_back(dense.emplace(e.b, static_cast<uint32_t>(dense.size())).first->second);
    }
    vertices_ = static_cast<uint32_t>(dense.size());
    std::vector<uint32_t> degree(vertices_, 0);
    for (size_t e = 0; e < edges.size(); ++e) {
      ++degree[u_[e]];
      ++degree[v_[e]];
    }
    max_degree_ = degree.empty() ? 0 : *std::max_element(degree.begin(), degree.end());
    palette_ = max_degree_ + 1;
    at_.assign(static_cast<size_t>(vertices_) * palette_, kNone);
    color_.assign(edges.size(), kNone);
    for (uint32_t e = 0; e < edges.size(); ++e) ColorEdge(e);
    std::vector<uint32_t> wave_of(palette_, kNone);
    for (const uint32_t c : color_) wave_of[c] = 0;
    for (uint32_t c = 0; c < palette_; ++c) {
      if (wave_of[c] == kNone) continue;
      wave_of[c] = static_cast<uint32_t>(waves.size());
      waves.emplace_back();
    }
    for (uint32_t e = 0; e < edges.size(); ++e) waves[wave_of[color_[e]]].push_back(e);
    fallback_colors = palette_ - (max_degree_ + 1);
  }

  std::vector<std::vector<uint32_t>> waves;
  size_t fallback_colors = 0;

 private:
  static constexpr uint32_t kNone = 0xffffffffu;

  uint32_t& At(uint32_t v, uint32_t c) { return at_[static_cast<size_t>(v) * palette_ + c]; }
  uint32_t Other(uint32_t e, uint32_t x) const { return u_[e] == x ? v_[e] : u_[e]; }
  uint32_t FreeColor(uint32_t v) {
    for (uint32_t c = 0; c < palette_; ++c) {
      if (At(v, c) == kNone) return c;
    }
    return kNone;
  }
  void Assign(uint32_t e, uint32_t to) {
    if (color_[e] != kNone) {
      At(u_[e], color_[e]) = kNone;
      At(v_[e], color_[e]) = kNone;
    }
    color_[e] = to;
    if (to != kNone) {
      At(u_[e], to) = e;
      At(v_[e], to) = e;
    }
  }
  void Rotate(const std::vector<uint32_t>& fan_edge, size_t j, uint32_t d) {
    std::vector<uint32_t> colors(j + 1, d);
    for (size_t i = 0; i < j; ++i) colors[i] = color_[fan_edge[i + 1]];
    for (size_t i = 1; i <= j; ++i) Assign(fan_edge[i], kNone);
    for (size_t i = 0; i <= j; ++i) Assign(fan_edge[i], colors[i]);
  }
  bool MisraGries(uint32_t e) {
    const uint32_t u = u_[e];
    std::vector<uint32_t> fan = {v_[e]};
    std::vector<uint32_t> fan_edge = {e};
    std::set<uint32_t> in_fan = {u, v_[e]};
    for (bool extended = true; extended;) {
      extended = false;
      for (uint32_t c = 0; c < palette_ && !extended; ++c) {
        if (At(fan.back(), c) != kNone || At(u, c) == kNone) continue;
        const uint32_t x = Other(At(u, c), u);
        if (!in_fan.insert(x).second) continue;
        fan.push_back(x);
        fan_edge.push_back(At(u, c));
        extended = true;
      }
    }
    const uint32_t c = FreeColor(u);
    const uint32_t d = FreeColor(fan.back());
    if (At(u, d) == kNone) {
      Rotate(fan_edge, fan.size() - 1, d);
      return true;
    }
    std::vector<uint32_t> path;
    for (uint32_t x = u, col = d; At(x, col) != kNone; col = col == d ? c : d) {
      path.push_back(At(x, col));
      x = Other(path.back(), x);
    }
    for (const uint32_t pe : path) Assign(pe, kNone);
    for (size_t i = 0; i < path.size(); ++i) Assign(path[i], i % 2 == 0 ? c : d);
    for (size_t j = 0; j < fan.size(); ++j) {
      if (j > 0) {
        const uint32_t ce = color_[fan_edge[j]];
        if (ce == kNone || At(fan[j - 1], ce) != kNone) break;
      }
      if (At(fan[j], d) == kNone) {
        Rotate(fan_edge, j, d);
        return true;
      }
    }
    return false;
  }
  void ColorEdge(uint32_t e) {
    if (MisraGries(e)) return;
    for (uint32_t c = 0;; ++c) {
      if (c >= palette_) GrowPalette(c + 1);
      if (At(u_[e], c) == kNone && At(v_[e], c) == kNone) {
        Assign(e, c);
        return;
      }
    }
  }
  void GrowPalette(uint32_t colors) {
    std::vector<uint32_t> grown(static_cast<size_t>(vertices_) * colors, kNone);
    for (size_t v = 0; v < vertices_; ++v) {
      std::copy_n(at_.begin() + v * palette_, palette_, grown.begin() + v * colors);
    }
    at_ = std::move(grown);
    palette_ = colors;
  }

  std::vector<uint32_t> u_, v_, color_, at_;
  uint32_t vertices_ = 0;
  uint32_t max_degree_ = 0;
  uint32_t palette_ = 0;
};

std::string Render(const std::vector<std::vector<uint32_t>>& waves) {
  std::ostringstream out;
  for (size_t w = 0; w < waves.size(); ++w) {
    out << "w" << w << ":";
    for (uint32_t e : waves[w]) out << " " << e;
    out << " | ";
  }
  return out.str();
}

/// Colors `edges` with `s` and with the scan reference; both must agree wave
/// for wave and on the fallback count.
void ExpectMatchesScanReference(WaveSchedule* s, const std::vector<WaveEdge>& edges,
                                const std::string& label) {
  s->Color(edges);
  const ScanReference ref(edges);
  EXPECT_EQ(Render(*s), Render(ref.waves)) << label;
  EXPECT_EQ(s->fallback_colors(), ref.fallback_colors) << label;
}

/// A random batch the way the builder produces one: distinct pairs, possibly
/// repeated across draws (multigraph). `simple` dedups the pairs.
std::vector<WaveEdge> RandomBatch(Rng* rng, size_t num_peers, size_t count,
                                  bool simple) {
  std::vector<WaveEdge> edges;
  std::set<std::pair<PeerId, PeerId>> used;
  while (edges.size() < count) {
    const PeerId a = static_cast<PeerId>(rng->UniformIndex(num_peers));
    PeerId b = static_cast<PeerId>(rng->UniformIndex(num_peers));
    if (a == b) continue;
    if (simple) {
      const auto key = std::minmax(a, b);
      if (!used.insert(key).second) continue;
    }
    edges.push_back({a, b});
  }
  return edges;
}

TEST(WaveScheduleTest, EmptyBatchHasNoWaves) {
  WaveSchedule s;
  s.Color({});
  EXPECT_EQ(s.num_waves(), 0u);
  EXPECT_EQ(s.num_edges(), 0u);
  EXPECT_EQ(s.max_degree(), 0u);
}

TEST(WaveScheduleTest, DisjointMeetingsShareOneWave) {
  WaveSchedule s;
  s.Color({{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  EXPECT_EQ(s.num_waves(), 1u);
  EXPECT_EQ(s.wave(0).size(), 4u);
  EXPECT_EQ(s.max_degree(), 1u);
}

TEST(WaveScheduleTest, StarNeedsOneWavePerMeeting) {
  // Every meeting shares peer 0; the waves cannot do better than width 1.
  WaveSchedule s;
  s.Color({{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  std::vector<WaveEdge> edges = {{0, 1}, {0, 2}, {0, 3}, {0, 4}};
  EXPECT_EQ(CheckProper(s, edges), 4u);
  EXPECT_EQ(s.max_degree(), 4u);
}

TEST(WaveScheduleTest, OddCycleNeedsMaxDegreePlusOne) {
  // A triangle has max degree 2 but chromatic index 3: the bound is tight.
  const std::vector<WaveEdge> edges = {{0, 1}, {1, 2}, {2, 0}};
  WaveSchedule s;
  s.Color(edges);
  EXPECT_EQ(CheckProper(s, edges), 3u);
  EXPECT_EQ(s.max_degree(), 2u);
  EXPECT_EQ(s.fallback_colors(), 0u);
}

TEST(WaveScheduleTest, SimpleBatchesRespectTheVizingBound) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t peers = 4 + rng.UniformIndex(60);
    const size_t max_edges = peers * (peers - 1) / 2;
    const size_t count = 1 + rng.UniformIndex(std::min<size_t>(max_edges, 160));
    const std::vector<WaveEdge> edges =
        RandomBatch(&rng, peers, count, /*simple=*/true);
    WaveSchedule s;
    s.Color(edges);
    const size_t waves = CheckProper(s, edges);
    EXPECT_EQ(s.max_degree(), MaxDegree(edges));
    EXPECT_LE(waves, s.max_degree() + 1)
        << "trial " << trial << ": " << waves << " waves for max degree "
        << s.max_degree();
    EXPECT_EQ(s.fallback_colors(), 0u) << "trial " << trial;
  }
}

TEST(WaveScheduleTest, BuilderShapedBatchesRespectTheVizingBound) {
  // The shape the builder actually colors: batch_size meetings over a much
  // larger community, where repeats are rare but possible. When the draw
  // happens to be simple, the Vizing bound must hold.
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<WaveEdge> edges =
        RandomBatch(&rng, 2000, 256, /*simple=*/true);
    WaveSchedule s;
    s.Color(edges);
    CheckProper(s, edges);
    EXPECT_LE(s.num_waves(), s.max_degree() + 1);
    EXPECT_EQ(s.fallback_colors(), 0u);
  }
}

TEST(WaveScheduleTest, ParallelEdgesStayValidWithinTheMultigraphBound) {
  // A doubled triangle: max degree 4, but 6 waves are required (each copy of
  // each triangle edge needs its own color) -- Vizing's multigraph bound
  // max_degree + max_multiplicity, not max_degree + 1.
  const std::vector<WaveEdge> edges = {{0, 1}, {1, 2}, {2, 0},
                                       {0, 1}, {1, 2}, {2, 0}};
  WaveSchedule s;
  s.Color(edges);
  EXPECT_EQ(CheckProper(s, edges), 6u);
  EXPECT_EQ(s.max_degree(), 4u);
  EXPECT_LE(s.num_waves(), s.max_degree() + 2u);  // degree + multiplicity
}

TEST(WaveScheduleTest, RandomMultigraphBatchesAreProper) {
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t peers = 3 + rng.UniformIndex(12);  // small: force repeats
    const std::vector<WaveEdge> edges =
        RandomBatch(&rng, peers, 64, /*simple=*/false);
    WaveSchedule s;
    s.Color(edges);
    CheckProper(s, edges);
    // Vizing for multigraphs; multiplicity <= max_degree, so 2 * degree is a
    // safe ceiling that still catches a runaway palette.
    EXPECT_LE(s.num_waves(), 2 * s.max_degree());
  }
}

TEST(WaveScheduleTest, ScheduleIsAPureFunctionOfTheBatch) {
  Rng rng(5);
  const std::vector<WaveEdge> edges = RandomBatch(&rng, 500, 256, false);

  WaveSchedule a;
  a.Color(edges);
  const std::string first = Render(a);
  ASSERT_FALSE(first.empty());

  // Same input on the same (reused) instance and on a fresh instance.
  for (int i = 0; i < 3; ++i) {
    a.Color(edges);
    EXPECT_EQ(Render(a), first) << "reused instance, round " << i;
  }
  WaveSchedule b;
  b.Color(edges);
  EXPECT_EQ(Render(b), first) << "fresh instance";

  // Interleaving unrelated batches must not leak state into the result.
  WaveSchedule c;
  c.Color(RandomBatch(&rng, 50, 64, false));
  c.Color(edges);
  EXPECT_EQ(Render(c), first) << "after an unrelated batch";
}

TEST(WaveScheduleTest, InputOrderIsPartOfTheFunction) {
  // The schedule is a function of the *list*, order included -- reversing the
  // batch may give different waves, and that is fine as long as each run is
  // individually proper. (The builder always presents items in schedule order.)
  Rng rng(13);
  const std::vector<WaveEdge> edges = RandomBatch(&rng, 40, 80, false);
  std::vector<WaveEdge> reversed(edges.rbegin(), edges.rend());
  WaveSchedule s;
  s.Color(edges);
  CheckProper(s, edges);
  s.Color(reversed);
  CheckProper(s, reversed);
}

TEST(WaveScheduleTest, ReusedInstanceHandlesGrowingPeerIds) {
  // Dense-id scratch is stamped, not cleared; feeding batches over disjoint,
  // ascending PeerId ranges must not confuse it.
  WaveSchedule s;
  for (uint32_t base : {0u, 100000u, 5u, 70000u}) {
    std::vector<WaveEdge> edges;
    for (uint32_t i = 0; i < 16; ++i) {
      edges.push_back({base + i, base + 16 + i});
      edges.push_back({base + i, base + 32 + i});
    }
    s.Color(edges);
    CheckProper(s, edges);
    EXPECT_LE(s.num_waves(), s.max_degree() + 1);
  }
}

TEST(WaveScheduleTest, BitmaskColoringMatchesTheScanColoringBelow64Colors) {
  // Builder-shaped rounds (few repeats) and dense multigraphs (many repeats,
  // exercising the parallel-edge fallback), all with palettes under 64.
  Rng rng(31);
  WaveSchedule s;
  for (int trial = 0; trial < 60; ++trial) {
    const bool dense = trial % 2 == 1;
    const size_t peers = dense ? 3 + rng.UniformIndex(10) : 200 + rng.UniformIndex(2000);
    const size_t count = dense ? 8 + rng.UniformIndex(40) : 64 + rng.UniformIndex(600);
    const std::vector<WaveEdge> edges = RandomBatch(&rng, peers, count, false);
    ASSERT_LT(MaxDegree(edges) + 1, 64u);
    ExpectMatchesScanReference(&s, edges, "trial " + std::to_string(trial));
  }
}

TEST(WaveScheduleTest, BitmaskColoringMatchesTheScanColoringAbove64Colors) {
  // Hubs of degree 70-130 push the palette past one 64-bit mask word; random
  // edges and repeated hub pairs around them keep fans and cd-paths long.
  Rng rng(47);
  WaveSchedule s;
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<WaveEdge> edges = RandomBatch(&rng, 150, 300, false);
    const size_t hub_degree = 70 + rng.UniformIndex(60);
    for (size_t i = 0; i < hub_degree + hub_degree / 3; ++i) {
      const PeerId hub = i < hub_degree ? 1000 : 1001;  // a big and a small hub
      const PeerId other = static_cast<PeerId>(rng.UniformIndex(150));
      edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(rng.UniformIndex(edges.size())),
                   WaveEdge{hub, other});
    }
    ASSERT_GE(MaxDegree(edges) + 1, 64u);
    ExpectMatchesScanReference(&s, edges, "trial " + std::to_string(trial));
  }
}

TEST(WaveScheduleTest, ReusedInstanceMatchesTheScanColoringAcrossPaletteSizes) {
  // One instance colors rounds whose palettes grow past 64 colors and shrink
  // again: rows and masks left from a wider round must not leak into a
  // narrower one (and vice versa), and each round still matches the reference.
  Rng rng(53);
  WaveSchedule s;
  for (const size_t hub_degree : {8u, 100u, 3u, 140u, 20u, 0u, 66u}) {
    std::vector<WaveEdge> edges = RandomBatch(&rng, 300, 200, false);
    for (size_t i = 0; i < hub_degree; ++i) {
      edges.push_back({7, static_cast<PeerId>(rng.UniformIndex(300) + 300)});
    }
    ExpectMatchesScanReference(&s, edges, "hub degree " + std::to_string(hub_degree));
    CheckProper(s, edges);
  }
}

TEST(WaveScheduleTest, IncrementalRoundEqualsOneShotColoring) {
  // The builder feeds a round edge by edge (Begin / Add / Finish) while the
  // previous round runs; the waves must equal a one-shot Color() of the list.
  Rng rng(61);
  WaveSchedule incremental;
  WaveSchedule oneshot;
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<WaveEdge> edges =
        RandomBatch(&rng, 20 + rng.UniformIndex(400), 1 + rng.UniformIndex(500), false);
    incremental.Begin();
    for (const WaveEdge& e : edges) incremental.Add(e);
    incremental.Finish();
    oneshot.Color(edges);
    EXPECT_EQ(Render(incremental), Render(oneshot)) << "trial " << trial;
    EXPECT_EQ(incremental.max_degree(), oneshot.max_degree());
    EXPECT_EQ(incremental.fallback_colors(), oneshot.fallback_colors());
  }
}

}  // namespace
}  // namespace pgrid
