// Conflict-free wave scheduling via deterministic edge coloring.
//
// The parallel builder (core/parallel_builder.h) executes a batch of meetings
// concurrently, but two meetings that share a peer mutate the same PeerState
// and therefore must not run in the same wave. PR 3 solved this with a greedy
// per-wave claim loop: every wave re-scanned the remaining items and admitted
// those whose endpoints were still unclaimed. That discovers a legal partition,
// but badly: at realistic batch sizes ~68% of scan visits hit an already
// claimed endpoint (the profiler's claim-conflict rate), the tail waves shrink
// to a handful of items (pure barrier overhead), and the scan itself is serial
// work repeated once per wave.
//
// This module replaces discovery with computation. A batch of meetings is a
// multigraph over peers -- meetings are edges, peers are vertices -- and a
// partition into conflict-free waves is exactly a proper *edge coloring*: no
// two edges of one color share a vertex, so each color class is a wave the
// thread pool can execute with zero claim traffic. The coloring runs serially,
// once per round, and is a pure function of the item list (no RNG, no
// dependence on thread count or timing), so the wave structure -- and with it
// the item -> slot assignment that drives the deterministic per-slot RNG
// streams -- is part of the schedule, never of the execution.
//
// Algorithm: Misra & Gries (1992), the constructive form of Vizing's theorem.
// Edges are processed in input order; each uncolored edge (u, v) builds a
// maximal fan of u, inverts one cd-alternating path, rotates the fan, and
// colors the edge -- all with colors from a palette of max_degree() + 1. For
// *simple* batches (no repeated pair) this yields the Vizing bound:
//
//     waves() <= max_degree() + 1
//
// which is within one of the trivial lower bound max_degree(). Batches may
// contain parallel edges (the same pair drawn twice); Vizing's bound for
// multigraphs is max_degree + max_multiplicity, and the fan argument can fail
// on such edges, in which case the edge falls back to the smallest color free
// at both endpoints, growing the palette when none exists (counted in
// fallback_colors()). tests/wave_schedule_test.cc pins the simple-batch bound,
// the multigraph behavior, validity, completeness, and determinism.
//
// Cost. Every vertex keeps a bitmask of the colors present at it next to its
// color -> edge table, so the two scans the algorithm repeats -- the smallest
// free color at a vertex, and the next fan candidate (a color free at the fan
// tail and present at u) -- are a count-trailing-zeros over one word per 64
// colors instead of a walk over the palette. The masks only accelerate the
// scans: candidates are still visited in ascending color order, so the
// coloring is the same as a plain scan's (the test suite checks this wave for
// wave against a scan reference, below and above 64 colors).
//
// Incremental use. Edge k is colored from edges 0..k alone: the smallest free
// color at an endpoint is below its degree, so a palette sized to the degrees
// seen so far admits exactly the choices the whole round's palette would. The
// builder therefore feeds a round's items through Begin / Add / Finish as
// they are produced, overlapping the coloring with the execution of the
// previous round's waves; Color() is the one-shot form. Either way the waves
// are a function of the edge list alone. (Later edges may recolor earlier
// ones, so the waves exist only after Finish.)
//
// Scratch state (per-peer stamps, palettes) is retained across rounds so a
// builder can reschedule every round without reallocating; none of it leaks
// into the result.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace pgrid {

/// One schedulable meeting: an edge of the batch multigraph. Only the
/// endpoints matter for scheduling; execution payload (recursion depth etc.)
/// stays with the caller, keyed by item index.
struct WaveEdge {
  PeerId a = 0;
  PeerId b = 0;
};

/// A conflict-free wave partition of one batch of meetings.
class WaveSchedule {
 public:
  WaveSchedule() = default;

  WaveSchedule(const WaveSchedule&) = delete;
  WaveSchedule& operator=(const WaveSchedule&) = delete;

  /// Edge-colors `edges` and replaces the previous schedule. Deterministic: the
  /// waves are a pure function of the edge list (order included). Self-loops
  /// (a == b) are rejected by PGRID_CHECK; the exchange algorithm never
  /// produces them. Equivalent to Begin(), Add() per edge, Finish().
  void Color(const std::vector<WaveEdge>& edges);

  /// Starts a new round; the previous schedule is discarded.
  void Begin();

  /// Appends one edge to the round and colors it against the edges added so
  /// far (possibly recoloring some of them).
  void Add(WaveEdge edge);

  /// Ends the round: builds the waves from the final coloring.
  void Finish();

  /// Number of waves (color classes with at least one edge).
  size_t num_waves() const { return num_waves_; }

  /// Item indices of wave `w`, ascending (== input order within the wave).
  const std::vector<uint32_t>& wave(size_t w) const { return waves_[w]; }

  /// Total edges scheduled (sum of wave widths; every input edge exactly once).
  size_t num_edges() const { return num_edges_; }

  /// Maximum vertex degree of the batch multigraph, counting multiplicity.
  /// For simple batches num_waves() <= max_degree() + 1 (Vizing).
  size_t max_degree() const { return max_degree_; }

  /// Colors introduced beyond the max_degree() + 1 palette because a parallel
  /// edge defeated the fan argument. 0 for every simple batch.
  size_t fallback_colors() const { return fallback_colors_; }

 private:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// Dense vertex id of `peer`, assigning one on first sight this round.
  uint32_t DenseId(PeerId peer);

  /// Smallest color in [0, palette_) with no edge at vertex `v`, or kNone.
  uint32_t FreeColor(uint32_t v) const;

  /// Colors edge `e`: Misra-Gries first, greedy fallback for parallel edges.
  void ColorEdge(uint32_t e);

  /// The fan / cd-path procedure. Returns false when a parallel edge defeats
  /// the fan argument (never for a simple batch); the edge stays uncolored.
  bool TryMisraGries(uint32_t e);

  /// Inverts the maximal path from `u` whose edges alternate colors d, c, ...
  void InvertPath(uint32_t u, uint32_t c, uint32_t d);

  /// Rotates the fan prefix [0, j]: edge (u, fan_[i]) takes the color of edge
  /// (u, fan_[i+1]) for i < j, and edge (u, fan_[j]) takes `d`.
  void RotateAndColor(size_t j, uint32_t d);

  /// Edge colored `c` at vertex `v`, or kNone. The bitmask is authoritative:
  /// a table entry is only meaningful while its bit is set, so fresh rows need
  /// no initialization beyond their mask words.
  uint32_t EdgeAt(uint32_t v, uint32_t c) const {
    if ((UsedWord(v, c / 64) >> (c % 64) & 1) == 0) return kNone;
    return at_[static_cast<size_t>(v) * palette_cap_ + c];
  }
  /// Sets the color-`c` edge of `v` (kNone clears it).
  void SetEdgeAt(uint32_t v, uint32_t c, uint32_t e) {
    uint64_t& word = used_[static_cast<size_t>(v) * words_ + c / 64];
    const uint64_t bit = uint64_t{1} << (c % 64);
    if (e == kNone) {
      word &= ~bit;
    } else {
      word |= bit;
      at_[static_cast<size_t>(v) * palette_cap_ + c] = e;
    }
  }
  /// Word `w` of the bitmask of colors present at `v`.
  uint64_t UsedWord(uint32_t v, uint32_t w) const {
    return used_[static_cast<size_t>(v) * words_ + w];
  }

  /// Recolors edge `e` (currently `from` or uncolored) to `to`, updating both
  /// endpoint tables.
  void Assign(uint32_t e, uint32_t to);

  /// Grows the palette to `colors`, re-striding the per-vertex tables when the
  /// capacity is exceeded.
  void GrowPalette(uint32_t colors);

  // Round-scoped working state. Vertices are dense ids 0..num_vertices_-1.
  struct DenseSlot {
    uint32_t stamp = 0;  // round in which `id` was assigned
    uint32_t id = 0;
  };
  std::vector<DenseSlot> dense_;  // PeerId -> dense id of the stamped round
  uint32_t round_ = 0;
  uint32_t num_vertices_ = 0;

  std::vector<uint32_t> edge_u_, edge_v_;  // dense endpoints per edge
  std::vector<uint32_t> color_;            // edge -> color (kNone = uncolored)
  std::vector<uint32_t> at_;               // vertex x color -> edge (strided)
  std::vector<uint64_t> used_;             // vertex x word -> colors present
  uint32_t palette_ = 0;                   // colors currently permitted
  uint32_t palette_cap_ = 0;               // stride of at_
  uint32_t words_ = 0;                     // stride of used_: palette_cap_ in words

  // Fan/path scratch.
  std::vector<uint32_t> degree_;        // dense vertex -> degree this round
  std::vector<uint32_t> fan_;           // fan vertices (fan_[0] = v)
  std::vector<uint32_t> fan_edge_;      // edge joining fan_[i] (fan_edge_[0] = e)
  std::vector<uint32_t> path_;          // cd-path edges, in walk order
  std::vector<uint32_t> rotate_colors_; // shifted colors during rotation
  std::vector<uint32_t> in_fan_stamp_;
  uint32_t fan_round_ = 0;

  // waves_[0, num_waves_) is the schedule; later entries are spare storage
  // kept, like wave_of_, so rescheduling does not reallocate.
  std::vector<std::vector<uint32_t>> waves_;
  size_t num_waves_ = 0;
  std::vector<uint32_t> wave_of_;  // color -> wave index (Finish scratch)
  size_t num_edges_ = 0;
  size_t max_degree_ = 0;
  size_t fallback_colors_ = 0;
};

}  // namespace pgrid
