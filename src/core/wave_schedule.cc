#include "core/wave_schedule.h"

#include <algorithm>
#include <bit>

#include "util/macros.h"

namespace pgrid {

namespace {

/// Palette capacity granted on the first growth, so small rounds never re-stride.
constexpr uint32_t kMinPaletteCap = 32;

}  // namespace

uint32_t WaveSchedule::DenseId(PeerId peer) {
  if (peer >= dense_.size()) dense_.resize(peer + 1);
  DenseSlot& slot = dense_[peer];
  if (slot.stamp == round_) return slot.id;
  slot.stamp = round_;
  const uint32_t v = num_vertices_++;
  slot.id = v;
  // Fresh row: no colors present. Rows past num_vertices_ hold stale data
  // from earlier rounds; clearing the mask words is enough (see EdgeAt).
  const size_t at_end = static_cast<size_t>(num_vertices_) * palette_cap_;
  if (at_.size() < at_end) at_.resize(at_end);
  const size_t used_end = static_cast<size_t>(num_vertices_) * words_;
  if (used_.size() < used_end) used_.resize(used_end);
  std::fill(used_.begin() + (used_end - words_), used_.begin() + used_end, 0);
  if (degree_.size() < num_vertices_) degree_.resize(num_vertices_);
  degree_[v] = 0;
  return v;
}

uint32_t WaveSchedule::FreeColor(uint32_t v) const {
  for (uint32_t w = 0; w < words_; ++w) {
    const uint64_t free = ~UsedWord(v, w);
    if (free == 0) continue;
    const uint32_t c = w * 64 + static_cast<uint32_t>(std::countr_zero(free));
    return c < palette_ ? c : kNone;
  }
  return kNone;
}

void WaveSchedule::Assign(uint32_t e, uint32_t to) {
  const uint32_t from = color_[e];
  if (from != kNone) {
    SetEdgeAt(edge_u_[e], from, kNone);
    SetEdgeAt(edge_v_[e], from, kNone);
  }
  color_[e] = to;
  if (to != kNone) {
    PGRID_DCHECK(EdgeAt(edge_u_[e], to) == kNone);
    PGRID_DCHECK(EdgeAt(edge_v_[e], to) == kNone);
    SetEdgeAt(edge_u_[e], to, e);
    SetEdgeAt(edge_v_[e], to, e);
  }
}

void WaveSchedule::GrowPalette(uint32_t colors) {
  if (colors <= palette_cap_) {
    palette_ = std::max(palette_, colors);
    return;
  }
  const uint32_t cap = std::max({colors, palette_cap_ * 2, kMinPaletteCap});
  const uint32_t words = (cap + 63) / 64;
  std::vector<uint32_t> at(static_cast<size_t>(num_vertices_) * cap);
  std::vector<uint64_t> used(static_cast<size_t>(num_vertices_) * words, 0);
  for (size_t v = 0; v < num_vertices_; ++v) {
    std::copy_n(at_.begin() + v * palette_cap_, palette_cap_, at.begin() + v * cap);
    std::copy_n(used_.begin() + v * words_, words_, used.begin() + v * words);
  }
  at_ = std::move(at);
  used_ = std::move(used);
  palette_cap_ = cap;
  words_ = words;
  palette_ = colors;
}

void WaveSchedule::InvertPath(uint32_t u, uint32_t c, uint32_t d) {
  // The maximal path from u alternating d, c, d, ... is simple: a proper
  // coloring gives every vertex at most one edge of each color, and only the
  // start vertex u lacks the "arrived on the other color" edge.
  path_.clear();
  uint32_t x = u;
  uint32_t col = d;
  for (;;) {
    const uint32_t pe = EdgeAt(x, col);
    if (pe == kNone) break;
    path_.push_back(pe);
    x = edge_u_[pe] == x ? edge_v_[pe] : edge_u_[pe];
    col = col == d ? c : d;
  }
  // Uncolor everything first so the at_ tables never hold two edges per slot
  // mid-swap; then re-add with c and d exchanged.
  for (const uint32_t pe : path_) Assign(pe, kNone);
  for (size_t i = 0; i < path_.size(); ++i) {
    Assign(path_[i], i % 2 == 0 ? c : d);
  }
}

void WaveSchedule::RotateAndColor(size_t j, uint32_t d) {
  rotate_colors_.resize(j + 1);
  for (size_t i = 0; i < j; ++i) rotate_colors_[i] = color_[fan_edge_[i + 1]];
  rotate_colors_[j] = d;
  // fan_edge_[0] is the edge being colored and is already uncolored.
  for (size_t i = 1; i <= j; ++i) Assign(fan_edge_[i], kNone);
  for (size_t i = 0; i <= j; ++i) Assign(fan_edge_[i], rotate_colors_[i]);
}

bool WaveSchedule::TryMisraGries(uint32_t e) {
  const uint32_t u = edge_u_[e];
  const uint32_t v = edge_v_[e];

  // Maximal fan of u: fan_[0] = v; fan_[i] (i >= 1) joins through a colored
  // edge (u, fan_[i]) whose color is free at fan_[i-1]; vertices are distinct.
  // Candidate colors -- free at the fan tail and present at u -- are visited
  // ascending, so the fan, like everything else here, is a deterministic
  // function of the current coloring.
  ++fan_round_;
  if (fan_round_ == 0) {
    std::fill(in_fan_stamp_.begin(), in_fan_stamp_.end(), 0);
    fan_round_ = 1;
  }
  if (in_fan_stamp_.size() < num_vertices_) {
    in_fan_stamp_.resize(num_vertices_, 0);
  }
  fan_.clear();
  fan_edge_.clear();
  fan_.push_back(v);
  fan_edge_.push_back(e);
  in_fan_stamp_[v] = fan_round_;
  in_fan_stamp_[u] = fan_round_;
  for (bool extended = true; extended;) {
    extended = false;
    const uint32_t tail = fan_.back();
    for (uint32_t w = 0; w < words_ && !extended; ++w) {
      for (uint64_t cands = ~UsedWord(tail, w) & UsedWord(u, w); cands != 0;
           cands &= cands - 1) {
        const uint32_t c = w * 64 + static_cast<uint32_t>(std::countr_zero(cands));
        const uint32_t cand = EdgeAt(u, c);
        const uint32_t x = edge_u_[cand] == u ? edge_v_[cand] : edge_u_[cand];
        if (in_fan_stamp_[x] == fan_round_) continue;
        fan_.push_back(x);
        fan_edge_.push_back(cand);
        in_fan_stamp_[x] = fan_round_;
        extended = true;
        break;
      }
    }
  }

  const uint32_t c = FreeColor(u);
  const uint32_t d = FreeColor(fan_.back());
  // Both exist unconditionally: any vertex touches at most max_degree_ colored
  // edges and the palette holds at least max_degree_ + 1 colors.
  PGRID_CHECK(c != kNone && d != kNone);

  if (EdgeAt(u, d) == kNone) {  // covers c == d
    RotateAndColor(fan_.size() - 1, d);
    return true;
  }

  InvertPath(u, c, d);
  // d is now free at u (its d-edge was the path head, recolored c). Take the
  // first fan vertex with d free inside the longest prefix that is still a
  // valid fan under the inverted coloring; Vizing/Misra-Gries guarantees one
  // exists for simple graphs.
  for (size_t j = 0; j < fan_.size(); ++j) {
    if (j > 0) {
      const uint32_t ce = color_[fan_edge_[j]];
      if (ce == kNone || EdgeAt(fan_[j - 1], ce) != kNone) break;
    }
    if (EdgeAt(fan_[j], d) == kNone) {
      RotateAndColor(j, d);
      return true;
    }
  }
  return false;
}

void WaveSchedule::ColorEdge(uint32_t e) {
  if (TryMisraGries(e)) return;
  // Parallel-edge fallback: the smallest color free at both endpoints, growing
  // the palette beyond max_degree + 1 when the Vizing palette has none (the
  // multigraph bound is max_degree + max_multiplicity).
  const uint32_t u = edge_u_[e];
  const uint32_t v = edge_v_[e];
  uint32_t c = words_ * 64;
  for (uint32_t w = 0; w < words_; ++w) {
    const uint64_t free = ~(UsedWord(u, w) | UsedWord(v, w));
    if (free != 0) {
      c = w * 64 + static_cast<uint32_t>(std::countr_zero(free));
      break;
    }
  }
  if (c >= palette_) GrowPalette(c + 1);
  Assign(e, c);
}

void WaveSchedule::Begin() {
  num_waves_ = 0;
  num_edges_ = 0;
  max_degree_ = 0;
  fallback_colors_ = 0;
  palette_ = 0;
  num_vertices_ = 0;
  edge_u_.clear();
  edge_v_.clear();
  color_.clear();
  ++round_;
  if (round_ == 0) {  // stamp wraparound: invalidate every cached dense id
    std::fill(dense_.begin(), dense_.end(), DenseSlot{});
    round_ = 1;
  }
}

void WaveSchedule::Add(WaveEdge edge) {
  PGRID_CHECK(edge.a != edge.b);
  const uint32_t u = DenseId(edge.a);
  const uint32_t v = DenseId(edge.b);
  const uint32_t e = static_cast<uint32_t>(num_edges_++);
  edge_u_.push_back(u);
  edge_v_.push_back(v);
  color_.push_back(kNone);
  max_degree_ = std::max<size_t>({max_degree_, ++degree_[u], ++degree_[v]});
  // Vizing palette of the edges seen so far; colors chosen for this edge are
  // the same under any larger palette (see the header).
  if (max_degree_ + 1 > palette_) GrowPalette(static_cast<uint32_t>(max_degree_) + 1);
  ColorEdge(e);
}

void WaveSchedule::Finish() {
  // Every color past the Vizing palette was introduced by the parallel-edge
  // fallback (Misra-Gries only ever picks colors below max_degree + 1), and
  // each such color stays in use once introduced.
  fallback_colors_ = palette_ > max_degree_ + 1 ? palette_ - (max_degree_ + 1) : 0;
  // Waves are the nonempty color classes, ascending by color; items inside a
  // wave keep their input order. Both orders are part of the deterministic
  // contract (slot assignment follows wave position).
  const uint32_t n = static_cast<uint32_t>(num_edges_);
  wave_of_.assign(palette_, kNone);
  for (uint32_t e = 0; e < n; ++e) wave_of_[color_[e]] = 0;
  for (uint32_t c = 0; c < palette_; ++c) {
    if (wave_of_[c] == kNone) continue;
    wave_of_[c] = static_cast<uint32_t>(num_waves_++);
    if (waves_.size() < num_waves_) waves_.emplace_back();
    waves_[num_waves_ - 1].clear();
  }
  for (uint32_t e = 0; e < n; ++e) {
    waves_[wave_of_[color_[e]]].push_back(e);
  }
}

void WaveSchedule::Color(const std::vector<WaveEdge>& edges) {
  Begin();
  for (const WaveEdge& edge : edges) Add(edge);
  Finish();
}

}  // namespace pgrid
