#include "core/build_profile.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace pgrid {
namespace {

void AppendU64(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

/// Nearest-rank percentile of a sorted sample (0 on empty input).
uint64_t PercentileNs(const std::vector<uint64_t>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t idx = static_cast<size_t>(rank + 0.5);
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

void AppendWaveStructure(std::string* out, const WaveProfile& w) {
  out->append("{\"batch\": ");
  AppendU64(out, w.batch);
  out->append(", \"wave\": ");
  AppendU64(out, w.wave);
  out->append(", \"scheduled\": ");
  AppendU64(out, w.scheduled);
  out->append(", \"width\": ");
  AppendU64(out, w.width);
  out->append(", \"conflicts\": ");
  AppendU64(out, w.conflicts);
}

}  // namespace

uint64_t BuildProfile::SerialNs() const {
  uint64_t total = schedule_ns + merge_ns;
  for (const WaveProfile& w : waves) total += w.color_ns + w.merge_ns;
  return total;
}

uint64_t BuildProfile::RunNs() const {
  uint64_t total = 0;
  for (const WaveProfile& w : waves) total += w.run_ns;
  return total;
}

uint64_t BuildProfile::BusyNs() const {
  uint64_t total = 0;
  for (const WaveProfile& w : waves) {
    total += w.overlap_ns;
    for (uint64_t b : w.lane_busy_ns) total += b;
  }
  return total;
}

double BuildProfile::SerialFraction() const {
  if (total_ns == 0) return 0.0;
  return static_cast<double>(SerialNs()) / static_cast<double>(total_ns);
}

double BuildProfile::Utilization() const {
  const uint64_t run = RunNs();
  if (run == 0 || threads == 0) return 0.0;
  return static_cast<double>(BusyNs()) /
         (static_cast<double>(threads) * static_cast<double>(run));
}

double BuildProfile::ClaimConflictRate() const {
  uint64_t scheduled = 0;
  uint64_t conflicts = 0;
  for (const WaveProfile& w : waves) {
    scheduled += w.scheduled;
    conflicts += w.conflicts;
  }
  if (scheduled == 0) return 0.0;
  return static_cast<double>(conflicts) / static_cast<double>(scheduled);
}

std::vector<uint64_t> BuildProfile::BarrierWaitSamplesNs() const {
  std::vector<uint64_t> samples;
  samples.reserve(waves.size() * threads);
  for (const WaveProfile& w : waves) {
    for (size_t l = 0; l < w.lane_busy_ns.size(); ++l) {
      const uint64_t busy = w.lane_busy_ns[l] + (l == 0 ? w.overlap_ns : 0);
      samples.push_back(w.run_ns > busy ? w.run_ns - busy : 0);
    }
  }
  return samples;
}

std::string BuildProfile::ToJson() const {
  std::vector<uint64_t> waits = BarrierWaitSamplesNs();
  std::sort(waits.begin(), waits.end());

  std::string out = "{\"threads\": ";
  AppendU64(&out, threads);
  out.append(", \"waves\": ");
  AppendU64(&out, waves.size());
  out.append(", \"total_ns\": ");
  AppendU64(&out, total_ns);
  out.append(", \"schedule_ns\": ");
  AppendU64(&out, schedule_ns);
  out.append(", \"merge_ns\": ");
  AppendU64(&out, merge_ns);
  out.append(", \"serial_ns\": ");
  AppendU64(&out, SerialNs());
  out.append(", \"run_ns\": ");
  AppendU64(&out, RunNs());
  out.append(", \"busy_ns\": ");
  AppendU64(&out, BusyNs());
  out.append(", \"serial_fraction\": ");
  AppendDouble(&out, SerialFraction());
  out.append(", \"utilization\": ");
  AppendDouble(&out, Utilization());
  out.append(", \"claim_conflict_rate\": ");
  AppendDouble(&out, ClaimConflictRate());
  out.append(", \"barrier_wait_ns\": {\"samples\": ");
  AppendU64(&out, waits.size());
  out.append(", \"p50\": ");
  AppendU64(&out, PercentileNs(waits, 50.0));
  out.append(", \"p95\": ");
  AppendU64(&out, PercentileNs(waits, 95.0));
  out.append(", \"p99\": ");
  AppendU64(&out, PercentileNs(waits, 99.0));
  out.append("}, \"waves_detail\": [");
  for (size_t i = 0; i < waves.size(); ++i) {
    const WaveProfile& w = waves[i];
    if (i > 0) out.append(", ");
    AppendWaveStructure(&out, w);
    out.append(", \"color_ns\": ");
    AppendU64(&out, w.color_ns);
    out.append(", \"run_ns\": ");
    AppendU64(&out, w.run_ns);
    out.append(", \"overlap_ns\": ");
    AppendU64(&out, w.overlap_ns);
    out.append(", \"merge_ns\": ");
    AppendU64(&out, w.merge_ns);
    out.append(", \"lane_busy_ns\": [");
    for (size_t l = 0; l < w.lane_busy_ns.size(); ++l) {
      if (l > 0) out.append(", ");
      AppendU64(&out, w.lane_busy_ns[l]);
    }
    out.append("]}");
  }
  out.append("]}");
  return out;
}

std::string BuildProfile::StructureJson() const {
  std::string out = "{\"waves\": [";
  for (size_t i = 0; i < waves.size(); ++i) {
    if (i > 0) out.append(", ");
    AppendWaveStructure(&out, waves[i]);
    out.append("}");
  }
  out.append("]}");
  return out;
}

std::string BuildProfile::ToCollapsedStacks() const {
  // Fold the same accounting as ToJson into flamegraph stacks. Per-lane busy
  // and barrier-wait are summed over waves so lane imbalance shows up as
  // differing frame widths.
  uint64_t color = 0;
  uint64_t gather = 0;
  for (const WaveProfile& w : waves) {
    color += w.color_ns;
    gather += w.merge_ns;
  }
  uint64_t overlap = 0;
  std::vector<uint64_t> busy(threads, 0);
  std::vector<uint64_t> wait(threads, 0);
  for (const WaveProfile& w : waves) {
    overlap += w.overlap_ns;
    for (size_t l = 0; l < w.lane_busy_ns.size() && l < threads; ++l) {
      busy[l] += w.lane_busy_ns[l];
      const uint64_t worked = w.lane_busy_ns[l] + (l == 0 ? w.overlap_ns : 0);
      wait[l] += w.run_ns > worked ? w.run_ns - worked : 0;
    }
  }
  std::string out;
  auto line = [&out](const std::string& stack, uint64_t v) {
    out.append(stack);
    out.push_back(' ');
    AppendU64(&out, v);
    out.push_back('\n');
  };
  line("build;serial;schedule", schedule_ns);
  line("build;serial;wave_color", color);
  line("build;serial;wave_merge", gather);
  line("build;serial;batch_merge", merge_ns);
  for (size_t l = 0; l < threads; ++l) {
    const std::string lane = "lane" + std::to_string(l);
    line("build;wave_run;" + lane + ";busy", busy[l]);
    if (l == 0) line("build;wave_run;lane0;overlap_color", overlap);
    line("build;wave_run;" + lane + ";barrier_wait", wait[l]);
  }
  return out;
}

}  // namespace pgrid
