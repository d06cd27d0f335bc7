// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --selftest [--out-dir <dir>]
//
// Prints one JSON object as the last line of standard output:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
// the per-layer ones (every name in kLayerMetrics; a layer the workload does
// not exercise reports 0). See README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>

#include "common.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;

// Every per-layer metric and its unit; BENCHMARK.json lists the same names.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.exchange.per_meeting", "count"},
    {"core.exchange.t1_ns", "ns"},
    {"core.parallel_builder.speedup_t4", "ratio"},
    {"core.parallel_builder.serial_ms", "ms"},
    {"core.parallel_builder.utilization", "ratio"},
    {"core.parallel_builder.barrier_wait_p99_us", "us"},
    {"core.wave_schedule.ns_per_edge", "ns"},
    {"util.thread_pool.handoff_us", "us"},
    {"core.search.messages_per_query", "count"},
    {"core.search.t1_ns", "ns"},
    {"core.grid.bytes_per_peer", "B"},
    {"net.node.calls_per_search", "count"},
    {"net.node.calls_per_publish", "count"},
    {"net.node.client_self_us.search", "us"},
    {"net.tcp_transport.call_us", "us"},
    {"net.tcp_transport.threads_peak", "count"},
    {"net.node.serve_us.query", "us"},
    {"net.node.serve_us.publish", "us"},
    {"net.node.serve_us.entry_push", "us"},
    {"net.node.serve_us.exchange", "us"},
    {"net.wire.codec_ns", "ns"},
    {"net.node_persist.serve_extra_us", "us"},
    {"net.node_persist.disk_bytes_per_entry", "B"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <sim_build_query|node_read|"
               "node_write_durable> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       perfbench --selftest [--out-dir <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::ProcessStart();
  RunOptions opt;
  bool selftest = false, have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return Usage("--seed takes an unsigned integer");
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return Usage("--seconds takes a positive number");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      return Usage(("unknown flag " + a).c_str());
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (selftest) return perfbench::RunSelfTest(opt.out_dir);
  if (!have_workload || !have_seed) return Usage("--workload and --seed are required");

  if (opt.trace) perfbench::Tracer::Get().Enable();
  RunResult res;
  if (opt.workload == "sim_build_query") {
    res = perfbench::RunSimBuildQuery(opt);
  } else if (opt.workload == "node_read" || opt.workload == "node_write_durable") {
    res = perfbench::RunNodeWorkload(opt);
  } else {
    return Usage(("unknown workload " + opt.workload).c_str());
  }

  if (opt.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      if (!res.metrics.count(name)) res.Set(name, 0, unit);
    }
    // One file per workload: a later traced run replaces it.
    const std::string path = opt.out_dir + "/trace-" + opt.workload + ".jsonl";
    if (!perfbench::Tracer::Get().WriteJsonLines(path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }
  for (const auto& [name, m] : res.metrics) {
    if (!std::isfinite(m.value)) res.Check("metric " + name + " is not finite");
  }
  for (const std::string& e : res.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : res.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
