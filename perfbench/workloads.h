// Entry points of the workloads and of the check self-test.

#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// sim_build_query (sim_workload.cc).
RunResult RunSimBuildQuery(const RunOptions& opt);

/// node_read and node_write_durable (node_workload.cc).
RunResult RunNodeWorkload(const RunOptions& opt);

/// One correctness check run on a real output and on a corrupted copy of it:
/// `clean` must be empty (the check passes), `corrupted` must not be.
struct CheckDemo {
  std::string check;
  std::string corruption;
  std::string clean;
  std::string corrupted;
};

/// The simulator checks on a small grid (sim_workload.cc).
std::vector<CheckDemo> SimCheckDemos();

/// The node checks on a small durable fleet (node_workload.cc).
std::vector<CheckDemo> NodeCheckDemos(const std::string& storage_dir);

/// Runs every correctness check on a small real output and on a corrupted
/// copy of it; returns 0 iff each check passes the first and fails the second
/// (selftest.cc).
int RunSelfTest(const std::string& out_dir);

}  // namespace perfbench
