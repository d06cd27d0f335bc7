// `perfbench --selftest`: every correctness check the workloads run, first on
// a real output (it must pass), then on a corrupted copy (it must fail).

#include <cstdio>

#include "workloads.h"

namespace perfbench {

int RunSelfTest(const std::string& out_dir) {
  std::vector<CheckDemo> demos = SimCheckDemos();
  for (CheckDemo& d : NodeCheckDemos(out_dir + "/selftest-storage")) demos.push_back(d);
  int bad = 0;
  for (const CheckDemo& d : demos) {
    const bool ok = d.clean.empty() && !d.corrupted.empty();
    if (!ok) ++bad;
    std::printf("%-40s %s\n  corruption: %s\n  on the real output: %s\n  on the corrupted copy: %s\n",
                d.check.c_str(), ok ? "OK" : "BROKEN", d.corruption.c_str(),
                d.clean.empty() ? "passes" : d.clean.c_str(),
                d.corrupted.empty() ? "PASSES (not detected)" : d.corrupted.c_str());
  }
  std::printf("%zu checks, %d broken\n", demos.size(), bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
