// The benchmark's three workloads, driven through the library's public API
// (SimScope, Scheduler, SyncMethod::execute, ds::AvlSet, oltp::Store,
// oltp::build_arrivals) and never through run_set_bench / run_workload,
// whose window accounting the benchmark must stay independent of.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "runtime/method.h"

namespace perfbench {

/// Everything one repetition of a workload measured.
struct RepResult {
  Window win;
  double ghz = 1.0;
  std::uint64_t slo_cycles = 0;
  std::uint32_t guards = 1;
  Tally tally;
  /// Whole-run output checks that failed (structure invariants, conserved
  /// sums), one message each.
  std::vector<std::string> errors;
  double keys_per_scan = 0.0;  ///< mean keys returned by in-window scans
  double setup_s = 0.0;
  double host_window_s = 0.0;
  Counters at_begin, at_end;  ///< filled only when traced
  std::vector<Span> spans;    ///< filled only when traced
  std::vector<std::string> span_names;
};

struct WorkloadInfo {
  std::string name;
  /// Replicas a --trace 0 run makes per requested host second.
  double replicas_per_second = 1.0;
};

const std::vector<WorkloadInfo>& workloads();
const WorkloadInfo* find_workload(const std::string& name);

/// One repetition: fresh SimScope, structure and prefill, warm-up, window,
/// drain, output checks.
RepResult run_rep(const std::string& workload, std::uint64_t seed,
                  bool traced);

/// avl_rwtle's configuration under another guard and window length (the
/// FG-TLE address-sensitivity diagnostic).
RepResult run_avl(std::uint64_t seed, bool traced,
                  const rtle::runtime::MethodSpec& spec, double window_ms);

}  // namespace perfbench
