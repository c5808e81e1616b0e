// Window accounting for the benchmark: which operations count, how their
// latency is taken and how the tail percentile is chosen. Pure functions
// over per-operation records, so tests/accounting_test.cpp can pin each rule
// without running a workload.
//
// Rules:
//   * An operation counts as a completion only if it returns inside the
//     measurement window [begin, end) of simulated time; work that finishes
//     after `end` (the drain) is never counted.
//   * Latency runs from `issued` to `done`. Closed loops set `issued`
//     to the call time, open loops to the arrival's due time, so a
//     stall that delays later arrivals shows up in their latency.
//   * `attempted` is the number of operations issued inside the window;
//     fail_frac is the share of them that did not complete inside the
//     window or failed their output check.
//   * A percentile is reported only when at least kMinBeyond samples lie
//     beyond it (p99.9 therefore needs 10,000 samples).
//   * Latencies are whole simulated cycles, so a large sample's quantile
//     usually sits inside a block of tied values. The reported value is the
//     mid-distribution quantile: each cycle value v is spread evenly over
//     [v - 0.5, v + 0.5) and the quantile is read from that piecewise-linear
//     CDF. It stays within half a cycle of the nearest-rank sample but moves
//     with the share of samples below the tie block instead of snapping to
//     the block's value.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr std::uint64_t kMinBeyond = 10;

struct Window {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  bool contains(std::uint64_t t) const { return t >= begin && t < end; }
  std::uint64_t cycles() const { return end - begin; }
};

/// One operation as the benchmark saw it (simulated cycles).
struct OpRecord {
  std::uint64_t issued = 0;  ///< latency origin: call time or due time
  std::uint64_t done = 0;    ///< when the call returned
  bool ok = true;            ///< passed its per-operation output check
};

struct Percentile {
  double value = 0.0;        ///< mid-distribution quantile (cycles)
  std::uint64_t beyond = 0;  ///< samples strictly after it in rank order
  bool supported = false;    ///< beyond >= kMinBeyond
};

/// Percentile of ascending `sorted` at quantile q in (0, 1]: the sample of
/// nearest rank ceil(q n) decides the tie block and `beyond`; the value is
/// interpolated inside that block (see the header comment).
inline Percentile percentile(const std::vector<std::uint64_t>& sorted,
                             double q) {
  Percentile p;
  const std::uint64_t n = sorted.size();
  if (n == 0) return p;
  const double target = q * static_cast<double>(n);
  auto rank = static_cast<std::uint64_t>(std::ceil(target - 1e-9));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  const std::uint64_t v = sorted[rank - 1];
  const auto lo = static_cast<double>(
      std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
  const auto hi = static_cast<double>(
      std::upper_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
  const double within = std::clamp((target - lo) / (hi - lo), 0.0, 1.0);
  p.value = static_cast<double>(v) - 0.5 + within;
  p.beyond = n - rank;
  p.supported = p.beyond >= kMinBeyond;
  return p;
}

struct Tally {
  std::uint64_t attempted = 0;       ///< issued inside the window
  std::uint64_t done_in_window = 0;  ///< of those: ok and done inside it
  std::uint64_t completions = 0;     ///< ok and done inside the window
  std::uint64_t met_slo = 0;         ///< completions with latency <= SLO
  std::uint64_t check_failures = 0;  ///< operations that failed a check
  std::vector<std::uint64_t> latencies;  ///< of completions, ascending

  /// Share of attempted operations that did not complete inside the window
  /// or failed a check; `extra_failures` adds whole-run check failures.
  double fail_frac(std::uint64_t extra_failures = 0) const {
    if (attempted == 0) return 1.0;
    const std::uint64_t missed = attempted - done_in_window + extra_failures;
    return std::min(1.0, static_cast<double>(missed) /
                             static_cast<double>(attempted));
  }
};

inline Tally tally(const std::vector<OpRecord>& ops, Window w,
                   std::uint64_t slo_cycles) {
  Tally t;
  for (const OpRecord& op : ops) {
    if (!op.ok) ++t.check_failures;
    const bool in = op.ok && w.contains(op.done);
    if (w.contains(op.issued)) {
      ++t.attempted;
      if (in) ++t.done_in_window;
    }
    if (!in) continue;
    const std::uint64_t lat = op.done - op.issued;
    ++t.completions;
    if (lat <= slo_cycles) ++t.met_slo;
    t.latencies.push_back(lat);
  }
  std::sort(t.latencies.begin(), t.latencies.end());
  return t;
}

/// Pools another replica's tally into `into` (latencies stay sorted).
inline void merge(Tally& into, const Tally& t) {
  into.attempted += t.attempted;
  into.done_in_window += t.done_in_window;
  into.completions += t.completions;
  into.met_slo += t.met_slo;
  into.check_failures += t.check_failures;
  const auto mid = static_cast<std::ptrdiff_t>(into.latencies.size());
  into.latencies.insert(into.latencies.end(), t.latencies.begin(),
                        t.latencies.end());
  std::inplace_merge(into.latencies.begin(), into.latencies.begin() + mid,
                     into.latencies.end());
}

}  // namespace perfbench
