// Tests of the benchmark's own accounting (src/tally.h, src/harness.h):
// window membership, open-loop latency origin, the tail-percentile sample
// rule and the fail_frac base. The loop tests drive the real simulator with
// operations of known simulated cost.
//
//   ctest --test-dir .bench_build/perfbench   (or run the binary directly)
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"
#include "sim/env.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++g_failures;                                                    \
    }                                                                  \
  } while (0)

Counters no_counters() { return {}; }

// An operation that finishes after the window end is neither a completion
// nor a latency sample, even when it was issued inside the window.
void completion_after_window_end_is_not_counted() {
  const Window w{100, 200};
  const std::vector<OpRecord> ops{
      {50, 120, true},   // issued before, done inside: completion
      {150, 199, true},  // inside / inside
      {190, 200, true},  // done exactly at the end: outside
      {195, 400, true},  // drained after the window
  };
  const Tally t = tally(ops, w, 1000);
  EXPECT(t.completions == 2);
  EXPECT(t.latencies.size() == 2);
  EXPECT(t.attempted == 3);
  EXPECT(t.done_in_window == 1);
}

// Closed loop on the simulator: 1000-cycle operations from clock 0, window
// [5000, 10000). Completions at 6000..9000 count; the one issued at 9000
// returns at 10000 and does not.
void closed_loop_counts_only_window_completions() {
  rtle::SimScope sim(rtle::sim::MachineConfig::xeon());
  Harness h({5000, 10000}, false, no_counters);
  sim.sched.spawn(
      [&] {
        run_closed_loop(h, [] {
          OpOutcome o{1, rtle::cur_sched().now(), true};
          rtle::mem::compute(1000);
          return o;
        });
      },
      0);
  sim.sched.run();
  const Tally t = tally(h.ops(), h.window(), 1000);
  EXPECT(h.edges_seen());
  EXPECT(t.completions == 5);  // done at 5000, 6000, 7000, 8000, 9000
  EXPECT(t.attempted == 5);    // issued at 5000 .. 9000
  EXPECT(t.done_in_window == 4);
  EXPECT(t.latencies.front() == 1000 && t.latencies.back() == 1000);
}

// Open loop: arrivals every 100 cycles, service 250 cycles, one server.
// Arrival k starts when the previous one returns, so its latency is
// 250 (k + 1) - 100 k from its due time, not the 250-cycle service time.
void open_loop_latency_runs_from_due_time() {
  rtle::SimScope sim(rtle::sim::MachineConfig::xeon());
  std::vector<rtle::oltp::Arrival> arrivals;
  for (std::uint64_t k = 0; k < 8; ++k) arrivals.push_back({100 * k, 0});
  Harness h({0, 100000}, true, no_counters);
  sim.sched.spawn(
      [&] {
        run_open_loop(h, arrivals, [] {
          OpOutcome o{1, rtle::cur_sched().now(), true};
          rtle::mem::compute(250);
          return o;
        });
      },
      0);
  sim.sched.run();
  EXPECT(h.ops().size() == 8);
  EXPECT(h.spans().size() == 16);
  for (std::uint64_t k = 0; k < h.ops().size(); ++k) {
    const OpRecord& op = h.ops()[k];
    EXPECT(op.issued == 100 * k);
    EXPECT(op.done - op.issued == 250 * (k + 1) - 100 * k);
    // The request span starts at the due time, its call span when the
    // worker got to it.
    EXPECT(h.spans()[2 * k].start == 100 * k);
    EXPECT(h.spans()[2 * k + 1].start == 250 * k);
    EXPECT(h.spans()[2 * k + 1].parent == h.spans()[2 * k].id);
  }
  const Tally t = tally(h.ops(), h.window(), 400);
  EXPECT(t.met_slo == 2);  // latencies 250, 400, 550, ...
}

// p99.9 is reported only with at least ten samples beyond it.
void top_percentile_needs_ten_samples_beyond() {
  std::vector<std::uint64_t> v(9999);
  for (std::uint64_t i = 0; i < v.size(); ++i) v[i] = i + 1;
  Percentile p = percentile(v, 0.999);
  EXPECT(!p.supported);
  EXPECT(p.beyond == 9);
  v.push_back(10000);
  p = percentile(v, 0.999);
  EXPECT(p.supported);
  EXPECT(p.beyond == 10);
  EXPECT(p.value == 9990.5);  // untied sample 9990 spread over [9989.5, 9990.5)
}

// Inside a block of tied cycle counts the percentile moves with the share
// of samples below the block instead of snapping to the tied value.
void percentile_interpolates_inside_ties() {
  const std::vector<std::uint64_t> v{1, 2, 2, 2, 3};
  EXPECT(percentile(v, 0.5).value == 2.0);
  const double p40 = percentile(v, 0.4).value;
  EXPECT(p40 > 1.83 && p40 < 1.84);  // 1.5 + (2 - 1) / 3
  EXPECT(percentile(v, 1.0).value == 3.5);
}

// fail_frac divides by the operations attempted inside the window, not by
// completions (which include work issued during the warm-up).
void fail_frac_is_against_attempted() {
  const Window w{1000, 2000};
  std::vector<OpRecord> ops;
  for (int i = 0; i < 6; ++i) ops.push_back({900, 1100, true});  // warm-up
  ops.push_back({1200, 1300, true});
  ops.push_back({1300, 1400, false});  // failed its check
  ops.push_back({1400, 1500, true});
  ops.push_back({1900, 2100, true});   // completes after the window
  const Tally t = tally(ops, w, 1000);
  EXPECT(t.attempted == 4);
  EXPECT(t.completions == 8);
  EXPECT(t.check_failures == 1);
  EXPECT(t.fail_frac() == 0.5);
  EXPECT(t.fail_frac(1) == 0.75);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::completion_after_window_end_is_not_counted();
  perfbench::closed_loop_counts_only_window_completions();
  perfbench::open_loop_latency_runs_from_due_time();
  perfbench::top_percentile_needs_ten_samples_beyond();
  perfbench::percentile_interpolates_inside_ties();
  perfbench::fail_frac_is_against_attempted();
  std::printf("%s: %d failure(s)\n",
              perfbench::g_failures == 0 ? "PASS" : "FAIL",
              perfbench::g_failures);
  return perfbench::g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
