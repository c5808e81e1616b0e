// Per-repetition measurement state shared by the three workloads: the
// operation records, the in-memory span log, and the window-edge hooks that
// worker fibers poll between operations (no monitor fiber is spawned: an
// extra fiber would change SMT pinning and with it the schedule).
#pragma once

#include <time.h>

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "htm/htm.h"
#include "mem/shim.h"
#include "oltp/store.h"
#include "oltp/workload.h"
#include "runtime/stats.h"
#include "sim/env.h"
#include "tally.h"

namespace perfbench {

/// Library counters read at a window edge (meta-level, no simulated cost).
struct Counters {
  rtle::runtime::MethodStats ms;  ///< summed over every guard
  rtle::oltp::CrossStats cross;
  std::array<std::uint64_t, rtle::htm::kNumAbortCauses> htm_aborts{};
};

/// Simulated span: one call the benchmark made, in cycles. A request span
/// (parent 0) runs from issue to return; its call span from the call.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint16_t name = 0;  ///< index into the workload's span names
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

inline constexpr std::uint16_t kRequestSpan = 0;  ///< "driver.request"

/// Host CPU seconds consumed by the calling thread. The simulation is
/// single-threaded, so this is the host work it did; unlike wall time it
/// does not include time spent waiting for a CPU on a shared machine.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

class Harness {
 public:
  using Snapshot = std::function<Counters()>;

  Harness(Window win, bool traced, Snapshot snapshot)
      : win_(win), traced_(traced), snapshot_(std::move(snapshot)) {}

  const Window& window() const { return win_; }

  /// Called by worker fibers at operation boundaries with their clock. The
  /// first fiber past an edge reads the host CPU clock and, when traced,
  /// the library counters.
  void poll(std::uint64_t now) {
    for (int e = 0; e < 2; ++e) {
      const std::uint64_t edge = e == 0 ? win_.begin : win_.end;
      if (seen_[e] || now < edge) continue;
      seen_[e] = true;
      host_[e] = cpu_seconds();
      if (traced_) counters_[e] = snapshot_();
    }
  }

  /// Pre-size the record buffers (one large allocation up front instead of
  /// regrowth while the simulation runs).
  void reserve(std::size_t ops) {
    ops_.reserve(ops);
    if (traced_) spans_.reserve(2 * ops);
  }

  /// One finished operation. `name` is its call span (>= 1).
  void record(std::uint16_t name, std::uint64_t issued, std::uint64_t started,
              std::uint64_t done, bool ok) {
    ops_.push_back({issued, done, ok});
    if (!traced_) return;
    const auto req = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back({req, 0, kRequestSpan, issued, done});
    spans_.push_back({req + 1, req, name, started, done});
  }

  bool edges_seen() const { return seen_[0] && seen_[1]; }
  double host_window_s() const { return host_[1] - host_[0]; }
  const std::vector<OpRecord>& ops() const { return ops_; }
  const std::vector<Span>& spans() const { return spans_; }
  const Counters& counters(int edge) const { return counters_[edge]; }

 private:
  Window win_;
  bool traced_;
  Snapshot snapshot_;
  bool seen_[2] = {false, false};
  double host_[2] = {0.0, 0.0};
  Counters counters_[2];
  std::vector<OpRecord> ops_;
  std::vector<Span> spans_;
};

/// What one call of a workload's operation reports back to the loop.
struct OpOutcome {
  std::uint16_t name = 0;    ///< call span name (>= 1)
  std::uint64_t started = 0; ///< simulated time the library call was made
  bool ok = true;            ///< output check passed
};

/// Closed loop on the calling fiber: issue the next operation as soon as the
/// previous one returns, until the window ends. Latency runs from the call.
template <typename Op>
void run_closed_loop(Harness& h, Op&& op) {
  auto& sched = rtle::cur_sched();
  for (;;) {
    h.poll(sched.now());
    if (sched.now() >= h.window().end) break;
    const OpOutcome o = op();
    h.record(o.name, o.started, o.started, sched.now(), o.ok);
  }
}

/// Open loop on the calling fiber: serve this worker's arrivals in order,
/// idling until each is due. Latency runs from the due time, so queueing
/// behind a slow operation counts.
template <typename Op>
void run_open_loop(Harness& h, const std::vector<rtle::oltp::Arrival>& arrivals,
                   Op&& op) {
  auto& sched = rtle::cur_sched();
  for (const rtle::oltp::Arrival& a : arrivals) {
    const std::uint64_t due = a.ts;
    h.poll(sched.now());
    if (sched.now() < due) rtle::mem::compute(due - sched.now());
    h.poll(sched.now());
    const OpOutcome o = op();
    h.record(o.name, due, o.started, sched.now(), o.ok);
  }
  // Idle to the window end so the end edge is observed even when this
  // worker's last arrival finished early.
  if (sched.now() < h.window().end) {
    rtle::mem::compute(h.window().end - sched.now());
  }
  h.poll(sched.now());
}

}  // namespace perfbench
