#include "probes.h"

#include <memory>
#include <vector>

#include "harness.h"
#include "mem/shim.h"
#include "oltp/store.h"
#include "runtime/context.h"
#include "sim/env.h"
#include "tle/tle.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kLines = 4096;
constexpr std::uint64_t kWordsPerLine = 8;

/// Host CPU ns per call of `calls` calls made by the fibers of `sim`.
double timed_run(rtle::SimScope& sim, std::uint64_t calls) {
  const double t0 = cpu_seconds();
  sim.sched.run();
  return (cpu_seconds() - t0) * 1e9 / static_cast<double>(calls);
}

}  // namespace

double probe_switch_ns(std::uint32_t fibers) {
  rtle::SimScope sim(rtle::sim::MachineConfig::xeon());
  const std::uint64_t per_fiber = 2000000 / fibers;
  for (std::uint32_t f = 0; f < fibers; ++f) {
    sim.sched.spawn(
        [per_fiber] {
          auto& sched = rtle::cur_sched();
          for (std::uint64_t i = 0; i < per_fiber; ++i) sched.advance(1);
        },
        f);
  }
  return timed_run(sim, per_fiber * fibers);
}

double probe_plain_load_ns() {
  rtle::SimScope sim(rtle::sim::MachineConfig::xeon());
  std::vector<std::uint64_t> words(kLines * kWordsPerLine, 1);
  constexpr std::uint64_t kRounds = 500;
  std::uint64_t sum = 0;
  sim.sched.spawn(
      [&] {
        for (std::uint64_t r = 0; r < kRounds; ++r) {
          for (std::uint64_t l = 0; l < kLines; ++l) {
            sum += rtle::mem::plain_load(&words[l * kWordsPerLine]);
          }
        }
      },
      0);
  const double ns = timed_run(sim, kRounds * kLines);
  return sum == kRounds * kLines ? ns : -1.0;
}

double probe_tx_load_ns() {
  auto mc = rtle::sim::MachineConfig::xeon();
  mc.htm.spurious_every = 0;  // every transaction commits
  rtle::SimScope sim(mc);
  std::vector<std::uint64_t> words(kLines * kWordsPerLine, 1);
  constexpr std::uint64_t kTxs = 30000;
  constexpr std::uint64_t kLoadsPerTx = 64;
  std::uint64_t sum = 0;
  sim.sched.spawn(
      [&] {
        rtle::htm::Tx tx(0);
        auto& htm = rtle::cur_htm();
        for (std::uint64_t t = 0; t < kTxs; ++t) {
          const std::uint64_t base = (t * kLoadsPerTx) % kLines;
          htm.begin(tx);
          for (std::uint64_t i = 0; i < kLoadsPerTx; ++i) {
            sum += htm.tx_load(tx, &words[((base + i) % kLines) * kWordsPerLine]);
          }
          htm.commit(tx);
        }
      },
      0);
  const double ns = timed_run(sim, kTxs * kLoadsPerTx);
  return sum == kTxs * kLoadsPerTx ? ns : -1.0;
}

double probe_execute_ns() {
  rtle::SimScope sim(rtle::sim::MachineConfig::xeon());
  rtle::tle::TleMethod method;
  method.prepare(1);
  rtle::runtime::ThreadCtx th(0, 1);
  constexpr std::uint64_t kCalls = 300000;
  sim.sched.spawn(
      [&] {
        auto cs = [](rtle::runtime::TxContext&) {};
        for (std::uint64_t i = 0; i < kCalls; ++i) method.execute(th, cs);
      },
      0);
  return timed_run(sim, kCalls);
}

double probe_get_ns() {
  rtle::SimScope sim(rtle::sim::MachineConfig::xeon());
  constexpr std::uint64_t kKeys = 4096;
  rtle::oltp::StoreConfig sc;
  sc.shards = 4;
  sc.buckets_per_shard = kKeys / sc.shards;
  sc.max_nodes_per_shard = kKeys;
  sc.max_threads = 1;
  rtle::oltp::Store store(
      sc, {"TLE", [] { return std::make_unique<rtle::tle::TleMethod>(); }});
  for (std::uint64_t k = 0; k < kKeys; ++k) store.prefill_meta(k, k + 1);
  rtle::runtime::ThreadCtx th(0, 1);
  constexpr std::uint64_t kCalls = 200000;
  std::uint64_t found = 0;
  sim.sched.spawn(
      [&] {
        std::uint64_t v = 0;
        for (std::uint64_t i = 0; i < kCalls; ++i) {
          found += store.get(th, (i * 2654435761ULL) % kKeys, v) ? 1 : 0;
        }
      },
      0);
  const double ns = timed_run(sim, kCalls);
  return found == kCalls ? ns : -1.0;
}

}  // namespace perfbench
