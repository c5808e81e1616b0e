#include "workloads.h"

#include <algorithm>
#include <memory>

#include "ds/avl.h"
#include "oltp/store.h"
#include "oltp/workload.h"
#include "sim/env.h"
#include "sim/rng.h"
#include "util/flat_hash.h"
#include "sync/suxtle.h"
#include "tle/rwtle.h"
#include "tle/tle.h"

namespace perfbench {

namespace {

using rtle::SimScope;
using rtle::oltp::Store;
using rtle::runtime::MethodSpec;
using rtle::runtime::SyncMethod;
using rtle::runtime::ThreadCtx;
using rtle::runtime::TxContext;

std::uint64_t ms_to_cycles(const rtle::sim::MachineConfig& mc, double ms) {
  return static_cast<std::uint64_t>(ms * static_cast<double>(mc.cycles_per_ms()));
}

/// Per-thread RNG seed: distinct streams per (workload seed, thread).
std::uint64_t thread_seed(std::uint64_t seed, std::uint32_t tid) {
  return rtle::util::mix64(seed * 0x9e3779b97f4a7c15ULL + tid + 1);
}

std::vector<std::unique_ptr<ThreadCtx>> make_threads(std::uint32_t n,
                                                     std::uint64_t seed) {
  std::vector<std::unique_ptr<ThreadCtx>> out;
  out.reserve(n);
  for (std::uint32_t t = 0; t < n; ++t) {
    out.push_back(std::make_unique<ThreadCtx>(t, thread_seed(seed, t)));
  }
  return out;
}

Counters snapshot_methods(const std::vector<SyncMethod*>& methods,
                          const rtle::oltp::CrossStats* cross) {
  Counters c;
  for (SyncMethod* m : methods) rtle::oltp::accumulate(c.ms, m->stats());
  if (cross != nullptr) c.cross = *cross;
  c.htm_aborts = rtle::cur_htm().abort_counts();
  return c;
}

/// Moves what the harness measured into the result and tallies the window.
void finish(RepResult& r, const Harness& h) {
  r.win = h.window();
  r.tally = tally(h.ops(), r.win, r.slo_cycles);
  r.host_window_s = h.host_window_s();
  r.at_begin = h.counters(0);
  r.at_end = h.counters(1);
  r.spans = h.spans();
  if (!h.edges_seen()) r.errors.push_back("a window edge was never reached");
}

// --- avl_rwtle ------------------------------------------------------------
// Paper Fig 5 regime: 36 threads on the 18-core xeon (SMT siblings active),
// 20% insert / 20% remove / 60% find over 8192 keys, half prefilled. The
// first millisecond is a transient (fresh arena nodes, cold lines), hence
// the long warm-up; one 4 ms window averages over the lock-convoy swings
// that make shorter windows disagree by a third.
constexpr std::uint32_t kAvlThreads = 36;
constexpr std::uint64_t kAvlKeys = 8192;
constexpr double kAvlWarmMs = 1.0;
constexpr double kAvlWindowMs = 4.0;
// Closed-loop SLO for goodput: 20 µs at 2.3 GHz.
constexpr std::uint64_t kAvlSloCycles = 46000;

enum AvlSpan : std::uint16_t { kAvlInsert = 1, kAvlRemove, kAvlFind };

// --- oltp_point_open --------------------------------------------------------
// Open loop at 220k arrivals/ms, about 80% of the ~277k ops/ms this store
// completes when saturated; per-worker queues as in oltp::run_workload.
// Zipf 0.6: at 0.9 the p99 of one seed differs from the next by up to 5x
// (rare multi-shard lock-fallback convoys dominate the tail), which no
// affordable window averages out.
constexpr std::uint32_t kPointThreads = 16;
constexpr std::uint32_t kPointShards = 16;
constexpr std::uint64_t kPointKeys = 65536;
constexpr double kPointZipf = 0.6;
constexpr double kPointRatePerMs = 220000.0;
constexpr double kPointWarmMs = 0.2;
constexpr double kPointWindowMs = 1.0;
constexpr std::uint64_t kPointSloCycles = 11500;  // p99 <= 5 µs simulated

// --- oltp_scan ---------------------------------------------------------------
// Large HTM read footprints through the ordered index and the SUX read
// seam, with range-transaction writes in the same index. The four threads
// flip between a fast regime and a lock-fallback convoy that lasts about a
// millisecond, so a run pools many short replicas.
constexpr std::uint32_t kScanThreads = 4;
constexpr std::uint32_t kScanShards = 4;
constexpr std::uint64_t kScanKeys = 16384;
constexpr double kScanZipf = 0.6;
constexpr std::uint32_t kScanLenMean = 32;
constexpr std::uint64_t kScanLenCap = 256;
constexpr double kScanWarmMs = 0.25;
constexpr double kScanWindowMs = 3.0;
constexpr std::uint64_t kScanSloCycles = 46000;

constexpr std::uint64_t kInitialValue = 1000;

enum OltpSpan : std::uint16_t {
  kGet = 1,
  kMulti,
  kMultiGet,
  kScan,
  kRangeTx,
};

std::vector<std::string> oltp_span_names() {
  return {"driver.request", "oltp.get",  "oltp.multi",
          "oltp.multi_get", "oltp.scan", "oltp.range_tx"};
}

std::unique_ptr<Store> make_store(std::uint32_t shards, std::uint64_t keys,
                                  std::uint32_t threads,
                                  const MethodSpec& spec) {
  rtle::oltp::StoreConfig sc;
  sc.shards = shards;
  sc.buckets_per_shard = keys / shards;
  // Hash routing puts keys/shards keys on a shard on average; twice that
  // plus the per-thread free-list top-ups bounds every shard's arena.
  sc.max_nodes_per_shard = 2 * keys / shards + 256ULL * threads + 1024;
  sc.max_threads = threads;
  auto store = std::make_unique<Store>(sc, spec);
  for (std::uint64_t k = 0; k < keys; ++k) store->prefill_meta(k, kInitialValue);
  return store;
}

std::vector<SyncMethod*> store_methods(Store& s) {
  std::vector<SyncMethod*> out;
  for (std::uint32_t i = 0; i < s.shards(); ++i) out.push_back(&s.method(i));
  return out;
}

/// Conserved sum and index structure after the drain.
void check_store(RepResult& r, Store& store, std::uint64_t keys) {
  const std::uint64_t want = keys * kInitialValue;
  if (store.sum_meta() != want) {
    r.errors.push_back("Store::sum_meta() " + std::to_string(store.sum_meta()) +
                       " != " + std::to_string(want));
  }
  for (std::uint32_t s = 0; s < store.shards(); ++s) {
    if (!store.tree(s).invariants_ok()) {
      r.errors.push_back("TxBTree::invariants_ok() failed on shard " +
                         std::to_string(s));
    }
  }
}

/// Every key of the dense key space stays present (range transactions erase
/// and re-insert inside one atomic section), so a scan of [lo, hi] must
/// return exactly lo, lo+1, ..., hi.
bool scan_ok(const Store::RangeEntries& es, std::uint64_t lo,
             std::uint64_t hi) {
  if (es.size() != hi - lo + 1) return false;
  for (std::size_t i = 0; i < es.size(); ++i) {
    if (es[i].first != lo + i) return false;
  }
  return true;
}

/// Geometric scan length with mean ~kScanLenMean, capped.
std::uint64_t scan_len(ThreadCtx& th) {
  const std::uint32_t cont_pct = 100 - 100 / kScanLenMean;
  std::uint64_t len = 1;
  while (len < kScanLenCap && th.rng.below(100) < cont_pct) ++len;
  return len;
}

RepResult run_point(std::uint64_t seed, bool traced) {
  RepResult r;
  const double t0 = cpu_seconds();
  const auto mc = rtle::sim::MachineConfig::xeon();
  SimScope sim(mc);
  const MethodSpec spec{"TLE", [] { return std::make_unique<rtle::tle::TleMethod>(); }};
  auto store = make_store(kPointShards, kPointKeys, kPointThreads, spec);
  const rtle::sim::ZipfRng zipf(kPointKeys, kPointZipf);
  auto threads = make_threads(kPointThreads, seed);
  r.setup_s = cpu_seconds() - t0;

  r.ghz = mc.ghz;
  r.slo_cycles = kPointSloCycles;
  r.guards = kPointShards;
  r.span_names = oltp_span_names();
  const std::uint64_t t_begin = sim.sched.epoch() + ms_to_cycles(mc, kPointWarmMs);
  const Window win{t_begin, t_begin + ms_to_cycles(mc, kPointWindowMs)};
  rtle::oltp::WorkloadConfig wc;
  wc.machine = mc;
  wc.arrivals_per_ms = kPointRatePerMs;
  wc.seed = seed;
  const std::vector<rtle::oltp::Arrival> arrivals =
      rtle::oltp::build_arrivals(wc, sim.sched.epoch(), win.end);

  const std::vector<SyncMethod*> methods = store_methods(*store);
  Harness h(win, traced, [&] {
    return snapshot_methods(methods, &store->cross_stats());
  });
  h.reserve(arrivals.size());

  // Per-worker queues: worker t serves arrivals t, t + threads, ... of the
  // aggregate timeline.
  std::vector<std::vector<rtle::oltp::Arrival>> queue(kPointThreads);
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    queue[j % kPointThreads].push_back(arrivals[j]);
  }
  for (std::uint32_t tid = 0; tid < kPointThreads; ++tid) {
    ThreadCtx* th = threads[tid].get();
    sim.sched.spawn(
        [&, th, tid] {
          run_open_loop(h, queue[tid], [&] {
            auto& sched = rtle::cur_sched();
            const std::uint64_t r100 = th->rng.below(100);
            const auto span = static_cast<std::uint32_t>(th->rng.range(2, 4));
            std::uint64_t keys[4];
            OpOutcome o{kGet, sched.now(), true};
            if (r100 < 75) {
              std::uint64_t v = 0;
              o.ok = store->get(*th, zipf.next(th->rng), v);
            } else if (r100 < 90) {
              // Sum-preserving transfer: debit the first key, credit the
              // last, read the ones between.
              o.name = kMulti;
              for (std::uint32_t i = 0; i < span; ++i) keys[i] = zipf.next(th->rng);
              auto body = [&](Store::MultiTx& tx) {
                const std::uint64_t v0 = tx.read(keys[0]);
                tx.write(keys[0], v0 - 1);
                for (std::uint32_t i = 1; i + 1 < span; ++i) tx.read(keys[i]);
                const std::uint64_t vn = tx.read(keys[span - 1]);
                tx.write(keys[span - 1], vn + 1);
              };
              store->multi(*th, keys, span, body);
            } else {
              o.name = kMultiGet;
              std::uint64_t vals[4];
              for (std::uint32_t i = 0; i < span; ++i) keys[i] = zipf.next(th->rng);
              store->multi_get(*th, keys, span, vals);
            }
            return o;
          });
        },
        tid);
  }
  sim.sched.run();
  finish(r, h);
  check_store(r, *store, kPointKeys);
  return r;
}

RepResult run_scan(std::uint64_t seed, bool traced) {
  RepResult r;
  const double t0 = cpu_seconds();
  const auto mc = rtle::sim::MachineConfig::xeon();
  SimScope sim(mc);
  const MethodSpec spec{"SUX-TLE", [] { return std::make_unique<rtle::sync::SuxTleMethod>(); }};
  auto store = make_store(kScanShards, kScanKeys, kScanThreads, spec);
  const rtle::sim::ZipfRng zipf(kScanKeys, kScanZipf);
  auto threads = make_threads(kScanThreads, seed);
  r.setup_s = cpu_seconds() - t0;

  r.ghz = mc.ghz;
  r.slo_cycles = kScanSloCycles;
  r.guards = kScanShards;
  r.span_names = oltp_span_names();
  const std::uint64_t t_begin = sim.sched.epoch() + ms_to_cycles(mc, kScanWarmMs);
  const Window win{t_begin, t_begin + ms_to_cycles(mc, kScanWindowMs)};
  const std::vector<SyncMethod*> methods = store_methods(*store);
  Harness h(win, traced, [&] {
    return snapshot_methods(methods, &store->cross_stats());
  });
  h.reserve(static_cast<std::size_t>(16000 * (kScanWarmMs + kScanWindowMs)));
  std::uint64_t scans_in_window = 0;
  std::uint64_t scan_keys_in_window = 0;

  for (std::uint32_t tid = 0; tid < kScanThreads; ++tid) {
    ThreadCtx* th = threads[tid].get();
    sim.sched.spawn(
        [&, th] {
          Store::RangeEntries out;
          run_closed_loop(h, [&] {
            auto& sched = rtle::cur_sched();
            const std::uint64_t r100 = th->rng.below(100);
            const std::uint64_t lo = zipf.next(th->rng);
            if (r100 < 55) {
              const std::uint64_t hi = std::min(kScanKeys - 1, lo + scan_len(*th) - 1);
              OpOutcome o{kScan, sched.now(), true};
              store->scan(*th, lo, hi, 0, out);
              o.ok = scan_ok(out, lo, hi);
              if (win.contains(sched.now())) {
                scans_in_window += 1;
                scan_keys_in_window += out.size();
              }
              return o;
            }
            if (r100 < 70) {
              // Range transaction: erase + re-insert the first entry debited
              // by one, credit the last (sum-preserving). The check reads the
              // entries the committed execution of the body saw.
              const std::uint64_t hi = std::min(kScanKeys - 1, lo + scan_len(*th) - 1);
              OpOutcome o{kRangeTx, sched.now(), false};
              auto body = [&](Store::MultiTx& tx, const Store::RangeEntries& es) {
                o.ok = scan_ok(es, lo, hi);
                if (es.size() >= 2) {
                  const std::uint64_t k0 = es.front().first;
                  const std::uint64_t v0 = es.front().second;
                  tx.erase(k0);
                  tx.write(k0, v0 - 1);
                  tx.write(es.back().first, es.back().second + 1);
                } else if (es.size() == 1) {
                  tx.write(es.front().first, es.front().second);
                }
              };
              store->range_tx(*th, lo, hi, 0, /*max_writes=*/3, body);
              return o;
            }
            OpOutcome o{kGet, sched.now(), true};
            std::uint64_t v = 0;
            o.ok = store->get(*th, lo, v);
            return o;
          });
        },
        tid);
  }
  sim.sched.run();
  finish(r, h);
  check_store(r, *store, kScanKeys);
  if (scans_in_window > 0) {
    r.keys_per_scan = static_cast<double>(scan_keys_in_window) /
                      static_cast<double>(scans_in_window);
  }
  return r;
}

}  // namespace

RepResult run_avl(std::uint64_t seed, bool traced, const MethodSpec& spec,
                  double window_ms) {
  RepResult r;
  const double t0 = cpu_seconds();
  const auto mc = rtle::sim::MachineConfig::xeon();
  SimScope sim(mc);
  rtle::ds::AvlSet set(kAvlKeys + 64ULL * kAvlThreads + 1024, kAvlThreads);
  std::unique_ptr<SyncMethod> method = spec.make();
  method->prepare(kAvlThreads);
  std::uint64_t prefilled = 0;
  for (std::uint64_t k = 0; k < kAvlKeys; ++k) {
    if ((rtle::util::mix64(k * 0x9e3779b97f4a7c15ULL + seed) & 1) != 0) {
      prefilled += set.insert_meta(k) ? 1 : 0;
    }
  }
  auto threads = make_threads(kAvlThreads, seed);
  r.setup_s = cpu_seconds() - t0;

  r.ghz = mc.ghz;
  r.slo_cycles = kAvlSloCycles;
  r.guards = 1;
  r.span_names = {"driver.request", "runtime.execute.insert",
                  "runtime.execute.remove", "runtime.execute.find"};
  const std::uint64_t t_begin = sim.sched.epoch() + ms_to_cycles(mc, kAvlWarmMs);
  const Window win{t_begin, t_begin + ms_to_cycles(mc, window_ms)};
  const std::vector<SyncMethod*> methods{method.get()};
  Harness h(win, traced, [&] { return snapshot_methods(methods, nullptr); });
  h.reserve(static_cast<std::size_t>(12000 * (kAvlWarmMs + window_ms)));

  std::uint64_t inserted = 0;
  std::uint64_t removed = 0;
  for (std::uint32_t tid = 0; tid < kAvlThreads; ++tid) {
    ThreadCtx* th = threads[tid].get();
    sim.sched.spawn(
        [&, th] {
          run_closed_loop(h, [&] {
            set.reserve_nodes(*th, 4);
            const std::uint64_t key = th->rng.below(kAvlKeys);
            const std::uint64_t r100 = th->rng.below(100);
            bool changed = false;
            OpOutcome o{kAvlFind, rtle::cur_sched().now(), true};
            if (r100 < 20) {
              o.name = kAvlInsert;
              auto cs = [&](TxContext& ctx) { changed = set.insert(ctx, key); };
              method->execute(*th, cs);
              inserted += changed ? 1 : 0;
            } else if (r100 < 40) {
              o.name = kAvlRemove;
              auto cs = [&](TxContext& ctx) { changed = set.remove(ctx, key); };
              method->execute(*th, cs);
              removed += changed ? 1 : 0;
            } else {
              auto cs = [&](TxContext& ctx) { set.contains(ctx, key); };
              method->execute(*th, cs);
            }
            return o;
          });
        },
        tid);
  }
  sim.sched.run();
  finish(r, h);
  if (!set.invariants_ok()) r.errors.push_back("AvlSet::invariants_ok() failed");
  const std::uint64_t want = prefilled + inserted - removed;
  if (set.size_meta() != want) {
    r.errors.push_back("AvlSet::size_meta() " + std::to_string(set.size_meta()) +
                       " != prefill + inserts - removes = " + std::to_string(want));
  }
  return r;
}

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> all{
      {"avl_rwtle", 0.2}, {"oltp_point_open", 0.79}, {"oltp_scan", 0.9}};
  return all;
}

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

RepResult run_rep(const std::string& workload, std::uint64_t seed,
                  bool traced) {
  if (workload == "avl_rwtle") {
    return run_avl(seed, traced,
                   {"RW-TLE", [] { return std::make_unique<rtle::tle::RwTleMethod>(); }},
                   kAvlWindowMs);
  }
  if (workload == "oltp_point_open") return run_point(seed, traced);
  return run_scan(seed, traced);
}

}  // namespace perfbench
