// rtle_perfbench: the repository's benchmark.
//
//   rtle_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--spans-dir <dir>]
//
// --trace 0 runs independent replicas of the workload, each in a freshly
// exec'd copy of this binary with its own seed derived from --seed, and
// prints the end-to-end metrics: the simulated ones pooled over all
// replicas, the host ones as medians over replicas. The replica count is a
// fixed function of --seconds, so a seed and a --seconds value always give
// the same simulated results; one replica takes about
// 1 / replicas_per_second host seconds on a current x86 core. Pooling
// independent replicas rather than measuring one long window matters here:
// lock-elision workloads switch between long-lived regimes (lemming-style
// fallback convoys), and independent replicas average over them faster.
// --trace 1 runs replica 0 untraced and traced, requires the two to agree on
// every simulated result, and prints the per-layer metrics: span
// statistics, window-edge counter deltas, host probes and the FG-TLE(256)
// address-sensitivity diagnostic.
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exit status is 0
// only when every output check passed.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "probes.h"
#include "tle/fgtle.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double window_ms(const RepResult& r) {
  return static_cast<double>(r.win.cycles()) / (r.ghz * 1e6);
}

/// Seed of replica i of a run: replicas of different run seeds never share
/// a stream.
std::uint64_t replica_seed(std::uint64_t seed, std::size_t i) {
  return seed * 1000003ULL + i;
}

double frac(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Whether two runs of one replica seed agree on every simulated result
/// (traced against untraced).
bool same_sim(const RepResult& a, const RepResult& b) {
  const Tally& x = a.tally;
  const Tally& y = b.tally;
  return x.attempted == y.attempted && x.done_in_window == y.done_in_window &&
         x.completions == y.completions && x.met_slo == y.met_slo &&
         x.check_failures == y.check_failures && x.latencies == y.latencies &&
         a.errors == b.errors;
}

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t op_failures = 0;    ///< operations that failed their check
  std::vector<std::string> errors;  ///< whole-run checks that failed

  bool correct() const { return op_failures == 0 && errors.empty(); }
  std::uint64_t failed() const { return op_failures + errors.size(); }
};

/// A run's simulated outcome pooled over its replicas, plus the host-side
/// measurements of each replica.
struct Pooled {
  Tally tally;
  double window_ms = 0.0;  ///< summed over replicas
  double ghz = 1.0;
  std::vector<double> host_ops_per_s;
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;  ///< largest over the replica processes
};

void absorb(Pooled& p, Outcome& o, const RepResult& r, std::size_t replica) {
  merge(p.tally, r.tally);
  p.window_ms += window_ms(r);
  p.ghz = r.ghz;
  p.host_ops_per_s.push_back(
      frac(static_cast<double>(r.tally.completions), r.host_window_s));
  p.setup_s.push_back(r.setup_s);
  for (const std::string& e : r.errors) {
    o.errors.push_back("replica " + std::to_string(replica) + ": " + e);
  }
  o.attempted = p.tally.attempted;
  o.op_failures = p.tally.check_failures;
}

std::vector<Metric> end_to_end(const Pooled& p, Outcome& o) {
  const Tally& t = p.tally;
  const Percentile p50 = percentile(t.latencies, 0.50);
  const Percentile p99 = percentile(t.latencies, 0.99);
  const Percentile p999 = percentile(t.latencies, 0.999);
  std::printf("samples: %llu latencies; p99.9 has %llu beyond it\n",
              static_cast<unsigned long long>(t.latencies.size()),
              static_cast<unsigned long long>(p999.beyond));
  if (!p999.supported) {
    o.errors.push_back("p99.9 has fewer than " + std::to_string(kMinBeyond) +
                       " samples beyond it");
  }
  if (t.attempted == 0) o.errors.push_back("no operation attempted");
  const double fail = t.fail_frac(o.errors.size());
  std::printf("fail_frac: %s of %llu attempted\n", num(fail).c_str(),
              static_cast<unsigned long long>(t.attempted));
  return {
      {"sim_ops_per_ms", static_cast<double>(t.completions) / p.window_ms, "ops/ms"},
      {"sim_goodput_per_ms", static_cast<double>(t.met_slo) / p.window_ms, "ops/ms"},
      {"sim_lat_p50_ns", p50.value / p.ghz, "ns"},
      {"sim_lat_p99_ns", p99.value / p.ghz, "ns"},
      {"sim_lat_p999_ns", p999.value / p.ghz, "ns"},
      {"sim_done_frac", 1.0 - fail, "frac"},
      {"host_ops_per_s", median(p.host_ops_per_s), "ops/s"},
      {"host_peak_rss_mb", p.peak_rss_mb, "MB"},
      {"setup_s", median(p.setup_s), "s"},
  };
}

std::vector<Metric> per_layer(const RepResult& r, double trace_overhead,
                              std::uint64_t seed, Outcome& o) {
  std::vector<Metric> m;
  const Tally& t = r.tally;
  // Span statistics: call spans that end inside the window, by name.
  std::vector<std::vector<std::uint64_t>> dur(r.span_names.size());
  std::vector<std::uint64_t> lag;
  std::uint64_t req_start = 0;
  for (const Span& s : r.spans) {
    if (s.parent == 0) {
      req_start = s.start;
      continue;
    }
    if (!r.win.contains(s.end)) continue;
    dur[s.name].push_back(s.end - s.start);
    lag.push_back(s.start - req_start);
  }
  auto span_stats = [&](const std::string& name, std::uint16_t idx) {
    std::vector<std::uint64_t> d;
    if (idx < dur.size()) d = dur[idx];
    std::sort(d.begin(), d.end());
    m.push_back({name + ".count", static_cast<double>(d.size()), "count"});
    m.push_back({name + ".p50_cycles",
                 percentile(d, 0.50).value, "cycles"});
    m.push_back({name + ".p99_cycles",
                 percentile(d, 0.99).value, "cycles"});
  };
  auto index_of = [&](const std::string& name) {
    const auto it = std::find(r.span_names.begin(), r.span_names.end(), name);
    return static_cast<std::uint16_t>(it - r.span_names.begin());
  };
  for (const char* op : {"insert", "remove", "find"}) {
    const std::string n = std::string("runtime.execute.") + op;
    span_stats(n, index_of(n));
  }
  for (const char* op : {"get", "multi", "multi_get", "scan", "range_tx"}) {
    const std::string n = std::string("oltp.") + op;
    span_stats(n, index_of(n));
  }
  std::sort(lag.begin(), lag.end());
  m.push_back({"driver.start_lag.p50_cycles",
               percentile(lag, 0.50).value, "cycles"});
  m.push_back({"driver.start_lag.p99_cycles",
               percentile(lag, 0.99).value, "cycles"});
  m.push_back({"driver.fail_frac",
               t.fail_frac(o.errors.size()), "frac"});
  m.push_back({"driver.lat_samples", static_cast<double>(t.latencies.size()),
               "count"});

  // Counter deltas between the window edges.
  const auto& a = r.at_begin;
  const auto& b = r.at_end;
  auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double ops = d(a.ms.ops, b.ms.ops);
  const double lock = d(a.ms.commit_lock, b.ms.commit_lock);
  m.push_back({"tle.commit_fast_htm", d(a.ms.commit_fast_htm, b.ms.commit_fast_htm), "count"});
  m.push_back({"tle.commit_slow_htm", d(a.ms.commit_slow_htm, b.ms.commit_slow_htm), "count"});
  m.push_back({"tle.commit_lock", lock, "count"});
  m.push_back({"tle.lock_fallback_frac", frac(lock, ops), "frac"});
  m.push_back({"tle.slow_htm_while_locked",
               d(a.ms.slow_htm_while_locked, b.ms.slow_htm_while_locked), "count"});
  const double held = frac(d(a.ms.cycles_under_lock, b.ms.cycles_under_lock),
                           static_cast<double>(r.win.cycles()) * r.guards);
  if (held < 0.0 || held > 1.0) {
    o.errors.push_back("tle.lock_held_frac " + num(held) + " outside [0, 1]");
  }
  m.push_back({"tle.lock_held_frac", held, "frac"});
  double aborts = 0;
  for (std::size_t c = 1; c < rtle::htm::kNumAbortCauses; ++c) {
    const double n = d(a.htm_aborts[c], b.htm_aborts[c]);
    aborts += n;
    m.push_back({std::string("htm.aborts.") +
                     rtle::htm::to_string(static_cast<rtle::htm::AbortCause>(c)),
                 n, "count"});
  }
  const double cross_htm = d(a.cross.htm_commits, b.cross.htm_commits);
  const double htm_commits = d(a.ms.commit_fast_htm, b.ms.commit_fast_htm) +
                             d(a.ms.commit_slow_htm, b.ms.commit_slow_htm) +
                             cross_htm;
  m.push_back({"htm.commit_frac", frac(htm_commits, htm_commits + aborts), "frac"});
  const double cross = d(a.cross.commits, b.cross.commits);
  m.push_back({"oltp.cross.commits", cross, "count"});
  m.push_back({"oltp.cross.htm_frac", frac(cross_htm, cross), "frac"});
  m.push_back({"oltp.cross.lock_commits",
               d(a.cross.lock_commits, b.cross.lock_commits), "count"});
  for (std::size_t c = 1; c < rtle::htm::kNumAbortCauses; ++c) {
    m.push_back({std::string("oltp.cross.aborts.") +
                     rtle::htm::to_string(static_cast<rtle::htm::AbortCause>(c)),
                 d(a.cross.abort_cause[c], b.cross.abort_cause[c]), "count"});
  }
  m.push_back({"sync.sux.shared_acquisitions",
               d(a.ms.sux_shared_acquisitions, b.ms.sux_shared_acquisitions), "count"});
  m.push_back({"sync.sux.upgrades", d(a.ms.sux_upgrades, b.ms.sux_upgrades), "count"});
  m.push_back({"idx.scans", d(a.ms.idx_scans, b.ms.idx_scans), "count"});
  m.push_back({"idx.phantom_aborts",
               d(a.ms.idx_phantom_aborts, b.ms.idx_phantom_aborts), "count"});
  m.push_back({"idx.keys_per_scan", r.keys_per_scan, "keys"});

  // Host probes, the tracing overhead and the FG-TLE diagnostic.
  const double probes[] = {probe_switch_ns(4), probe_switch_ns(36),
                           probe_plain_load_ns(), probe_tx_load_ns(),
                           probe_execute_ns(), probe_get_ns()};
  const char* probe_names[] = {"sim.switch_ns.f4", "sim.switch_ns.f36",
                               "mem.plain_load_ns", "htm.tx_load_ns",
                               "runtime.execute_ns", "oltp.get_ns"};
  for (std::size_t i = 0; i < 6; ++i) {
    if (probes[i] < 0.0) {
      o.errors.push_back(std::string(probe_names[i]) + " probe read wrong values");
    }
    m.push_back({probe_names[i], probes[i], "ns"});
  }
  m.push_back({"trace.overhead_frac", trace_overhead, "frac"});
  const RepResult fg = run_avl(
      seed, false,
      {"FG-TLE(256)", [] { return std::make_unique<rtle::tle::FgTleMethod>(256); }},
      0.5);
  for (const std::string& e : fg.errors) o.errors.push_back("FG-TLE(256): " + e);
  m.push_back({"tle.fgtle256_ops_per_ms",
               static_cast<double>(fg.tally.completions) / window_ms(fg), "ops/ms"});
  return m;
}

void write_spans(const RepResult& r, const std::string& path) {
  std::ofstream f(path);
  f << "id\tparent\tname\tstart_cycles\tend_cycles\n";
  for (const Span& s : r.spans) {
    f << s.id << '\t' << s.parent << '\t' << r.span_names[s.name] << '\t'
      << s.start << '\t' << s.end << '\n';
  }
  if (!f) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

void print_result(const Outcome& o, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  if (o.op_failures > 0) {
    std::printf("CHECK FAILED: %llu operations returned wrong results\n",
                static_cast<unsigned long long>(o.op_failures));
  }
  for (const std::string& e : o.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::string json = "{\"correct\": ";
  json += o.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: rtle_perfbench --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--spans-dir <dir>]\n",
               why);
  std::exit(2);
}

struct Args {
  const char* workload = "";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  const char* spans_dir = nullptr;  ///< where the traced run's spans go
  const char* replica = nullptr;  ///< internal: run one replica, see below
};

// Argument parsing allocates nothing: every replica's set-up must start from
// the same heap state (see run_replica).
Args parse(int argc, char** argv) {
  Args a;
  if (argc % 2 != 1) usage("arguments come in --name value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(k, "--workload") == 0) {
      a.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0' || *v == '-') usage("--seed takes an unsigned integer");
    } else if (std::strcmp(k, "--seconds") == 0) {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (std::strcmp(k, "--trace") == 0) {
      a.trace = std::strcmp(v, "0") == 0 ? 0 : std::strcmp(v, "1") == 0 ? 1 : -1;
    } else if (std::strcmp(k, "--spans-dir") == 0) {
      a.spans_dir = v;
    } else if (std::strcmp(k, "--replica") == 0) {
      a.replica = v;
    } else {
      usage("unknown argument");
    }
  }
  if (find_workload(a.workload) == nullptr) usage("unknown or missing --workload");
  if (a.replica == nullptr) {
    if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
    if (!(a.seconds > 0.0)) usage("missing --seconds");
  }
  return a;
}

// --- replicas in their own processes ----------------------------------------
//
// Simulated cache-line identity is the host address >> 6, and some workloads
// (RW-TLE on the AVL set among them) are sensitive to where the allocator
// puts their objects. A replica run after another one in the same process
// sees a different heap (and a different glibc mmap threshold), so its
// simulated results would depend on what ran before it. Each replica
// therefore runs in a freshly exec'd copy of this binary, whose first heap
// activity is the replica's own set-up: a replica seed always gives the
// same simulated results, whatever ran before.

/// What a replica process reports back: the untraced RepResult fields the
/// end-to-end metrics need, plus its peak RSS.
struct ReplicaRecord {
  RepResult r;
  double peak_rss_mb = 0.0;
};

void put_bytes(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}

template <typename T>
void put(std::string& out, T v) {
  put_bytes(out, &v, sizeof v);
}

template <typename T>
bool get(const std::string& in, std::size_t& at, T& v) {
  if (in.size() - at < sizeof v) return false;
  std::memcpy(&v, in.data() + at, sizeof v);
  at += sizeof v;
  return true;
}

int run_replica(const Args& a) {
  const RepResult r = run_rep(a.workload, std::strtoull(a.replica, nullptr, 10), false);
  std::string out;
  const Tally& t = r.tally;
  for (std::uint64_t v : {r.win.begin, r.win.end, r.slo_cycles, t.attempted,
                          t.done_in_window, t.completions, t.met_slo,
                          t.check_failures, std::uint64_t{t.latencies.size()},
                          std::uint64_t{r.errors.size()}}) {
    put(out, v);
  }
  for (double v : {r.ghz, r.setup_s, r.host_window_s, peak_rss_mb()}) put(out, v);
  put_bytes(out, t.latencies.data(), t.latencies.size() * sizeof(std::uint64_t));
  for (const std::string& e : r.errors) {
    put(out, std::uint64_t{e.size()});
    put_bytes(out, e.data(), e.size());
  }
  return std::fwrite(out.data(), 1, out.size(), stdout) == out.size() ? 0 : 1;
}

/// Runs one replica in a fresh process and decodes its record; on failure
/// the record carries an error message instead.
ReplicaRecord spawn_replica(const char* workload, std::uint64_t rs) {
  ReplicaRecord rec;
  const std::string seed = std::to_string(rs);
  const char* args[] = {"rtle_perfbench", "--workload", workload, "--replica",
                        seed.c_str(), nullptr};
  int fds[2];
  if (pipe(fds) != 0) {
    rec.r.errors.push_back("pipe() failed");
    return rec;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", const_cast<char* const*>(args));
    _exit(127);
  }
  close(fds[1]);
  std::string in;
  char buf[1 << 16];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    in.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    rec.r.errors.push_back("replica " + seed + " process failed");
    return rec;
  }
  std::size_t at = 0;
  Tally& t = rec.r.tally;
  std::uint64_t nlat = 0, nerr = 0;
  bool ok = get(in, at, rec.r.win.begin) && get(in, at, rec.r.win.end) &&
            get(in, at, rec.r.slo_cycles) && get(in, at, t.attempted) &&
            get(in, at, t.done_in_window) && get(in, at, t.completions) &&
            get(in, at, t.met_slo) && get(in, at, t.check_failures) &&
            get(in, at, nlat) && get(in, at, nerr) && get(in, at, rec.r.ghz) &&
            get(in, at, rec.r.setup_s) && get(in, at, rec.r.host_window_s) &&
            get(in, at, rec.peak_rss_mb) &&
            (in.size() - at) / sizeof(std::uint64_t) >= nlat;
  if (ok) {
    t.latencies.resize(nlat);
    std::memcpy(t.latencies.data(), in.data() + at, nlat * sizeof(std::uint64_t));
    at += nlat * sizeof(std::uint64_t);
    for (std::uint64_t i = 0; ok && i < nerr; ++i) {
      std::uint64_t len = 0;
      ok = get(in, at, len) && in.size() - at >= len;
      if (ok) {
        rec.r.errors.emplace_back(in.data() + at, len);
        at += len;
      }
    }
  }
  if (!ok) rec.r.errors.push_back("replica " + seed + " sent a malformed record");
  return rec;
}

int run_untraced(const Args& a) {
  const WorkloadInfo& info = *find_workload(a.workload);
  const auto replicas = static_cast<std::size_t>(
      std::max(1.0, std::round(a.seconds * info.replicas_per_second)));
  std::printf("workload %s seed %llu trace 0\n", a.workload,
              static_cast<unsigned long long>(a.seed));
  Outcome o;
  Pooled pooled;
  pooled.peak_rss_mb = peak_rss_mb();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < replicas; ++i) {
    const ReplicaRecord rec = spawn_replica(a.workload, replica_seed(a.seed, i));
    absorb(pooled, o, rec.r, i);
    pooled.peak_rss_mb = std::max(pooled.peak_rss_mb, rec.peak_rss_mb);
  }
  std::printf("replicas: %zu in %.2f host s\n", replicas,
              std::chrono::duration<double>(Clock::now() - t0).count());
  print_result(o, end_to_end(pooled, o));
  return o.correct() ? 0 : 1;
}

int run_traced(const Args& a) {
  // The traced replica runs first, in this still untouched process, so it
  // sees the same heap as the untraced replica process it is compared with.
  const std::uint64_t rs = replica_seed(a.seed, 0);
  const RepResult traced = run_rep(a.workload, rs, true);
  const ReplicaRecord untraced = spawn_replica(a.workload, rs);
  std::printf("workload %s seed %llu trace 1\n", a.workload,
              static_cast<unsigned long long>(a.seed));
  Outcome o;
  Pooled pooled;
  absorb(pooled, o, traced, 0);
  if (!same_sim(untraced.r, traced)) {
    o.errors.push_back("traced run's simulated results differ from the untraced run's");
  } else {
    std::printf("traced == untraced on every simulated result\n");
  }
  // The traced replica's simulated end-to-end figures, for reading beside the
  // untraced ones; a single replica need not have samples enough for p99.9,
  // so its sample-count check is not applied here.
  Outcome shown;
  for (const Metric& m : end_to_end(pooled, shown)) {
    if (m.name.rfind("sim_", 0) == 0) {
      std::printf("traced %-27s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                  m.unit.c_str());
    }
  }
  const double overhead = traced.host_window_s / untraced.r.host_window_s - 1.0;
  const std::vector<Metric> metrics = per_layer(traced, overhead, rs, o);
  if (a.spans_dir != nullptr) {
    write_spans(traced, std::string(a.spans_dir) + "/spans-" + a.workload +
                            "-seed" + std::to_string(a.seed) + ".tsv");
  }
  print_result(o, metrics);
  return o.correct() ? 0 : 1;
}

int run(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.replica != nullptr) return run_replica(a);
  return a.trace == 1 ? run_traced(a) : run_untraced(a);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
