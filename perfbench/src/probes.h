// Host-time probes: each times a fixed loop of one public call in its own
// SimScope and returns host CPU nanoseconds per call. They isolate the host
// cost of one layer (scheduler, memory model, HTM bookkeeping, runtime
// engine, store) from the workloads that mix them.
#pragma once

#include <cstdint>

namespace perfbench {

/// Scheduler::advance(1) with `fibers` runnable fibers: every call switches.
double probe_switch_ns(std::uint32_t fibers);
/// mem::plain_load over 4096 distinct lines, one fiber.
double probe_plain_load_ns();
/// HtmDomain::tx_load, 64 distinct lines per transaction, one fiber.
double probe_tx_load_ns();
/// SyncMethod::execute of an empty critical section under TLE.
double probe_execute_ns();
/// oltp::Store::get under TLE, 4 shards, 4096 keys.
double probe_get_ns();

}  // namespace perfbench
