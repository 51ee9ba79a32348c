/**
 * @file
 * Long-running server workload: the tail-latency half of the evaluation.
 *
 * The executor's profile workloads reproduce SPEC-style batch churn and
 * measure throughput; what they cannot show is *when* the runtime's
 * costs land. A quarantine sweeper concentrates work into pauses —
 * backpressure on the allocation path, stop-the-world windows — which
 * batch wall-clock numbers average away but a request/response server
 * feels as tail latency. This workload models that server: a fixed pool
 * of worker threads serves a stream of operations over millions of
 * lightweight sessions with heavy-tailed (Pareto) lifetimes and buffer
 * sizes, timing every operation into a per-thread latency histogram
 * (metrics/histogram.h). The per-operation digest is the workload's
 * product: p50 tracks the allocator fast path, p99/p999 expose sweep
 * pauses and STW windows.
 *
 * Each operation is one of:
 *  - close: the chosen session expired — free its buffers and header;
 *  - open: the chosen slot is empty — allocate a session header plus a
 *    heavy-tailed number/size of buffers, fill them, stamp its expiry;
 *  - touch: read-modify-write a stripe of the session's newest buffer
 *    (the "request handler" doing work against live state). It reads
 *    only bytes open wrote, so the checksum depends on the seed alone.
 *
 * Session headers live in the system-under-test heap and hold real
 * pointers to their buffers; the per-thread slot table is registered as
 * a root. Sweeps and transitive marks therefore traverse exactly the
 * object graph a real server would give them.
 */
#pragma once

#include <cstddef>
#include <cstdint>

#include "workload/profile.h"
#include "workload/system.h"

namespace msw::workload {

struct ServerOptions {
    /** Worker threads (independent request streams). */
    unsigned threads = 4;

    /**
     * Operations per thread. Sessions churn continuously, so ops >> slots
     * yields many session generations per run.
     */
    std::uint64_t ops_per_thread = 200000;

    /** Concurrent sessions per thread (slot-table size). */
    std::size_t sessions_per_thread = 2048;
};

/**
 * Run the server workload against @p sys. The returned result carries
 * the merged per-operation latency digest in op_latency.
 */
WorkloadResult run_server(System& sys, const ServerOptions& opts);

}  // namespace msw::workload
