/**
 * @file
 * A multithreaded "server" on MineSweeper: the production deployment the
 * paper targets (long-running, allocation-heavy, latency-conscious).
 *
 * Runs the library's server workload (workload/server.h) on the
 * mostly-concurrent MineSweeper. Four workers serve requests over
 * sessions with heavy-tailed lifetimes whose headers hold real heap
 * pointers to their buffers; each worker's session table is a root and
 * each worker a registered mutator, so sweeps scan them and the
 * stop-the-world phases stop them. Every request is timed.
 *
 *   $ ./server_workload [requests-per-worker]
 */
#include <cstdio>
#include <cstdlib>

#include "metrics/telemetry.h"
#include "util/clock.h"
#include "workload/server.h"

int
main(int argc, char** argv)
{
    using namespace msw;
    workload::ServerOptions opts;
    opts.ops_per_thread =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 20000;

    // The master telemetry layer records every allocation pause.
    // msw-relaxed(config-flag): armed before the runtime is constructed.
    metrics::telemetry().enabled.store(true, std::memory_order_relaxed);
    workload::System sys =
        workload::make_system(workload::SystemKind::kMineSweeperMostly);
    std::printf("serving %llu requests on each of %u workers "
                "(mostly-concurrent MineSweeper)...\n",
                static_cast<unsigned long long>(opts.ops_per_thread),
                opts.threads);

    const std::uint64_t t0 = util::monotonic_ns();
    const workload::WorkloadResult result = workload::run_server(sys, opts);
    const double elapsed_s =
        static_cast<double>(util::monotonic_ns() - t0) * 1e-9;

    const metrics::LatencySummary& op = result.op_latency;
    const metrics::StatSnapshot counters = sys.counters();
    std::printf("served %llu requests in %.2fs (%.0f ops/s), "
                "p50 %llu ns, p99 %llu ns\n",
                static_cast<unsigned long long>(op.count), elapsed_s,
                static_cast<double>(op.count) / elapsed_s,
                static_cast<unsigned long long>(op.p50_ns),
                static_cast<unsigned long long>(op.p99_ns));
    std::printf("sweeps: %llu | stop-the-world total: %.2f ms | "
                "allocation pauses: %llu\n",
                static_cast<unsigned long long>(counters.sweeps),
                static_cast<double>(counters[metrics::Stat::kStwNs]) * 1e-6,
                static_cast<unsigned long long>(
                    metrics::telemetry().pause_ns.summarize().count));
    return op.count == opts.threads * opts.ops_per_thread ? 0 : 1;
}
