// Server-workload tests: session bookkeeping balances, the latency
// digest populates, and the workload runs against every system the
// benchmark compares.
#include <gtest/gtest.h>

#include "workload/server.h"
#include "workload/system.h"

namespace msw::workload {
namespace {

ServerOptions
tiny_options()
{
    ServerOptions so;
    so.threads = 2;
    so.ops_per_thread = 20000;
    so.sessions_per_thread = 128;
    return so;
}

TEST(ServerWorkload, AllocsAndFreesBalance)
{
    System sys = make_system(SystemKind::kBaseline);
    const WorkloadResult r = run_server(sys, tiny_options());
    EXPECT_GT(r.allocs, 1000u);
    EXPECT_EQ(r.allocs, r.frees)
        << "shutdown closes every session, so the books must balance";
    EXPECT_GT(r.bytes_allocated, 0u);
}

TEST(ServerWorkload, OpLatencyDigestPopulates)
{
    const ServerOptions so = tiny_options();
    System sys = make_system(SystemKind::kBaseline);
    const WorkloadResult r = run_server(sys, so);
    EXPECT_EQ(r.op_latency.count, so.threads * so.ops_per_thread)
        << "every operation is timed exactly once";
    EXPECT_GT(r.op_latency.p50_ns, 0u);
    EXPECT_LE(r.op_latency.p50_ns, r.op_latency.p99_ns);
    EXPECT_LE(r.op_latency.p99_ns, r.op_latency.p999_ns);
    EXPECT_LE(r.op_latency.p999_ns, r.op_latency.max_ns);
}

TEST(ServerWorkload, DeterministicOpStreamForSameSeed)
{
    // The op stream (and so the alloc/free ledger) is a pure function
    // of the seed.
    const ServerOptions so = tiny_options();
    System a = make_system(SystemKind::kBaseline);
    const WorkloadResult ra = run_server(a, so);
    System b = make_system(SystemKind::kBaseline);
    const WorkloadResult rb = run_server(b, so);
    EXPECT_EQ(ra.allocs, rb.allocs)
        << "per-thread RNG streams are seeded deterministically";
    EXPECT_EQ(ra.frees, rb.frees);
    EXPECT_EQ(ra.bytes_allocated, rb.bytes_allocated);
    EXPECT_EQ(ra.checksum, rb.checksum);
}

TEST(ServerWorkload, RunsAgainstEverySystem)
{
    // Touches fold only bytes the workload wrote, so every system must
    // reproduce the baseline's (first) checksum for one seed.
    std::uint64_t expected = 0;
    for (SystemKind kind :
         {SystemKind::kBaseline, SystemKind::kMineSweeper,
          SystemKind::kMarkUs, SystemKind::kFFMalloc}) {
        ServerOptions so = tiny_options();
        so.ops_per_thread = 10000;
        System sys = make_system(kind);
        const WorkloadResult r = run_server(sys, so);
        EXPECT_EQ(r.allocs, r.frees)
            << "system: " << system_kind_name(kind);
        EXPECT_GT(r.op_latency.count, 0u)
            << "system: " << system_kind_name(kind);
        EXPECT_EQ(r.failed_allocs, 0u)
            << "system: " << system_kind_name(kind);
        if (kind == SystemKind::kBaseline)
            expected = r.checksum;
        EXPECT_EQ(r.checksum, expected)
            << "system: " << system_kind_name(kind);
        sys.flush();
    }
}

}  // namespace
}  // namespace msw::workload
