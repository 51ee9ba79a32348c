// Workload subsystem tests: profile determinism, executor invariants,
// system factory, SPEC profile tables, and stress-kernel smoke runs.
#include <gtest/gtest.h>

#include <vector>

#include "core/minesweeper.h"
#include "util/failpoint.h"
#include "workload/executor.h"
#include "workload/mimalloc_kernels.h"
#include "workload/runner.h"
#include "workload/spec_profiles.h"
#include "workload/system.h"

namespace msw::workload {
namespace {

Profile
tiny_profile()
{
    Profile p;
    p.name = "tiny";
    p.ticks = 5000;
    p.allocs_per_tick = 4;
    p.lifetime_mean_ticks = 40;
    p.long_lived_frac = 0.01;
    p.ptr_slots = 2;
    p.ptr_prob = 0.4;
    p.work_per_tick = 50;
    return p;
}

TEST(SystemFactory, CreatesAllKinds)
{
    for (SystemKind kind :
         {SystemKind::kBaseline, SystemKind::kMineSweeper,
          SystemKind::kMineSweeperMostly, SystemKind::kMarkUs,
          SystemKind::kFFMalloc}) {
        System sys = make_system(kind);
        ASSERT_NE(sys.allocator, nullptr);
        EXPECT_EQ(sys.name, system_kind_name(kind));
        void* p = sys.allocator->alloc(100);
        ASSERT_NE(p, nullptr);
        sys.allocator->free(p);
        sys.flush();
    }
}

TEST(Executor, AllocsAndFreesBalance)
{
    System sys = make_system(SystemKind::kBaseline);
    const WorkloadResult r = run_profile(sys, tiny_profile());
    EXPECT_GT(r.allocs, 10000u);
    EXPECT_EQ(r.allocs, r.frees)
        << "every allocation must be freed by the end of the run";
    EXPECT_GT(r.bytes_allocated, 0u);
}

TEST(Executor, DeterministicChecksumAcrossSystems)
{
    // The same profile must produce the same trace (checksum) no matter
    // which allocator runs underneath — the workloads are
    // system-independent by construction.
    const Profile p = tiny_profile();
    std::uint64_t checksums[4];
    int i = 0;
    for (SystemKind kind :
         {SystemKind::kBaseline, SystemKind::kMineSweeper,
          SystemKind::kMarkUs, SystemKind::kFFMalloc}) {
        System sys = make_system(kind);
        checksums[i++] = run_profile(sys, p).checksum;
    }
    EXPECT_EQ(checksums[0], checksums[1]);
    EXPECT_EQ(checksums[0], checksums[2]);
    EXPECT_EQ(checksums[0], checksums[3]);
}

TEST(Executor, DifferentSeedsDiverge)
{
    Profile a = tiny_profile();
    Profile b = tiny_profile();
    b.seed += 1;
    System s1 = make_system(SystemKind::kBaseline);
    System s2 = make_system(SystemKind::kBaseline);
    EXPECT_NE(run_profile(s1, a).checksum, run_profile(s2, b).checksum);
}

TEST(Executor, MultiThreadedProfileCompletes)
{
    Profile p = tiny_profile();
    p.threads = 4;
    System sys = make_system(SystemKind::kMineSweeper);
    const WorkloadResult r = run_profile(sys, p);
    EXPECT_EQ(r.allocs, r.frees);
}

TEST(Executor, MineSweeperSweepsUnderChurnProfile)
{
    Profile p = tiny_profile();
    p.ticks = 30000;
    core::Options o;
    o.min_sweep_bytes = 64 * 1024;
    System sys = make_system(SystemKind::kMineSweeper, o);
    run_profile(sys, p);
    EXPECT_GT(sys.counters().sweeps, 0u);
}

TEST(SpecProfiles, SuitesHaveExpectedBenchmarks)
{
    const auto suite06 = spec2006_profiles();
    EXPECT_EQ(suite06.size(), 19u);
    const auto suite17 = spec2017_profiles();
    EXPECT_EQ(suite17.size(), 18u);

    int threaded = 0;
    for (const Profile& p : suite17)
        threaded += p.threads > 1;
    EXPECT_EQ(threaded, 10) << "ten starred (OpenMP) benchmarks in Fig 18";
}

TEST(SpecProfiles, AllocationIntensityOrdering)
{
    // The profiles must encode the paper's key contrast: xalancbmk and
    // omnetpp allocate orders of magnitude more than lbm/libquantum.
    const auto by_name = [](const char* name) {
        return spec_profile(name);
    };
    const auto total_allocs = [](const Profile& p) {
        return p.ticks * p.allocs_per_tick;
    };
    EXPECT_GT(total_allocs(by_name("xalancbmk")),
              50 * total_allocs(by_name("lbm")));
    EXPECT_GT(total_allocs(by_name("omnetpp")),
              50 * total_allocs(by_name("libquantum")));
    EXPECT_GT(total_allocs(by_name("perlbench")),
              10 * total_allocs(by_name("namd")));
}

TEST(SpecProfiles, ScaleShrinksTicks)
{
    const Profile full = spec_profile("gcc", 1.0);
    const Profile small = spec_profile("gcc", 0.1);
    EXPECT_LT(small.ticks, full.ticks);
}

TEST(StressKernels, AllSixteenPresent)
{
    const auto kernels = mimalloc_kernels();
    ASSERT_EQ(kernels.size(), 16u);
    EXPECT_EQ(kernels.front().name, "alloc-test1");
    EXPECT_EQ(kernels.back().name, "xmalloc-testN");
}

class KernelSmokeTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, SystemKind>>
{
};

TEST_P(KernelSmokeTest, RunsCleanlyAtTinyScale)
{
    const auto [kernel_idx, kind] = GetParam();
    const auto kernels = mimalloc_kernels();
    System sys = make_system(kind);
    const WorkloadResult r = kernels[kernel_idx].run(sys, 0.01);
    EXPECT_GT(r.allocs, 0u);
    EXPECT_EQ(r.allocs, r.frees) << kernels[kernel_idx].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelSmokeTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, 16),
                       ::testing::Values(SystemKind::kBaseline,
                                         SystemKind::kMineSweeper)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, SystemKind>>&
           info) {
        const auto kernels = mimalloc_kernels();
        std::string name = kernels[std::get<0>(info.param)].name;
        for (char& c : name) {
            if (c == '-')
                c = '_';
        }
        return name + "_" +
               system_kind_name(std::get<1>(info.param));
    });

TEST(Runner, SubprocessMeasurementRoundTrips)
{
    Profile p = tiny_profile();
    const metrics::RunRecord rec =
        measure_profile(SystemKind::kBaseline, p);
    ASSERT_TRUE(rec.ok);
    EXPECT_GT(rec.wall_s, 0.0);
    EXPECT_GT(rec.allocs, 0u);
    EXPECT_EQ(rec.allocs, rec.frees);
    EXPECT_GT(rec.peak_rss, 1u << 20);
    EXPECT_GE(rec.peak_rss, rec.avg_rss);
}

TEST(Runner, ChecksumsIdenticalAcrossSubprocessRuns)
{
    Profile p = tiny_profile();
    const auto a = measure_profile(SystemKind::kBaseline, p);
    const auto b = measure_profile(SystemKind::kMineSweeper, p);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_GT(b.counters.sweeps, 0u);
}

// Counter surface: make_system's snapshot carries every MSW_STAT_LIST row
// of each runtime-backed system in its own slot, plus the sweep count.
TEST(CounterSurface, SystemSnapshotCarriesEveryStat)
{
    for (const SystemKind kind :
         {SystemKind::kMineSweeper, SystemKind::kMarkUs,
          SystemKind::kFFMalloc}) {
        System sys = make_system(kind);
        SCOPED_TRACE(sys.name);
        void* p = sys.allocator->alloc(64);
        // The byte gauges report the same accounting as stats().
        const alloc::AllocatorStats st = sys.allocator->stats();
        const metrics::StatSnapshot live = sys.counters();
        EXPECT_EQ(live[metrics::Stat::kLiveBytes], st.live_bytes);
        EXPECT_EQ(live[metrics::Stat::kCommittedBytes], st.committed_bytes);
        EXPECT_GT(live[metrics::Stat::kLiveBytes], 0u);
        EXPECT_GT(live[metrics::Stat::kCommittedBytes], 0u);
        sys.allocator->free(p);
        if (auto* rt = dynamic_cast<core::QuarantineRuntime*>(
                sys.allocator.get())) {
            rt->force_sweep();
        }

        // A distinct mark in the high half of every cell: natural counts
        // stay far below 2^32 here, so the high half names the slot.
        auto& cells =
            dynamic_cast<core::RuntimeBase&>(*sys.allocator).stat_cells();
        const auto mark = [](unsigned i) {
            return std::uint64_t{i + 1} << 32;
        };
        for (unsigned i = 0; i < metrics::kStatCount; ++i)
            cells.add(static_cast<metrics::Stat>(i), mark(i));
        const metrics::StatSnapshot snap = sys.counters();
        for (unsigned i = 0; i < metrics::kStatCount; ++i) {
            EXPECT_EQ(snap.values[i] >> 32, i + 1)
                << metrics::kStatNames[i];
            cells.sub(static_cast<metrics::Stat>(i), mark(i));
        }
        EXPECT_GE(snap[metrics::Stat::kAllocCalls], 1u);
        if (kind == SystemKind::kFFMalloc)
            EXPECT_EQ(snap.sweeps, 0u);
        else
            EXPECT_GE(snap.sweeps, 1u);
    }
    System baseline = make_system(SystemKind::kBaseline);
    const metrics::StatSnapshot zero = baseline.counters();
    EXPECT_EQ(zero.sweeps, 0u);
    for (unsigned i = 0; i < metrics::kStatCount; ++i)
        EXPECT_EQ(zero.values[i], 0u) << metrics::kStatNames[i];
}

// The sweep frame counts what every pass releases, scans and keeps, for
// both quarantine runtimes: a freed block reached only by a dead pointer
// is released, one still stored in a registered root is a failed free.
void* g_rooted_slot = nullptr;

TEST(CounterSurface, SweepsCountReleasesScansAndFailedFrees)
{
    for (const SystemKind kind :
         {SystemKind::kMineSweeper, SystemKind::kMarkUs}) {
        System sys = make_system(kind);
        SCOPED_TRACE(sys.name);
        auto& rt = dynamic_cast<core::QuarantineRuntime&>(*sys.allocator);
        g_rooted_slot = nullptr;  // written, so its page is resident
        rt.add_root(&g_rooted_slot, sizeof(g_rooted_slot));
        // Many blocks, so a stale copy of one pointer on the stack cannot
        // pin them all.
        for (int i = 0; i < 64; ++i)
            sys.allocator->free(sys.allocator->alloc(64));
        rt.force_sweep();
        const metrics::StatSnapshot released = sys.counters();
        EXPECT_GT(released[metrics::Stat::kEntriesReleased], 0u);
        EXPECT_GE(released[metrics::Stat::kBytesReleased], 64u);
        EXPECT_GT(released[metrics::Stat::kBytesScanned], 0u);

        g_rooted_slot = sys.allocator->alloc(64);
        sys.allocator->free(g_rooted_slot);
        rt.force_sweep();
        EXPECT_GT(sys.counters()[metrics::Stat::kFailedFrees], 0u);
        rt.remove_root(&g_rooted_slot);
    }
}

// The post-sweep purge counts through the commit and purge hooks, for
// both quarantine runtimes: the slabs a sweep's release empties stay
// committed through that sweep's purge, so reusing them commits nothing,
// and the next sweep purges them only if a whole epoch left them unused.
TEST(CounterSurface, PurgeSparesTheSlabsASweepJustEmptied)
{
    for (const SystemKind kind :
         {SystemKind::kMineSweeper, SystemKind::kMarkUs}) {
        System sys = make_system(kind);
        SCOPED_TRACE(sys.name);
        auto& rt = dynamic_cast<core::QuarantineRuntime&>(*sys.allocator);
        const auto committed = [&] {
            return sys.counters()[metrics::Stat::kPagesCommitted];
        };
        const auto purged = [&] {
            return sys.counters()[metrics::Stat::kPagesPurged];
        };
        // 2000 x 256 B fill dozens of slabs and stay under the 1 MiB
        // floor of both runtimes' triggers: only force_sweep() sweeps.
        std::vector<void*> blocks(2000);
        const auto churn = [&] {
            for (void*& p : blocks)
                p = sys.allocator->alloc(256);
            for (void* p : blocks)
                sys.allocator->free(p);
        };
        churn();
        const std::uint64_t committed0 = committed();
        EXPECT_GT(committed0, 0u);
        rt.force_sweep();
        EXPECT_EQ(purged(), 0u) << "the sweep purged the slabs it emptied";

        // Reuse within the next epoch commits nothing, and the sweep that
        // empties the slabs again still leaves them committed.
        churn();
        EXPECT_EQ(committed(), committed0)
            << "reusing the emptied slabs committed pages";
        rt.force_sweep();
        EXPECT_EQ(purged(), 0u);

        // A sweep after an epoch with no reuse purges them (one small
        // free gives it a quarantine to lock in).
        sys.allocator->free(sys.allocator->alloc(64));
        rt.force_sweep();
        EXPECT_GT(purged(), 0u) << "a whole unused epoch was not purged";
    }
}

// Both quarantine runtimes run the one out-of-memory ladder and count
// it: with heap growth failing, a 1 MiB allocation retries, sweeps and
// purges before it returns nullptr.
TEST(CounterSurface, OutOfMemoryLadderCountsOnBothRuntimes)
{
    for (const SystemKind kind :
         {SystemKind::kMineSweeper, SystemKind::kMarkUs}) {
        System sys = make_system(kind);
        SCOPED_TRACE(sys.name);
        util::failpoint_arm(util::Failpoint::kExtentGrow,
                            util::FailpointPolicy::prob(1.0));
        void* p = sys.allocator->alloc(std::size_t{1} << 20);
        util::failpoint_disarm_all();
        EXPECT_EQ(p, nullptr);
        const metrics::StatSnapshot snap = sys.counters();
        EXPECT_GT(snap[metrics::Stat::kEmergencySweeps], 0u);
        EXPECT_GT(snap[metrics::Stat::kCommitRetries], 0u);
        EXPECT_GT(snap[metrics::Stat::kOomReturns], 0u);
    }
}

}  // namespace
}  // namespace msw::workload
