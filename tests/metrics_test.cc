// Metrics tests: RSS sampling, CPU/wall clocks, subprocess round-trips,
// geomean and table formatting.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/time.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "metrics/metrics.h"
#include "util/clock.h"
#include "vm/vm.h"

namespace msw::metrics {
namespace {

TEST(Clocks, WallAdvances)
{
    const std::uint64_t a = util::monotonic_ns();
    struct timespec ts {
        0, 20 * 1000 * 1000
    };
    nanosleep(&ts, nullptr);
    EXPECT_GT(util::monotonic_ns(), a + 15 * 1000 * 1000);
}

TEST(Clocks, CpuAdvancesUnderWork)
{
    const double a = process_cpu_seconds();
    volatile std::uint64_t x = 1;
    for (int i = 0; i < 30000000; ++i)
        x = x * 31 + 7;
    EXPECT_GT(process_cpu_seconds(), a);
}

TEST(Sampler, ObservesAllocationGrowth)
{
    RssSampler sampler(2);
    const std::size_t kBytes = 64 << 20;
    vm::Reservation r = vm::Reservation::reserve(kBytes);
    r.commit_must(r.base(), kBytes);
    std::memset(reinterpret_cast<void*>(r.base()), 1, kBytes);
    struct timespec ts {
        0, 30 * 1000 * 1000
    };
    nanosleep(&ts, nullptr);
    sampler.stop();
    EXPECT_GE(sampler.peak(), sampler.average());
    EXPECT_GT(sampler.peak(), kBytes / 2);
    EXPECT_GE(sampler.series().size(), 2u);
}

// A run shorter than one interval still has a sample: the constructor
// takes one before the thread starts and stop() one more.
TEST(Sampler, StoppedAtOnceStillHasASample)
{
    RssSampler sampler(1000);
    sampler.stop();
    EXPECT_FALSE(sampler.series().empty());
    EXPECT_GT(sampler.average(), 0u);
    EXPECT_GT(sampler.peak(), 0u);
}

// Also the counter surface's fork-pipe leg: a distinct value in every
// MSW_STAT_LIST slot arrives intact in the parent.
TEST(Subprocess, ReturnsChildRecord)
{
    const auto slot_value = [](unsigned i) {
        return 0x5100000000ull + 17u * i;
    };
    const RunRecord rec = run_in_subprocess([&] {
        RunRecord r;
        r.wall_s = 1.5;
        r.cpu_s = 0.5;
        r.allocs = 42;
        r.frees = 42;
        r.checksum = 0xabcd;
        r.avg_rss = 1000;
        r.peak_rss = 2000;
        r.counters.sweeps = 7;
        for (unsigned i = 0; i < kStatCount; ++i)
            r.counters.values[i] = slot_value(i);
        r.rss_series = {{0.1, 500}, {0.2, 1500}};
        return r;
    });
    ASSERT_TRUE(rec.ok);
    EXPECT_DOUBLE_EQ(rec.wall_s, 1.5);
    EXPECT_EQ(rec.allocs, 42u);
    EXPECT_EQ(rec.checksum, 0xabcdu);
    EXPECT_EQ(rec.counters.sweeps, 7u);
    for (unsigned i = 0; i < kStatCount; ++i)
        EXPECT_EQ(rec.counters.values[i], slot_value(i)) << kStatNames[i];
    ASSERT_EQ(rec.rss_series.size(), 2u);
    EXPECT_EQ(rec.rss_series[1].second, 1500u);
}

TEST(Subprocess, ChildCrashReportsNotOk)
{
    const RunRecord rec = run_in_subprocess([]() -> RunRecord {
        std::abort();
    });
    EXPECT_FALSE(rec.ok);
}

TEST(Subprocess, ChildIsolatesMemory)
{
    // Memory the child touches must not affect the parent's RSS.
    const std::size_t before = vm::current_rss_bytes();
    const RunRecord rec = run_in_subprocess([] {
        vm::Reservation r = vm::Reservation::reserve(256 << 20);
        r.commit_must(r.base(), 256 << 20);
        std::memset(reinterpret_cast<void*>(r.base()), 1, 256 << 20);
        RunRecord out;
        out.peak_rss = vm::current_rss_bytes();
        return out;
    });
    ASSERT_TRUE(rec.ok);
    EXPECT_GT(rec.peak_rss, 200u << 20);
    EXPECT_LT(vm::current_rss_bytes(), before + (64u << 20));
}

TEST(Subprocess, TimeoutKillsHungChild)
{
    const std::uint64_t t0 = util::monotonic_ns();
    const RunRecord rec = run_in_subprocess(
        []() -> RunRecord {
            for (;;)
                pause();
        },
        /*timeout_s=*/1);
    EXPECT_FALSE(rec.ok);
    EXPECT_LT(util::monotonic_ns() - t0, 10ull * 1000 * 1000 * 1000);
}

// SIGALRM without SA_RESTART makes poll, read and waitpid in the parent
// fail with EINTR; the interrupted wait must go on, not fail the run.
// Interval timers are not inherited across fork, so the child runs on
// undisturbed.
TEST(Subprocess, ParentSignalDoesNotFailTheRun)
{
    struct sigaction no_restart {};
    no_restart.sa_handler = [](int) {};
    sigemptyset(&no_restart.sa_mask);
    struct sigaction old {};
    ASSERT_EQ(sigaction(SIGALRM, &no_restart, &old), 0);
    const itimerval every_ms{{0, 1000}, {0, 1000}};
    ASSERT_EQ(setitimer(ITIMER_REAL, &every_ms, nullptr), 0);
    for (const unsigned timeout_s : {0u, 10u}) {
        const RunRecord rec = run_in_subprocess(
            [] {
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
                RunRecord r;
                r.allocs = 7;
                return r;
            },
            timeout_s);
        EXPECT_TRUE(rec.ok) << "timeout_s " << timeout_s;
        EXPECT_EQ(rec.allocs, 7u) << "timeout_s " << timeout_s;
    }
    const itimerval off{};
    setitimer(ITIMER_REAL, &off, nullptr);
    sigaction(SIGALRM, &old, nullptr);
}

TEST(Geomean, MatchesClosedForm)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Format, Ratios)
{
    EXPECT_EQ(fmt_ratio(1.0536), "1.054x");
    EXPECT_EQ(fmt_mib(1024 * 1024), "1.0");
    EXPECT_EQ(fmt_seconds(1.23456), "1.235");
}

TEST(TableTest, PrintsAlignedColumns)
{
    Table t({"bench", "time", "memory"});
    t.add_row({"xalancbmk", "1.73x", "1.12x"});
    t.add_row({"geomean", "1.05x"});  // a short row pads its missing cells
    testing::internal::CaptureStdout();
    t.print();
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "| bench     | time  | memory |\n"
              "|-----------|-------|--------|\n"
              "| xalancbmk | 1.73x | 1.12x  |\n"
              "| geomean   | 1.05x |        |\n");
}

}  // namespace
}  // namespace msw::metrics
