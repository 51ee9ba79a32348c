// Telemetry registry tests: env arming, the JSON export, the
// async-signal-safe dump (exercised through a real SIGUSR2 delivery),
// and op-latency sampling wired through a live MineSweeper.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/minesweeper.h"
#include "metrics/telemetry.h"
#include "util/clock.h"

namespace msw::metrics {
namespace {

// The registry is process-global, so every test restores the gates it
// flips; tests touching env vars clean those too.
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        telemetry().enabled.store(false, std::memory_order_relaxed);
        telemetry().sample_ops.store(false, std::memory_order_relaxed);
        ::unsetenv("MSW_TELEMETRY");
        ::unsetenv("MSW_STATS_DUMP");
    }
};

std::string
slurp(const std::string& path)
{
    std::string out;
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

std::string
temp_path(const char* tag)
{
    return std::string(::testing::TempDir()) + "telemetry_" + tag + "_" +
           std::to_string(::getpid());
}

TEST_F(TelemetryTest, OffByDefault)
{
    EXPECT_FALSE(telemetry().on());
    EXPECT_FALSE(telemetry().ops_on());
    // Gated trace push must be a no-op while off.
    const std::uint64_t before = telemetry().trace.pushed();
    telemetry().trace_event(TraceEvent::kSweepBegin, 1, 2);
    EXPECT_EQ(telemetry().trace.pushed(), before);
}

TEST_F(TelemetryTest, EnvArmsTheMasterLayer)
{
    ::setenv("MSW_TELEMETRY", "1", 1);
    EXPECT_TRUE(telemetry_init_from_env());
    EXPECT_TRUE(telemetry().on());
    EXPECT_FALSE(telemetry().ops_on()) << "ops sampling is a separate gate";

    ::setenv("MSW_TELEMETRY", "ops", 1);
    EXPECT_TRUE(telemetry_init_from_env());
    EXPECT_TRUE(telemetry().ops_on());
}

TEST_F(TelemetryTest, FalsyEnvStaysOff)
{
    for (const char* v : {"", "0", "off", "false", "no"}) {
        ::setenv("MSW_TELEMETRY", v, 1);
        telemetry().enabled.store(false, std::memory_order_relaxed);
        EXPECT_FALSE(telemetry_init_from_env()) << "value: " << v;
        EXPECT_FALSE(telemetry().on()) << "value: " << v;
    }
}

TEST_F(TelemetryTest, StatsDumpPathImpliesMaster)
{
    const std::string path = temp_path("implied");
    ::setenv("MSW_STATS_DUMP", path.c_str(), 1);
    EXPECT_TRUE(telemetry_init_from_env());
    EXPECT_TRUE(telemetry().on());
    ASSERT_NE(telemetry_stats_dump_path(), nullptr);
    EXPECT_STREQ(telemetry_stats_dump_path(), path.c_str());
}

TEST_F(TelemetryTest, JsonExportCarriesHistogramsAndTrace)
{
    telemetry().enabled.store(true, std::memory_order_relaxed);
    telemetry().pause_ns.record(1234);
    telemetry().trace_event(TraceEvent::kAllocPause, 1234, 0);

    const std::string path = temp_path("json");
    ASSERT_TRUE(telemetry_write_json(path.c_str()));
    const std::string json = slurp(path);
    ::unlink(path.c_str());

    // Keys the plot/CI tooling depends on.
    EXPECT_NE(json.find("\"pause_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"alloc_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"free_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"p999_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"trace\""), std::string::npos);
    EXPECT_NE(json.find("alloc_pause"), std::string::npos)
        << "trace entries are exported by event name";
}

TEST_F(TelemetryTest, SigsafeDumpWritesDigests)
{
    telemetry().enabled.store(true, std::memory_order_relaxed);
    telemetry().pause_ns.record(4321);

    const std::string path = temp_path("sigsafe");
    const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
    ASSERT_GE(fd, 0);
    telemetry_dump_sigsafe(fd);
    ::close(fd);
    const std::string text = slurp(path);
    ::unlink(path.c_str());

    EXPECT_NE(text.find("msw telemetry"), std::string::npos);
    EXPECT_NE(text.find("pause_ns"), std::string::npos);
    EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST_F(TelemetryTest, Sigusr2DeliversTheDump)
{
    telemetry().enabled.store(true, std::memory_order_relaxed);
    telemetry().pause_ns.record(99);
    telemetry_install_sigusr2();

    // The handler writes to stderr; point fd 2 at a file around the
    // raise() so the dump lands somewhere this test can read.
    const std::string path = temp_path("usr2");
    const int saved = ::dup(STDERR_FILENO);
    ASSERT_GE(saved, 0);
    const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
    ASSERT_GE(fd, 0);
    ASSERT_GE(::dup2(fd, STDERR_FILENO), 0);
    ::close(fd);

    ::raise(SIGUSR2);

    ::dup2(saved, STDERR_FILENO);
    ::close(saved);
    const std::string text = slurp(path);
    ::unlink(path.c_str());

    EXPECT_NE(text.find("msw telemetry"), std::string::npos)
        << "SIGUSR2 must produce the text dump";
}

TEST_F(TelemetryTest, OpsSamplingTimesMineSweeperCalls)
{
    telemetry().enabled.store(true, std::memory_order_relaxed);
    telemetry().sample_ops.store(true, std::memory_order_relaxed);
    const std::uint64_t allocs0 = telemetry().alloc_ns.count();
    const std::uint64_t frees0 = telemetry().free_ns.count();

    {
        core::MineSweeper msw;
        msw.register_mutator_thread();
        for (int i = 0; i < 1000; ++i) {
            void* p = msw.alloc(64);
            ASSERT_NE(p, nullptr);
            msw.free(p);
        }
        msw.unregister_mutator_thread();
    }

    EXPECT_GE(telemetry().alloc_ns.count(), allocs0 + 1000);
    EXPECT_GE(telemetry().free_ns.count(), frees0 + 1000);
    EXPECT_GT(telemetry().alloc_ns.summarize().p50_ns, 0u);
}

TEST_F(TelemetryTest, OpsOffRecordsNothing)
{
    telemetry().enabled.store(true, std::memory_order_relaxed);
    telemetry().sample_ops.store(false, std::memory_order_relaxed);
    const std::uint64_t allocs0 = telemetry().alloc_ns.count();

    core::MineSweeper msw;
    msw.register_mutator_thread();
    void* p = msw.alloc(64);
    ASSERT_NE(p, nullptr);
    msw.free(p);
    msw.unregister_mutator_thread();

    EXPECT_EQ(telemetry().alloc_ns.count(), allocs0)
        << "the op gate must keep the fast path untimed";
}

TEST_F(TelemetryTest, NowNsIsMonotonic)
{
    const std::uint64_t a = util::monotonic_ns();
    const std::uint64_t b = util::monotonic_ns();
    EXPECT_GE(b, a);
    EXPECT_GT(b, 0u);
}

// Counter surface: the MSW_STATS_DUMP (JSON) and SIGUSR2 (text) exports
// of a live MineSweeper name every MSW_STAT_LIST row, plus sweeps.
const core::MineSweeper* g_exported = nullptr;

std::size_t
export_live(TelemetryCounter* out, std::size_t cap)
{
    return export_counters(g_exported->counters(), out, cap);
}

TEST_F(TelemetryTest, DumpsExportEveryStat)
{
    core::MineSweeper msw;
    void* p = msw.alloc(64);
    ASSERT_NE(p, nullptr);
    msw.free(p);
    msw.force_sweep();

    TelemetryCounter buf[kMaxCounters];
    EXPECT_EQ(export_counters(msw.counters(), buf, kMaxCounters),
              kStatCount + 1);

    g_exported = &msw;
    telemetry().counter_fn.store(&export_live, std::memory_order_relaxed);
    const std::string json_path = temp_path("counters_json");
    const bool wrote = telemetry_write_json(json_path.c_str());
    const std::string text_path = temp_path("counters_text");
    const int fd =
        ::open(text_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
    if (fd >= 0) {
        telemetry_dump_sigsafe(fd);
        ::close(fd);
    }
    telemetry().counter_fn.store(nullptr, std::memory_order_relaxed);
    g_exported = nullptr;
    ASSERT_TRUE(wrote);
    ASSERT_GE(fd, 0);
    const std::string json = slurp(json_path);
    const std::string text = slurp(text_path);
    ::unlink(json_path.c_str());
    ::unlink(text_path.c_str());

    std::vector<std::string> names = {"sweeps"};
    for (const char* name : kStatNames)
        names.emplace_back(name);
    for (const std::string& name : names) {
        EXPECT_NE(json.find("\"" + name + "\": "), std::string::npos)
            << name;
        EXPECT_NE(text.find("counter " + name + "="), std::string::npos)
            << name;
    }
    EXPECT_EQ(text.find("counter sweeps=0\n"), std::string::npos)
        << "the forced sweep is counted";
}

}  // namespace
}  // namespace msw::metrics
