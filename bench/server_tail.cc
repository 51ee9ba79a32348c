/**
 * @file
 * Server tail-latency benchmark (ROADMAP open item 3).
 *
 * Runs the long-running request/response workload (workload/server.h)
 * against all four runtimes and reports the *distribution* of
 * per-operation latency — p50/p90/p99/p999/max — alongside the sweep
 * pause breakdown (backpressure pauses, STW windows, per-phase totals)
 * and every other runtime counter, keyed by its MSW_STAT_LIST name.
 * Batch benchmarks answer "how much slower"; this one answers "where do
 * the pauses land", which is the question a latency-sensitive service
 * asks of a drop-in UAF mitigation.
 *
 * Output: a ratio table on stdout plus BENCH_server_tail.json with the
 * full percentile set for every system (CI validates the keys).
 *
 * Knobs: MSW_BENCH_SCALE scales the op count; MSW_BENCH_SECONDS=<s>
 * switches to duration mode (used by the CI smoke stage).
 */
#include <cstdlib>
#include <map>

#include "bench/bench_common.h"
#include "workload/server.h"

namespace {

using namespace msw;
using bench::RunRecord;
using bench::SystemColumn;

void
json_latency(std::FILE* f, const char* key,
             const metrics::LatencySummary& s, const char* trailer)
{
    std::fprintf(f,
                 "      \"%s\": {\"count\": %llu, \"mean_ns\": %.1f, "
                 "\"p50_ns\": %llu, \"p90_ns\": %llu, \"p99_ns\": %llu, "
                 "\"p999_ns\": %llu, \"max_ns\": %llu}%s\n",
                 key, static_cast<unsigned long long>(s.count), s.mean_ns,
                 static_cast<unsigned long long>(s.p50_ns),
                 static_cast<unsigned long long>(s.p90_ns),
                 static_cast<unsigned long long>(s.p99_ns),
                 static_cast<unsigned long long>(s.p999_ns),
                 static_cast<unsigned long long>(s.max_ns), trailer);
}

}  // namespace

int
main()
{
    const double scale = bench::effective_scale(1.0);

    workload::ServerOptions so;
    so.threads = 4;
    so.ops_per_thread =
        static_cast<std::uint64_t>(1'000'000 * scale);
    if (const char* env = std::getenv("MSW_BENCH_SECONDS")) {
        const double secs = std::atof(env);
        if (secs > 0)
            so.duration_s = secs;
    }

    const std::vector<SystemColumn> systems = bench::paper_systems();
    std::map<std::string, RunRecord> runs;
    for (const SystemColumn& sys : systems) {
        std::fprintf(stderr, "  [server_tail / %s] ...",
                     sys.label.c_str());
        std::fflush(stderr);
        workload::MeasureOptions mo;
        mo.timeout_s = so.duration_s > 0
                           ? static_cast<unsigned>(so.duration_s) + 120
                           : 600;
        const RunRecord rec = workload::measure(
            sys.kind,
            [&](workload::System& s) {
                return workload::run_server(s, so);
            },
            sys.msw_options, mo);
        std::fprintf(stderr, " %s %.2fs p99 %llu ns\n",
                     rec.ok ? "ok" : "FAILED", rec.wall_s,
                     static_cast<unsigned long long>(
                         rec.op_latency.p99_ns));
        runs[sys.label] = rec;
    }

    // Human-readable summary.
    metrics::Table table({"system", "ops", "p50_ns", "p90_ns", "p99_ns",
                          "p999_ns", "max_ns", "pauses", "stw_ms"});
    for (const SystemColumn& sys : systems) {
        const RunRecord& r = runs[sys.label];
        const auto cell = [](std::uint64_t v) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%llu",
                          static_cast<unsigned long long>(v));
            return std::string(buf);
        };
        table.add_row({sys.label, cell(r.op_latency.count),
                       cell(r.op_latency.p50_ns),
                       cell(r.op_latency.p90_ns),
                       cell(r.op_latency.p99_ns),
                       cell(r.op_latency.p999_ns),
                       cell(r.op_latency.max_ns),
                       cell(r.sweep_pause.count),
                       metrics::fmt_seconds(
                           static_cast<double>(
                               r.counters[metrics::Stat::kStwNs]) *
                           1e-6)});
    }
    std::printf("\nserver tail latency (%s mode)\n",
                so.duration_s > 0 ? "duration" : "op-count");
    table.print();

    std::FILE* json = std::fopen("BENCH_server_tail.json", "w");
    if (json == nullptr) {
        std::fprintf(stderr, "cannot write BENCH_server_tail.json\n");
        return 1;
    }
    std::fprintf(json, "{\n");
    bench::json_stamp(json);
    std::fprintf(json, "  \"threads\": %u,\n", so.threads);
    std::fprintf(json, "  \"duration_s\": %.1f,\n", so.duration_s);
    std::fprintf(json, "  \"ops_per_thread\": %llu,\n",
                 static_cast<unsigned long long>(
                     so.duration_s > 0 ? 0 : so.ops_per_thread));
    std::fprintf(json, "  \"systems\": {\n");
    for (std::size_t i = 0; i < systems.size(); ++i) {
        const RunRecord& r = runs[systems[i].label];
        std::fprintf(json, "    \"%s\": {\n", systems[i].label.c_str());
        std::fprintf(json, "      \"ok\": %s,\n", r.ok ? "true" : "false");
        std::fprintf(json, "      \"wall_s\": %.3f,\n", r.wall_s);
        std::fprintf(json, "      \"sweeps\": %llu,\n",
                     static_cast<unsigned long long>(r.counters.sweeps));
        json_latency(json, "op_latency_ns", r.op_latency, ",");
        json_latency(json, "sweep_pause_ns", r.sweep_pause, ",");
        for (unsigned k = 0; k < metrics::kStatCount; ++k) {
            std::fprintf(json, "      \"%s\": %llu%s\n",
                         metrics::kStatNames[k],
                         static_cast<unsigned long long>(
                             r.counters.values[k]),
                         k + 1 == metrics::kStatCount ? "" : ",");
        }
        std::fprintf(json, "    }%s\n",
                     i + 1 == systems.size() ? "" : ",");
    }
    std::fprintf(json, "  }\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_server_tail.json\n");

    // The benchmark "fails" only if a run failed outright: tail numbers
    // are data, not assertions.
    for (const SystemColumn& sys : systems) {
        if (!runs[sys.label].ok)
            return 1;
    }
    return 0;
}
