#include "workload/runner.h"

#include "metrics/telemetry.h"
#include "util/clock.h"
#include "workload/executor.h"

namespace msw::workload {

metrics::RunRecord
measure(SystemKind kind,
        const std::function<WorkloadResult(System&)>& body,
        const core::Options& msw_options, const MeasureOptions& mopts)
{
    return metrics::run_in_subprocess(
        [&]() -> metrics::RunRecord {
            metrics::RunRecord rec;
            // The child is this measurement's whole process, so the
            // master telemetry layer (pause histogram, trace ring) can
            // always be on: its cost is confined to sweep slow paths.
            // msw-relaxed(config-flag): advisory toggle armed before
            // the system under test is constructed.
            metrics::telemetry().enabled.store(
                true, std::memory_order_relaxed);
            System sys = make_system(kind, msw_options);
            metrics::RssSampler sampler(mopts.rss_interval_ms);
            const std::uint64_t wall0 = util::monotonic_ns();
            const double cpu0 = metrics::process_cpu_seconds();

            const WorkloadResult result = body(sys);

            sys.flush();
            rec.wall_s =
                static_cast<double>(util::monotonic_ns() - wall0) * 1e-9;
            rec.cpu_s = metrics::process_cpu_seconds() - cpu0;
            sampler.stop();
            rec.avg_rss = sampler.average();
            rec.peak_rss = sampler.peak();
            rec.rss_series = sampler.series();
            rec.allocs = result.allocs;
            rec.frees = result.frees;
            rec.checksum = result.checksum;
            rec.failed_allocs = result.failed_allocs;
            rec.op_latency = result.op_latency;
            rec.sweep_pause = metrics::telemetry().pause_ns.summarize();
            rec.counters = sys.counters();
            rec.ok = true;
            return rec;
        },
        mopts.timeout_s);
}

metrics::RunRecord
measure_profile(SystemKind kind, const Profile& profile,
                const core::Options& msw_options,
                const MeasureOptions& mopts)
{
    return measure(
        kind,
        [&](System& sys) { return run_profile(sys, profile); },
        msw_options, mopts);
}

}  // namespace msw::workload
