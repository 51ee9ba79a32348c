/**
 * @file
 * Run one benchmark profile against all four systems and compare — a
 * miniature of the paper's evaluation loop, built on the public workload
 * API.
 *
 *   $ ./compare_systems [profile-name] [scale]
 *   $ ./compare_systems xalancbmk 0.3
 */
#include <cstdio>
#include <cstdlib>

#include "metrics/metrics.h"
#include "workload/runner.h"
#include "workload/spec_profiles.h"

int
main(int argc, char** argv)
{
    const char* name = argc > 1 ? argv[1] : "omnetpp";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.3;

    const msw::workload::Profile profile =
        msw::workload::spec_profile(name, scale);
    std::printf("profile %s: %llu ticks x %u allocs/tick, %u thread(s)\n\n",
                profile.name.c_str(),
                static_cast<unsigned long long>(profile.ticks),
                profile.allocs_per_tick, profile.threads);

    msw::metrics::Table table({"system", "wall s", "cpu s", "avg MiB",
                               "peak MiB", "sweeps"});
    double base_wall = 0;
    bool ok = true;
    for (const auto kind : {msw::workload::SystemKind::kBaseline,
                            msw::workload::SystemKind::kMineSweeper,
                            msw::workload::SystemKind::kMineSweeperMostly,
                            msw::workload::SystemKind::kMarkUs,
                            msw::workload::SystemKind::kFFMalloc}) {
        const auto rec = msw::workload::measure_profile(kind, profile);
        ok = ok && rec.ok;
        if (kind == msw::workload::SystemKind::kBaseline)
            base_wall = rec.wall_s;
        table.add_row({msw::workload::system_kind_name(kind),
                       msw::metrics::fmt_seconds(rec.wall_s),
                       msw::metrics::fmt_seconds(rec.cpu_s),
                       msw::metrics::fmt_mib(rec.avg_rss),
                       msw::metrics::fmt_mib(rec.peak_rss),
                       std::to_string(rec.counters.sweeps)});
    }
    table.print();
    if (base_wall > 0)
        std::printf("\n(ratios vs the first row give the paper's "
                    "slowdown figures)\n");
    return ok ? 0 : 1;
}
