/**
 * @file
 * Figure 14 — number of sweeps triggered per benchmark (fully concurrent
 * version).
 *
 * Paper result: omnetpp triggers the most sweeps (1075), xalancbmk 654
 * (almost all close together near the end of the run); allocation-light
 * benchmarks trigger few or none. Sweep count does not correlate
 * perfectly with slowdown — sweeping is not the only overhead (§5.5).
 */
#include "bench/bench_common.h"

int
main()
{
    using namespace msw::bench;
    std::printf("== Fig 14: sweeps triggered per benchmark ==\n");
    std::printf("paper: omnetpp 1075, xalancbmk 654 (mostly in the "
                "end-of-run churn), compute-bound benchmarks ~0\n\n");

    const auto profiles =
        msw::workload::spec2006_profiles(effective_scale(0.5));

    msw::metrics::Table table({"benchmark", "sweeps", "allocs", "frees"});
    std::uint64_t max_sweeps = 0;
    std::string max_bench;
    for (const Profile& p : profiles) {
        std::fprintf(stderr, "  [%s]...\n", p.name.c_str());
        const RunRecord rec =
            msw::workload::measure_profile(SystemKind::kMineSweeper, p);
        if (rec.counters.sweeps > max_sweeps) {
            max_sweeps = rec.counters.sweeps;
            max_bench = p.name;
        }
        table.add_row({p.name, std::to_string(rec.counters.sweeps),
                       std::to_string(rec.allocs),
                       std::to_string(rec.frees)});
    }
    table.print();
    std::printf("\nmost sweeps: %s (%llu) — paper: omnetpp, with "
                "xalancbmk second\n",
                max_bench.c_str(),
                static_cast<unsigned long long>(max_sweeps));
    return 0;
}
