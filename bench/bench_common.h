/**
 * @file
 * Shared scaffolding for the benchmark binaries: the provenance stamp of
 * every BENCH_*.json, the paper's system columns, and MSW_BENCH_SCALE.
 *
 * MSW_BENCH_SCALE scales workload sizes (default 1.0); each suite's
 * default scale was calibrated so it completes in a few minutes on one
 * core.
 */
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "workload/runner.h"
#include "workload/system.h"

namespace msw::bench {

using metrics::RunRecord;
using workload::SystemKind;

/**
 * Schema version stamped into every BENCH_*.json, bumped whenever a key
 * is renamed or removed (additions do not bump it). Plot/CI tooling
 * checks this instead of sniffing key presence.
 */
inline constexpr int kBenchSchemaVersion = 1;

/** Build provenance: `git describe` captured at configure time. */
inline const char*
git_describe()
{
#ifdef MSW_GIT_DESCRIBE
    return MSW_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

/**
 * Stamp the provenance keys into an open JSON object. Call immediately
 * after writing the opening "{\n".
 */
inline void
json_stamp(std::FILE* f)
{
    std::fprintf(f,
                 "  \"schema_version\": %d,\n"
                 "  \"git_describe\": \"%s\",\n",
                 kBenchSchemaVersion, git_describe());
}

/** One system column in a suite run. */
struct SystemColumn {
    std::string label;
    SystemKind kind;
    core::Options msw_options{};
};

/** The paper's standard four-system comparison. */
inline std::vector<SystemColumn>
paper_systems()
{
    return {
        {"baseline", SystemKind::kBaseline, {}},
        {"markus", SystemKind::kMarkUs, {}},
        {"ffmalloc", SystemKind::kFFMalloc, {}},
        {"minesweeper", SystemKind::kMineSweeper, {}},
    };
}

/** Effective scale: binary default x MSW_BENCH_SCALE. */
inline double
effective_scale(double binary_default)
{
    return binary_default * metrics::bench_scale();
}

}  // namespace msw::bench
