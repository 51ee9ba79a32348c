/**
 * @file
 * The paper's evaluation figures (§5), from one table.
 *
 * Every figure follows the paper's method: run each (workload, system)
 * pair in its own forked process, measure wall time (SPEC-style),
 * sampled RSS (PSRecord-style) and CPU time, then print the rows
 * normalised against a baseline column, with the paper's reported
 * numbers alongside (EXPERIMENTS.md records both).
 *
 * A suite (named workloads at one scale, run on a list of system
 * columns) is defined once; a figure is a view of one suite. Each
 * (workload, column) pair is measured at most once per invocation, so
 * `--fig all` runs the SPEC CPU2006 suite once for Figs 7 to 14.
 *
 *   paper_figs --fig <7|8|10|12|13|14|15|16|17|18|19|tail|policy|all>
 *
 * Writes BENCH_paper_figs.json to the working directory: one row per
 * figure x workload x system, each with its measurements, every runtime
 * counter by its MSW_STAT_LIST name and the op-latency and pause
 * digests, plus each table's geomeans. Exits 1 if any run failed.
 * MSW_BENCH_SCALE multiplies every suite's default scale.
 */
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>

#include "alloc/policy.h"
#include "bench/bench_common.h"
#include "workload/executor.h"
#include "workload/mimalloc_kernels.h"
#include "workload/server.h"
#include "workload/spec_profiles.h"

namespace msw::bench {
namespace {

using workload::System;
using workload::WorkloadResult;

/** A SPEC profile, a stress kernel or the server, closed over its scale. */
struct Workload {
    std::string name;
    std::function<WorkloadResult(System&)> run;
};

/** Named workloads x system columns, with the runs measured so far. */
struct Suite {
    std::vector<Workload> workloads;
    std::vector<SystemColumn> columns;
    unsigned timeout_s;
    std::map<std::string, RunRecord> runs;  ///< "workload/column"
};

/** The measurements of a run that a figure can show. */
enum Metric : std::size_t {
    kWall,
    kCpu,
    kAvgRss,
    kPeakRss,
    kSweeps,
    kAllocs,
    kFrees,
    kBytesScanned,
    kMetricCount,
};

/** JSON keys and column headers, by Metric. Runtime counters that a
    Metric already shows (bytes_scanned) keep the Metric's key alone. */
constexpr const char* kMetricKeys[kMetricCount] = {
    "wall_s", "cpu_s",  "avg_rss", "peak_rss",
    "sweeps", "allocs", "frees",   "bytes_scanned"};

/** Every Metric of @p r, by Metric. */
std::array<double, kMetricCount>
values(const RunRecord& r)
{
    return {r.wall_s,
            r.cpu_s,
            static_cast<double>(r.avg_rss),
            static_cast<double>(r.peak_rss),
            static_cast<double>(r.counters.sweeps),
            static_cast<double>(r.allocs),
            static_cast<double>(r.frees),
            static_cast<double>(r.counters[metrics::Stat::kBytesScanned])};
}

/** A suite column, shown under @p label if one is given. */
struct Column {
    const char* suite_label;
    const char* label = nullptr;
};

/** Each column's metric over the first (baseline) column's. */
struct RatioTable {
    const char* title;
    Metric metric;
};

/** Every suite; a figure names its own. */
struct Suites {
    Suite spec2006, ablation, partial, spec2017, kernels, policy, sphinx3,
        server;
};

/** The columns a figure shows of its suite, and each column's runs. */
struct View {
    std::vector<std::string> labels;  ///< Per column, baseline first.
    std::vector<std::vector<const RunRecord*>> runs;  ///< [workload][column]
};

struct Figure {
    const char* id;
    const char* title;
    const char* paper;  ///< The paper's reported numbers.
    Suite Suites::*suite;
    /** Baseline first, for ratio tables; empty shows every column. */
    std::vector<Column> columns;
    std::vector<RatioTable> ratios;
    /** Raw per-workload values of the last column (Fig 14). */
    std::vector<Metric> counts;
    /** A table of the figure's own (Fig 8's timeline, the server tail). */
    void (*table)(const View&) = nullptr;
};

std::vector<Workload>
profiles(const std::vector<workload::Profile>& ps)
{
    std::vector<Workload> out;
    for (const workload::Profile& p : ps)
        out.push_back({p.name, [p](System& s) {
                           return workload::run_profile(s, p);
                       }});
    return out;
}

/** The mimalloc-bench kernels at @p scale (only @p names, if given). */
std::vector<Workload>
kernels(double scale, const std::vector<std::string>& names = {})
{
    std::vector<Workload> out;
    for (const workload::StressKernel& k : workload::mimalloc_kernels()) {
        if (!names.empty() &&
            std::find(names.begin(), names.end(), k.name) == names.end())
            continue;
        out.push_back({k.name, [run = k.run, scale](System& s) {
                           return run(s, scale);
                       }});
    }
    return out;
}

/** One MineSweeper configuration of an ablation ladder. */
struct Rung {
    const char* label;
    bool quarantine, zeroing, unmapping, concurrent, sweep, keep_failed,
        purging;
};

/** Figs 15/16 (§5.4): the optimisations applied one by one. */
constexpr Rung kAblationRungs[] = {
    // label         quar   zero   unmap  conc   sweep  keep   purge
    {"unoptimised",  true,  false, false, false, true,  true,  false},
    {"+zeroing",     true,  true,  false, false, true,  true,  false},
    {"+unmapping",   true,  true,  true,  false, true,  true,  false},
    {"+concurrency", true,  true,  true,  true,  true,  true,  false},
    {"+purging",     true,  true,  true,  true,  true,  true,  true},
};

/**
 * Fig 17 (§5.5): partial versions, each adding one mechanism.
 *  base:          library loaded, free() forwards to the allocator;
 *  +unmap+zero:   free() zeroes / unmap-remaps, then forwards;
 *  +quarantine:   frees quarantined; the trigger releases all, no sweep;
 *  +concurrency:  the same, released on the sweeper thread;
 *  +sweep:        full marking, but failed frees released anyway;
 *  +failed-frees: failed frees stay in quarantine (the full system).
 */
constexpr Rung kPartialRungs[] = {
    // label          quar   zero   unmap  conc   sweep  keep   purge
    {"base",          false, false, false, false, true,  true,  false},
    {"+unmap+zero",   false, true,  true,  false, true,  true,  false},
    {"+quarantine",   true,  true,  true,  false, false, true,  false},
    {"+concurrency",  true,  true,  true,  true,  false, true,  false},
    {"+sweep",        true,  true,  true,  true,  true,  false, false},
    {"+failed-frees", true,  true,  true,  true,  true,  true,  true},
};

/** The @p baseline column, then one MineSweeper column per rung. */
template <std::size_t N>
std::vector<SystemColumn>
ladder(const char* baseline, const Rung (&rungs)[N])
{
    std::vector<SystemColumn> out = {{baseline, SystemKind::kBaseline, {}}};
    for (const Rung& r : rungs) {
        core::Options o;
        o.quarantine_enabled = r.quarantine;
        o.zeroing = r.zeroing;
        o.unmapping = r.unmapping;
        o.mode = r.concurrent ? core::Mode::kFullyConcurrent
                              : core::Mode::kSynchronous;
        o.helper_threads = r.concurrent ? 6 : 0;
        o.sweep_enabled = r.sweep;
        o.keep_failed = r.keep_failed;
        o.purging = r.purging;
        out.push_back({r.label, SystemKind::kMineSweeper, o});
    }
    return out;
}

Suites
make_suites()
{
    std::vector<SystemColumn> spec2006_columns = paper_systems();
    spec2006_columns.push_back(
        {"mostly", SystemKind::kMineSweeperMostly, {}});
    std::vector<SystemColumn> policies = {
        {"default", SystemKind::kMineSweeper, {}},
        {"hardened", SystemKind::kMineSweeper, {}}};
    policies[0].msw_options.jade.policy = &alloc::default_policy();
    policies[1].msw_options.jade.policy = &alloc::hardened_policy();
    std::vector<workload::Profile> five;
    for (const char* name :
         {"dealII", "gcc", "omnetpp", "perlbench", "xalancbmk"})
        five.push_back(workload::spec_profile(name, effective_scale(0.3)));
    return {
        {profiles(workload::spec2006_profiles(effective_scale(0.5))),
         spec2006_columns, 300, {}},
        {profiles(workload::spec2006_profiles(effective_scale(0.3))),
         ladder("baseline", kAblationRungs), 240, {}},
        {profiles(five), ladder("jade", kPartialRungs), 240, {}},
        {profiles(workload::spec2017_profiles(effective_scale(0.5))),
         paper_systems(), 300, {}},
        {kernels(effective_scale(0.3)), paper_systems(), 240, {}},
        // The policy hooks live on the alloc/free path, so the kernels
        // that do nothing else bound the overhead from above.
        {kernels(effective_scale(0.3),
                 {"larsonN", "larsonN-sized", "mstressN"}),
         policies, 240, {}},
        {profiles({workload::spec_profile("sphinx3", effective_scale(1.0))}),
         paper_systems(), 300, {}},
        {{{"server",
           [ops = static_cast<std::uint64_t>(1'000'000 *
                                             effective_scale(1.0))](
               System& s) {
               workload::ServerOptions so;
               so.threads = 4;
               so.ops_per_thread = ops;
               const WorkloadResult r = workload::run_server(s, so);
               // A run that timed no operation, or lost an allocation,
               // measured no tail: the forked child exits non-zero, and
               // the parent counts the run as failed.
               if (r.op_latency.count == 0 || r.failed_allocs != 0) {
                   std::fprintf(stderr, " %llu ops timed, %llu allocs lost;",
                                static_cast<unsigned long long>(
                                    r.op_latency.count),
                                static_cast<unsigned long long>(
                                    r.failed_allocs));
                   std::_Exit(1);
               }
               return r;
           }}},
         paper_systems(), 600, {}},
    };
}

void print_timeline(const View& view);
void print_tail(const View& view);

std::vector<Figure>
make_figures()
{
    const std::vector<Column> paper = {
        {"baseline"}, {"markus"}, {"ffmalloc"}, {"minesweeper"}};
    return {
        {"7",
         "Fig 7/9: SPEC CPU2006 slowdown (wall time vs JadeHeap baseline)",
         "minesweeper 1.054x geomean (xalancbmk 1.73x), markus 1.155x, "
         "ffmalloc 1.035x",
         &Suites::spec2006, paper, {{"Slowdown (wall time)", kWall}}, {}},
        {"8", "Fig 8: memory usage over time, sphinx3",
         "baseline/minesweeper flat; ffmalloc grows monotonically to "
         "several times the baseline",
         &Suites::sphinx3, {{"baseline"}, {"ffmalloc"}, {"minesweeper"}},
         {}, {}, print_timeline},
        {"10",
         "Fig 10/11: SPEC CPU2006 memory overhead (sampled RSS vs "
         "baseline)",
         "minesweeper 1.111x avg / 1.177x peak (gcc worst 1.63x/1.93x); "
         "markus 1.123x; ffmalloc 3.44x avg",
         &Suites::spec2006, paper,
         {{"Average memory overhead (Fig 10)", kAvgRss},
          {"Peak memory overhead (Fig 11)", kPeakRss}},
         {}},
        {"12",
         "Fig 12: additional CPU utilisation (process CPU time vs "
         "baseline)",
         "geomean 1.096x, worst xalancbmk 2.29x (§5.2 DRAM traffic: see "
         "Fig 14's bytes_scanned)",
         &Suites::spec2006, {{"baseline"}, {"minesweeper"}},
         {{"CPU utilisation overhead", kCpu}}, {}},
        {"13", "Fig 13: fully vs mostly concurrent sweeping",
         "fully 1.054x, mostly 1.082x (memory 1.111x vs 1.117x)",
         &Suites::spec2006,
         {{"baseline"}, {"minesweeper", "fully"}, {"mostly"}},
         {{"Slowdown", kWall}, {"Average memory overhead", kAvgRss}}, {}},
        {"14", "Fig 14: sweeps triggered per benchmark",
         "omnetpp 1075, xalancbmk 654 (mostly in the end-of-run churn), "
         "compute-bound benchmarks ~0",
         &Suites::spec2006, {{"minesweeper"}}, {},
         {kSweeps, kAllocs, kFrees, kBytesScanned}},
        {"15", "Fig 15: run-time overhead by optimisation level",
         "unoptimised worst (gcc/milc OOM) -> +unmapping 1.095x -> "
         "+concurrency 1.050x -> +purging 1.054x",
         &Suites::ablation, {}, {{"Slowdown by optimisation level", kWall}},
         {}},
        {"16", "Fig 16: average memory overhead by optimisation level",
         "+zeroing still heavy -> +unmapping 1.211x -> +concurrency "
         "1.241x (worse!) -> +purging 1.111x",
         &Suites::ablation, {},
         {{"Average memory overhead by optimisation level", kAvgRss}}, {}},
        {"17",
         "Fig 17: sources of overhead (partial versions, five "
         "most-affected benchmarks)",
         "base ~1% time; +unmap+zero 5.8% time / -2.7% mem; +quarantine "
         "17.9% / +14.8%; full reaches +39.4% mem on these five",
         &Suites::partial, {},
         {{"Time overhead (Fig 17a)", kWall},
          {"Memory overhead (Fig 17b)", kAvgRss}},
         {}},
        {"18", "Fig 18: SPECspeed2017 (starred = 4 threads)",
         "minesweeper 1.108x time / 1.079x mem; ffmalloc 1.053x / 1.222x; "
         "markus 1.163x / 1.126x",
         &Suites::spec2017, {},
         {{"Slowdown (Fig 18a)", kWall},
          {"Average memory overhead (Fig 18b)", kAvgRss}},
         {}},
        {"19", "Fig 19: mimalloc-bench stress kernels",
         "minesweeper 2.7x time / 4.0x mem; markus 6.7x time / 1.7x mem; "
         "ffmalloc 2.16x time / 7.2x mem",
         &Suites::kernels, {},
         {{"Slowdown (Fig 19a)", kWall},
          {"Average memory overhead (Fig 19b)", kAvgRss}},
         {}},
        {"tail",
         "Server tail latency: per-op percentiles, allocation pauses and "
         "STW windows",
         "none (not a paper figure); §5.7's allocation pausing lands here "
         "as pauses, and mostly-concurrent sweeping as STW time",
         &Suites::server, {}, {}, {}, print_tail},
        {"policy", "Allocation-policy overhead (default vs hardened)",
         "none; prices the hardened policy on the allocation-heaviest "
         "kernels",
         &Suites::policy, {},
         {{"Hardened slowdown vs default policy", kWall},
          {"Hardened peak-RSS overhead vs default policy", kPeakRss}},
         {}},
    };
}

/** Append printf-formatted text to @p out, however long. */
__attribute__((format(printf, 2, 3))) void
appendf(std::string& out, const char* fmt, ...)
{
    va_list ap, again;
    va_start(ap, fmt);
    va_copy(again, ap);
    const auto n =
        static_cast<std::size_t>(std::vsnprintf(nullptr, 0, fmt, ap));
    const std::size_t at = out.size();
    out.resize(at + n + 1);
    std::vsnprintf(out.data() + at, n + 1, fmt, again);
    out.resize(at + n);
    va_end(again);
    va_end(ap);
}

/** Append @p item to the JSON array body @p array. */
void
json_item(std::string& array, const std::string& item)
{
    array += array.empty() ? "\n    " : ",\n    ";
    array += item;
}

/** Append `, "key": {digest}` to the JSON object body @p out. */
void
json_digest(std::string& out, const char* key,
            const metrics::LatencySummary& s)
{
    appendf(out,
            ", \"%s\": {\"count\": %llu, \"mean_ns\": %.1f, "
            "\"p50_ns\": %llu, \"p90_ns\": %llu, \"p99_ns\": %llu, "
            "\"p999_ns\": %llu, \"max_ns\": %llu}",
            key, static_cast<unsigned long long>(s.count), s.mean_ns,
            static_cast<unsigned long long>(s.p50_ns),
            static_cast<unsigned long long>(s.p90_ns),
            static_cast<unsigned long long>(s.p99_ns),
            static_cast<unsigned long long>(s.p999_ns),
            static_cast<unsigned long long>(s.max_ns));
}

/** One JSON row: @p r's Metrics, then every runtime counter no Metric
    already shows, by its MSW_STAT_LIST name, then both digests. */
std::string
json_row(const char* fig, const std::string& bench, const std::string& system,
         const RunRecord& r)
{
    std::string row;
    appendf(row,
            "{\"fig\": \"%s\", \"bench\": \"%s\", \"system\": \"%s\", "
            "\"ok\": %s",
            fig, bench.c_str(), system.c_str(), r.ok ? "true" : "false");
    const std::array<double, kMetricCount> v = values(r);
    for (std::size_t m = 0; m < kMetricCount; ++m)
        appendf(row, ", \"%s\": %.10g", kMetricKeys[m], v[m]);
    for (unsigned k = 0; k < metrics::kStatCount; ++k) {
        const char* name = metrics::kStatNames[k];
        if (std::none_of(std::begin(kMetricKeys), std::end(kMetricKeys),
                         [&](const char* m) {
                             return std::strcmp(m, name) == 0;
                         }))
            appendf(row, ", \"%s\": %llu", name,
                    static_cast<unsigned long long>(r.counters.values[k]));
    }
    json_digest(row, "op_latency_ns", r.op_latency);
    json_digest(row, "sweep_pause_ns", r.sweep_pause);
    return row + "}";
}

struct Json {
    std::string rows;
    std::string geomeans;
};

/** Measure each pair @p fig shows that @p suite has not run yet. */
View
measure(Suite& suite, const Figure& fig)
{
    std::vector<Column> columns = fig.columns;
    if (columns.empty()) {
        for (const SystemColumn& sys : suite.columns)
            columns.push_back({sys.label.c_str()});
    }
    std::vector<const SystemColumn*> systems;
    View view;
    for (const Column& col : columns) {
        systems.push_back(&*std::find_if(
            suite.columns.begin(), suite.columns.end(),
            [&](const SystemColumn& c) { return c.label == col.suite_label; }));
        view.labels.push_back(col.label != nullptr ? col.label
                                                   : col.suite_label);
    }
    for (const Workload& w : suite.workloads) {
        std::vector<const RunRecord*>& row = view.runs.emplace_back();
        for (const SystemColumn* sys : systems) {
            const std::string key = w.name + "/" + sys->label;
            auto it = suite.runs.find(key);
            if (it == suite.runs.end()) {
                std::fprintf(stderr, "  [%s / %s] ...", w.name.c_str(),
                             sys->label.c_str());
                std::fflush(stderr);
                workload::MeasureOptions mo;
                mo.timeout_s = suite.timeout_s;
                const RunRecord rec =
                    workload::measure(sys->kind, w.run, sys->msw_options, mo);
                std::fprintf(stderr, " %s %.2fs rss %.1fMiB\n",
                             rec.ok ? "ok" : "FAILED", rec.wall_s,
                             static_cast<double>(rec.avg_rss) / (1 << 20));
                it = suite.runs.emplace(key, rec).first;
            }
            row.push_back(&it->second);
        }
    }
    return view;
}

void
print_ratio_table(const Figure& fig, const RatioTable& t, const Suite& suite,
                  const View& view, Json& json)
{
    std::printf("\n%s\n", t.title);
    std::vector<std::string> headers = {"benchmark"};
    headers.insert(headers.end(), view.labels.begin() + 1, view.labels.end());
    metrics::Table table(headers);
    std::vector<std::vector<double>> ratios(view.labels.size());
    for (std::size_t w = 0; w < view.runs.size(); ++w) {
        const std::vector<const RunRecord*>& runs = view.runs[w];
        if (!runs[0]->ok)
            continue;
        const double base = values(*runs[0])[t.metric];
        std::vector<std::string> cells = {suite.workloads[w].name};
        for (std::size_t c = 1; c < runs.size(); ++c) {
            if (!runs[c]->ok || base <= 0) {
                cells.push_back("n/a");
                continue;
            }
            const double r = values(*runs[c])[t.metric] / base;
            ratios[c].push_back(r);
            cells.push_back(metrics::fmt_ratio(r));
        }
        table.add_row(std::move(cells));
    }
    std::vector<std::string> footer = {"geomean"};
    for (std::size_t c = 1; c < view.labels.size(); ++c) {
        const double g = metrics::geomean(ratios[c]);
        footer.push_back(metrics::fmt_ratio(g));
        std::string item;
        appendf(item,
                "{\"fig\": \"%s\", \"table\": \"%s\", \"metric\": \"%s\", "
                "\"baseline\": \"%s\", \"system\": \"%s\", \"n\": %zu, "
                "\"geomean\": %.4f}",
                fig.id, t.title, kMetricKeys[t.metric],
                view.labels[0].c_str(), view.labels[c].c_str(),
                ratios[c].size(), g);
        json_item(json.geomeans, item);
    }
    table.add_row(std::move(footer));
    table.print();
}

/** Fig 14: the last column's raw values, and the workload with most. */
void
print_count_table(const Figure& fig, const Suite& suite, const View& view)
{
    std::printf("\n%s per benchmark\n", view.labels.back().c_str());
    std::vector<std::string> headers = {"benchmark"};
    for (const Metric m : fig.counts)
        headers.push_back(kMetricKeys[m]);
    metrics::Table table(headers);
    const Metric first = fig.counts[0];
    std::vector<double> firsts;
    for (std::size_t w = 0; w < view.runs.size(); ++w) {
        const std::array<double, kMetricCount> v = values(*view.runs[w].back());
        std::vector<std::string> cells = {suite.workloads[w].name};
        for (const Metric m : fig.counts)
            cells.push_back(std::to_string(static_cast<std::uint64_t>(v[m])));
        table.add_row(std::move(cells));
        firsts.push_back(v[first]);
    }
    table.print();
    const auto most = std::max_element(firsts.begin(), firsts.end());
    std::printf("\nmost %s: %s (%.0f)\n", kMetricKeys[first],
                suite.workloads[most - firsts.begin()].name.c_str(), *most);
}

/** RSS (MiB) at a normalised time fraction, by nearest sample. */
double
rss_at(const RunRecord& rec, double fraction)
{
    if (rec.rss_series.empty())
        return 0;
    const double t = rec.wall_s * fraction;
    const auto it = std::min_element(
        rec.rss_series.begin(), rec.rss_series.end(),
        [&](const auto& a, const auto& b) {
            return std::abs(a.first - t) < std::abs(b.first - t);
        });
    return static_cast<double>(it->second) / (1 << 20);
}

/** Largest RSS (MiB) at or after a normalised time fraction: the sample
    nearest it, or any later one. */
double
peak_rss_from(const RunRecord& rec, double fraction)
{
    const double t = rec.wall_s * fraction;
    double peak = rss_at(rec, fraction);
    for (const auto& [at, rss] : rec.rss_series) {
        if (at >= t)
            peak = std::max(peak, static_cast<double>(rss) / (1 << 20));
    }
    return peak;
}

/** Fig 8: each column's RSS over its own run, and its growth after 20 %
    of the run: the peak from there on over the sample there. The peak,
    not the last sample: RSS can drop before a run ends. */
void
print_timeline(const View& view)
{
    std::printf("\n");
    std::vector<std::string> headers = {"time%"};
    for (const std::string& label : view.labels)
        headers.push_back(label + " MiB");
    metrics::Table table(headers);
    const std::vector<const RunRecord*>& runs = view.runs.front();
    for (int pct = 0; pct <= 100; pct += 10) {
        std::vector<std::string> cells = {std::to_string(pct)};
        for (const RunRecord* r : runs)
            cells.push_back(metrics::fmt_seconds(rss_at(*r, pct / 100.0)));
        table.add_row(std::move(cells));
    }
    table.print();
    std::printf("\ngrowth peak-after-20%%/at-20%%:");
    for (std::size_t c = 1; c < runs.size(); ++c)
        std::printf(" %s %.2fx", view.labels[c].c_str(),
                    peak_rss_from(*runs[c], 0.2) /
                        std::max(1.0, rss_at(*runs[c], 0.2)));
    std::printf("\n");
}

/** The server tail: each column's op-latency percentiles, allocation
    pauses and STW time. */
void
print_tail(const View& view)
{
    std::printf("\n");
    metrics::Table table({"system", "ops", "p50_ns", "p90_ns", "p99_ns",
                          "p999_ns", "max_ns", "pauses", "stw_ms"});
    for (std::size_t c = 0; c < view.labels.size(); ++c) {
        const RunRecord& r = *view.runs.front()[c];
        const metrics::LatencySummary& op = r.op_latency;
        std::vector<std::string> cells = {view.labels[c]};
        for (const std::uint64_t v :
             {op.count, op.p50_ns, op.p90_ns, op.p99_ns, op.p999_ns,
              op.max_ns, r.sweep_pause.count})
            cells.push_back(std::to_string(v));
        cells.push_back(metrics::fmt_seconds(
            static_cast<double>(r.counters[metrics::Stat::kStwNs]) * 1e-6));
        table.add_row(std::move(cells));
    }
    table.print();
}

/** Measure, print and record @p fig; false if any of its runs failed. */
bool
run_figure(const Figure& fig, Suite& suite, Json& json)
{
    const View view = measure(suite, fig);
    bool ok = true;
    for (std::size_t w = 0; w < view.runs.size(); ++w) {
        for (std::size_t c = 0; c < view.labels.size(); ++c) {
            const RunRecord& r = *view.runs[w][c];
            ok = ok && r.ok;
            json_item(json.rows, json_row(fig.id, suite.workloads[w].name,
                                          view.labels[c], r));
        }
    }
    std::printf("== %s ==\npaper: %s\n", fig.title, fig.paper);
    for (const RatioTable& t : fig.ratios)
        print_ratio_table(fig, t, suite, view, json);
    if (!fig.counts.empty())
        print_count_table(fig, suite, view);
    if (fig.table != nullptr)
        fig.table(view);
    if (!ok)
        std::printf("\nFAILED: at least one run of this figure failed\n");
    std::printf("\n");
    return ok;
}

}  // namespace
}  // namespace msw::bench

int
main(int argc, char** argv)
{
    using namespace msw::bench;
    Suites suites = make_suites();
    const std::vector<Figure> figures = make_figures();
    const char* want =
        argc == 3 && std::strcmp(argv[1], "--fig") == 0 ? argv[2] : "";
    Json json;
    bool ok = true;
    unsigned shown = 0;
    for (const Figure& f : figures) {
        if (std::strcmp(want, "all") == 0 || std::strcmp(f.id, want) == 0) {
            ok = run_figure(f, suites.*f.suite, json) && ok;
            ++shown;
        }
    }
    if (shown == 0) {
        std::fprintf(stderr, "usage: %s --fig <", argv[0]);
        for (const Figure& f : figures)
            std::fprintf(stderr, "%s|", f.id);
        std::fprintf(stderr, "all>\n");
        return 2;
    }

    std::FILE* out = std::fopen("BENCH_paper_figs.json", "w");
    if (out == nullptr) {
        std::perror("BENCH_paper_figs.json");
        return 1;
    }
    std::fprintf(out, "{\n");
    json_stamp(out);
    std::fprintf(out,
                 "  \"bench_scale\": %g,\n  \"ok\": %s,\n"
                 "  \"rows\": [%s\n  ],\n  \"geomeans\": [%s\n  ]\n}\n",
                 msw::metrics::bench_scale(), ok ? "true" : "false",
                 json.rows.c_str(), json.geomeans.c_str());
    std::fclose(out);
    std::printf("wrote BENCH_paper_figs.json\n");
    return ok ? 0 : 1;
}
