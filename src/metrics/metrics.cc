#include "metrics/metrics.h"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "util/check.h"
#include "util/clock.h"
#include "util/log.h"
#include "vm/vm.h"

namespace msw::metrics {

double
process_cpu_seconds()
{
    struct rusage ru;
    if (::getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    const auto to_s = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return to_s(ru.ru_utime) + to_s(ru.ru_stime);
}

// ---------------------------------------------------------------- sampler

RssSampler::RssSampler(unsigned interval_ms)
    : interval_ms_(interval_ms), start_ns_(util::monotonic_ns())
{
    sample();
    thread_ = std::thread([this] { loop(); });
}

RssSampler::~RssSampler()
{
    stop();
}

void
RssSampler::sample()
{
    const std::size_t rss = vm::current_rss_bytes();
    MutexGuard g(mu_);
    samples_.emplace_back(
        static_cast<double>(util::monotonic_ns() - start_ns_) * 1e-9, rss);
}

void
RssSampler::loop()
{
    const auto period = std::chrono::milliseconds(interval_ms_);
    UniqueLock g(mu_);
    while (!stop_cv_.wait_for(g, period, [&]() MSW_REQUIRES(mu_) {
        return stopping_;
    })) {
        g.unlock();
        sample();
        g.lock();
    }
}

void
RssSampler::stop()
{
    if (!thread_.joinable())
        return;
    {
        MutexGuard g(mu_);
        stopping_ = true;
    }
    stop_cv_.notify_all();
    thread_.join();
    sample();
}

std::size_t
RssSampler::average() const
{
    MutexGuard g(mu_);
    if (samples_.empty())
        return 0;
    unsigned long long sum = 0;
    for (const auto& [t, rss] : samples_)
        sum += rss;
    return static_cast<std::size_t>(sum / samples_.size());
}

std::size_t
RssSampler::peak() const
{
    MutexGuard g(mu_);
    std::size_t best = 0;
    for (const auto& [t, rss] : samples_)
        best = rss > best ? rss : best;
    return best;
}

std::vector<std::pair<double, std::size_t>>
RssSampler::series() const
{
    MutexGuard g(mu_);
    return samples_;
}

// ------------------------------------------------------------ subprocess

namespace {

static_assert(std::is_trivially_copyable_v<RunHead>,
              "the fork pipe ships RunHead as raw bytes");

struct WireSample {
    double t;
    std::uint64_t rss;
};

/**
 * Read @p len bytes, giving up (and returning false) if nothing arrives
 * within @p timeout_s seconds (0 = wait forever) or the pipe ends;
 * *timed_out tells the two apart. On timeout the child is killed by the
 * caller. A signal that interrupts poll or read is not a failure.
 */
bool
read_fully(int fd, void* buf, std::size_t len, unsigned timeout_s,
           bool* timed_out)
{
    auto* p = static_cast<char*>(buf);
    while (len > 0) {
        if (timeout_s > 0) {
            const std::uint64_t deadline =
                util::monotonic_ns() + timeout_s * 1000000000ull;
            int pr;
            do {
                struct pollfd pfd {
                    fd, POLLIN, 0
                };
                const std::uint64_t now = util::monotonic_ns();
                const std::uint64_t left_ms =
                    now < deadline ? (deadline - now) / 1000000 : 0;
                pr = ::poll(&pfd, 1, static_cast<int>(left_ms));
            } while (pr < 0 && errno == EINTR);
            *timed_out = pr == 0;
            if (pr <= 0)
                return false;
        }
        ssize_t n;
        do {
            n = ::read(fd, p, len);
        } while (n < 0 && errno == EINTR);
        if (n <= 0)
            return false;
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

bool
write_fully(int fd, const void* buf, std::size_t len)
{
    const auto* p = static_cast<const char*>(buf);
    while (len > 0) {
        const ssize_t n = ::write(fd, p, len);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        p += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

}  // namespace

RunRecord
run_in_subprocess(const std::function<RunRecord()>& body,
                  unsigned timeout_s)
{
    int fds[2];
    MSW_CHECK(::pipe(fds) == 0);

    const pid_t pid = ::fork();
    MSW_CHECK(pid >= 0);
    if (pid == 0) {
        ::close(fds[0]);
        const RunRecord rec = body();
        const RunHead head = rec;
        const std::uint64_t series_len = rec.rss_series.size();
        bool ok = write_fully(fds[1], &head, sizeof(head)) &&
                  write_fully(fds[1], &series_len, sizeof(series_len));
        for (const auto& [t, rss] : rec.rss_series) {
            if (!ok)
                break;
            WireSample s{t, rss};
            ok = write_fully(fds[1], &s, sizeof(s));
        }
        ::close(fds[1]);
        ::_exit(ok ? 0 : 1);
    }

    ::close(fds[1]);

    RunRecord rec;
    RunHead head;
    std::uint64_t series_len = 0;
    bool timed_out = false;
    bool ok = read_fully(fds[0], &head, sizeof(head), timeout_s,
                         &timed_out) &&
              read_fully(fds[0], &series_len, sizeof(series_len),
                         timeout_s, &timed_out);
    if (ok) {
        static_cast<RunHead&>(rec) = head;
        rec.rss_series.reserve(series_len);
    }
    for (std::uint64_t i = 0; i < series_len && ok; ++i) {
        WireSample s;
        ok = read_fully(fds[0], &s, sizeof(s), timeout_s, &timed_out);
        if (ok)
            rec.rss_series.emplace_back(s.t, s.rss);
    }
    ::close(fds[0]);

    if (!ok)
        ::kill(pid, SIGKILL);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    rec.ok = ok && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (rec.ok)
        return rec;
    // Say how the child ended: the log is all a failed run leaves.
    if (timed_out) {
        MSW_LOG_WARN("forked run failed: no record within %u s", timeout_s);
    } else if (WIFSIGNALED(status)) {
        MSW_LOG_WARN("forked run failed: child killed by signal %d (%s)",
                     WTERMSIG(status), strsignal(WTERMSIG(status)));
    } else {
        MSW_LOG_WARN("forked run failed: child exited with code %d",
                     WEXITSTATUS(status));
    }
    return rec;
}

// ----------------------------------------------------------------- table

double
geomean(const std::vector<double>& values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{}

void
Table::add_row(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

void
Table::print() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = row[c].size() > widths[c] ? row[c].size()
                                                  : widths[c];
    }
    // Every column spans width + 2 characters between its bars: "| x |"
    // over "|---|", so each line of the table has the same length.
    const auto print_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string& cell = c < row.size() ? row[c] : "";
            std::printf("| %-*s ", static_cast<int>(widths[c]), cell.c_str());
        }
        std::printf("|\n");
    };
    print_row(headers_);
    for (std::size_t c = 0; c < widths.size(); ++c)
        std::printf("|%s", std::string(widths[c] + 2, '-').c_str());
    std::printf("|\n");
    for (const auto& row : rows_)
        print_row(row);
    std::fflush(stdout);
}

std::string
fmt_ratio(double r)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3fx", r);
    return buf;
}

std::string
fmt_mib(std::size_t bytes)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
    return buf;
}

std::string
fmt_seconds(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", s);
    return buf;
}

double
bench_scale()
{
    const char* env = std::getenv("MSW_BENCH_SCALE");
    if (env == nullptr)
        return 1.0;
    const double v = std::atof(env);
    return v > 0 ? v : 1.0;
}

}  // namespace msw::metrics
