/**
 * @file
 * The one monotonic clock: every timestamp, deadline, decay age and
 * latency sample in the runtime reads CLOCK_MONOTONIC through here, in
 * nanoseconds; callers convert units at the call site. (Per-thread CPU
 * time, sweep::thread_cpu_ns, is a different clock.) Async-signal-safe:
 * clock_gettime(2) is on the POSIX list.
 */
#pragma once

#include <cstdint>
#include <ctime>

namespace msw::util {

/** CLOCK_MONOTONIC in nanoseconds. */
inline std::uint64_t
monotonic_ns()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace msw::util
