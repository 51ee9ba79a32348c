/**
 * @file
 * Minimal levelled logging. Output goes to stderr; the level comes from
 * the MSW_LOG environment variable only (error|warn|info|debug, default
 * warn), read once at first use. Logging is off above that level and
 * costs one relaxed atomic load when disabled.
 */
#pragma once

#include <atomic>

namespace msw {

enum class LogLevel : int {
    kError = 0,
    kWarn = 1,
    kInfo = 2,
    kDebug = 3,
};

namespace detail {
// Function-local static so the level is usable from other translation
// units' dynamic initializers (e.g. MSW_FAILPOINTS parsing), which may
// run before this library's own initializers.
std::atomic<int>& log_level_ref();
[[gnu::format(printf, 2, 3)]]
void log_write(LogLevel level, const char* fmt, ...);
}  // namespace detail

/** True if messages at @p level would currently be emitted. */
inline bool
log_enabled(LogLevel level)
{
    // msw-relaxed(config-flag): verbosity read on the logging fast
    // path; staleness is harmless.
    return static_cast<int>(level) <=
           detail::log_level_ref().load(std::memory_order_relaxed);
}

}  // namespace msw

#define MSW_LOG(level, ...)                                  \
    do {                                                     \
        if (::msw::log_enabled(level)) {                     \
            ::msw::detail::log_write(level, __VA_ARGS__);    \
        }                                                    \
    } while (0)

#define MSW_LOG_ERROR(...) MSW_LOG(::msw::LogLevel::kError, __VA_ARGS__)
#define MSW_LOG_WARN(...) MSW_LOG(::msw::LogLevel::kWarn, __VA_ARGS__)
#define MSW_LOG_INFO(...) MSW_LOG(::msw::LogLevel::kInfo, __VA_ARGS__)
#define MSW_LOG_DEBUG(...) MSW_LOG(::msw::LogLevel::kDebug, __VA_ARGS__)
