#include "util/log.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace msw {

namespace {

int
initial_level()
{
    // Runs once under the static-local guard in log_level_ref(); nothing
    // in this process writes the environment concurrently.
    const char* env = std::getenv("MSW_LOG");  // NOLINT(concurrency-mt-unsafe)
    if (env == nullptr)
        return static_cast<int>(LogLevel::kWarn);
    if (std::strcmp(env, "error") == 0)
        return static_cast<int>(LogLevel::kError);
    if (std::strcmp(env, "warn") == 0)
        return static_cast<int>(LogLevel::kWarn);
    if (std::strcmp(env, "info") == 0)
        return static_cast<int>(LogLevel::kInfo);
    if (std::strcmp(env, "debug") == 0)
        return static_cast<int>(LogLevel::kDebug);
    return static_cast<int>(LogLevel::kWarn);
}

const char*
level_name(LogLevel level)
{
    switch (level) {
      case LogLevel::kError:
        return "E";
      case LogLevel::kWarn:
        return "W";
      case LogLevel::kInfo:
        return "I";
      case LogLevel::kDebug:
        return "D";
    }
    return "?";
}

}  // namespace

namespace detail {

std::atomic<int>&
log_level_ref()
{
    static std::atomic<int> level{initial_level()};
    return level;
}

void
log_write(LogLevel level, const char* fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "[msw/%s] %s\n", level_name(level), buf);
}

}  // namespace detail

}  // namespace msw
