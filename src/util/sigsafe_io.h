/**
 * @file
 * Async-signal-safe output primitives.
 *
 * The crash-report path (core/lifecycle) runs inside a SIGSEGV/SIGBUS
 * handler, where the only legal I/O is write(2) on pre-formatted bytes:
 * no malloc, no stdio locks, no iostreams, no locale machinery. This
 * module provides the minimal formatting kit that path needs — string,
 * decimal and hexadecimal emission into a fixed on-stack buffer that is
 * flushed with plain write(2) — and nothing more.
 *
 * POSIX's async-signal-safe list (signal-safety(7)) admits write(2) but
 * none of printf/snprintf (they may take locks or allocate in some libc
 * builds); every routine here is a loop over a caller-owned char array.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace msw::util {

/**
 * Buffered async-signal-safe writer.
 *
 * Accumulates into an internal fixed buffer and flushes to @p fd with
 * write(2) when full and on destruction. All methods are reentrancy- and
 * signal-safe: no allocation, no locks, no errno-clobbering libc calls
 * other than write(2) itself (whose errno effect the caller's handler
 * must already tolerate — crash handlers terminate afterwards anyway).
 */
class SigsafeWriter
{
  public:
    explicit SigsafeWriter(int fd) : fd_(fd) {}

    SigsafeWriter(const SigsafeWriter&) = delete;
    SigsafeWriter& operator=(const SigsafeWriter&) = delete;

    ~SigsafeWriter() { flush(); }

    /** Append a NUL-terminated string (ignored if null). */
    void str(const char* s);

    /** Append an unsigned decimal. */
    void dec(std::uint64_t v);

    /** Append "0x" plus lowercase hex (no leading zeros, "0x0" for 0). */
    void hex(std::uint64_t v);

    /** Write buffered bytes to the fd; safe to call repeatedly. */
    void flush();

  private:
    void put(char c);

    int fd_;
    std::size_t len_ = 0;
    char buf_[512];
};

}  // namespace msw::util
