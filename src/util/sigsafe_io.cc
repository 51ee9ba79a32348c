#include "util/sigsafe_io.h"

#include <unistd.h>

namespace msw::util {

void
SigsafeWriter::put(char c)
{
    if (len_ == sizeof(buf_))
        flush();
    buf_[len_++] = c;
}

void
SigsafeWriter::str(const char* s)
{
    if (s == nullptr)
        return;
    for (; *s != '\0'; ++s)
        put(*s);
}

void
SigsafeWriter::dec(std::uint64_t v)
{
    // Digits are produced least-significant first into a local scratch
    // array, then emitted reversed; 20 digits cover 2^64 - 1.
    char digits[20];
    std::size_t n = 0;
    do {
        digits[n++] = static_cast<char>('0' + (v % 10));
        v /= 10;
    } while (v != 0);
    while (n > 0)
        put(digits[--n]);
}

void
SigsafeWriter::hex(std::uint64_t v)
{
    static const char kHexDigits[] = "0123456789abcdef";
    put('0');
    put('x');
    char digits[16];
    std::size_t n = 0;
    do {
        digits[n++] = kHexDigits[v & 0xf];
        v >>= 4;
    } while (v != 0);
    while (n > 0)
        put(digits[--n]);
}

void
SigsafeWriter::flush()
{
    std::size_t off = 0;
    while (off < len_) {
        const ssize_t w = ::write(fd_, buf_ + off, len_ - off);
        if (w <= 0)
            break;  // best effort: a crash report must never loop forever
        off += static_cast<std::size_t>(w);
    }
    len_ = 0;
}

}  // namespace msw::util
