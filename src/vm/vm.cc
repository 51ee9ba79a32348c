#include "vm/vm.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/bits.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/log.h"

namespace msw::vm {

namespace {

using util::Failpoint;
using util::failpoint_should_fail;

/**
 * Map an mprotect/madvise failure to a status: ENOMEM and EAGAIN are the
 * kernel saying "not right now" (page-table / VMA allocation failed under
 * pressure) and are survivable; anything else is a bug in our bookkeeping
 * and stays fatal.
 */
VmStatus
classify_failure(const char* op, int err)
{
    if (err == ENOMEM || err == EAGAIN) {
        MSW_LOG_DEBUG("vm: transient %s failure: %s", op,
                      std::strerror(err));
        return VmStatus::kRetry;
    }
    panic("%s failed: %s", op, std::strerror(err));
}

struct PageSizeCheck {
    PageSizeCheck()
    {
        const long os = ::sysconf(_SC_PAGESIZE);
        if (os != static_cast<long>(kPageSize)) {
            fatal("OS page size %ld != compiled page size %zu", os,
                  kPageSize);
        }
    }
};
const PageSizeCheck g_page_size_check;

}  // namespace

Reservation
Reservation::reserve(std::size_t bytes)
{
    const std::size_t size = align_up(bytes, kPageSize);
    void* p = ::mmap(nullptr, size, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
        fatal("mmap reserve of %zu bytes failed: %s", size,
              std::strerror(errno));
    }
    return Reservation(to_addr(p), size);
}

Reservation::Reservation(Reservation&& other) noexcept
    : base_(other.base_), size_(other.size_)
{
    other.base_ = 0;
    other.size_ = 0;
}

Reservation&
Reservation::operator=(Reservation&& other) noexcept
{
    if (this != &other) {
        release();
        base_ = other.base_;
        size_ = other.size_;
        other.base_ = 0;
        other.size_ = 0;
    }
    return *this;
}

Reservation::~Reservation()
{
    release();
}

bool
Reservation::check_range(std::uintptr_t addr, std::size_t len) const
{
    if (base_ == 0 || len == 0) {
        return false;
    }
    MSW_DCHECK(is_aligned(addr, kPageSize));
    MSW_DCHECK(is_aligned(len, kPageSize));
    MSW_DCHECK(addr >= base_ && addr + len <= base_ + size_);
    return true;
}

VmStatus
Reservation::commit(std::uintptr_t addr, std::size_t len) const
{
    if (!check_range(addr, len)) {
        return VmStatus::kOk;
    }
    if (failpoint_should_fail(Failpoint::kVmCommit)) {
        return VmStatus::kRetry;
    }
    if (::mprotect(to_ptr(addr), len, PROT_READ | PROT_WRITE) != 0) {
        return classify_failure("commit mprotect", errno);
    }
    return VmStatus::kOk;
}

void
Reservation::commit_must(std::uintptr_t addr, std::size_t len) const
{
    // Startup/metadata pages: retry hard before giving up, so a p=0.05
    // soak or a brief pressure spike cannot kill the process during init.
    constexpr int kAttempts = 10;
    unsigned backoff_us = 100;
    for (int i = 0; i < kAttempts; ++i) {
        if (commit(addr, len) == VmStatus::kOk) {
            return;
        }
        ::usleep(backoff_us);
        if (backoff_us < 100'000) {
            backoff_us *= 2;
        }
    }
    fatal("commit of %zu essential bytes failed after %d attempts", len,
          kAttempts);
}

VmStatus
Reservation::decommit(std::uintptr_t addr, std::size_t len) const
{
    if (!check_range(addr, len)) {
        return VmStatus::kOk;
    }
    if (failpoint_should_fail(Failpoint::kVmDecommit)) {
        return VmStatus::kRetry;
    }
    if (::madvise(to_ptr(addr), len, MADV_DONTNEED) != 0) {
        return classify_failure("decommit madvise", errno);
    }
    if (::mprotect(to_ptr(addr), len, PROT_NONE) != 0) {
        // Backing is already discarded; retrying the whole decommit is
        // safe (madvise on empty pages is harmless).
        return classify_failure("decommit mprotect", errno);
    }
    return VmStatus::kOk;
}

VmStatus
Reservation::purge_keep_accessible(std::uintptr_t addr, std::size_t len) const
{
    if (!check_range(addr, len)) {
        return VmStatus::kOk;
    }
    if (failpoint_should_fail(Failpoint::kVmPurge)) {
        return VmStatus::kRetry;
    }
    if (::madvise(to_ptr(addr), len, MADV_DONTNEED) != 0) {
        return classify_failure("purge madvise", errno);
    }
    return VmStatus::kOk;
}

VmStatus
Reservation::protect_rw(std::uintptr_t addr, std::size_t len) const
{
    if (!check_range(addr, len)) {
        return VmStatus::kOk;
    }
    if (failpoint_should_fail(Failpoint::kVmCommit)) {
        return VmStatus::kRetry;
    }
    if (::mprotect(to_ptr(addr), len, PROT_READ | PROT_WRITE) != 0) {
        return classify_failure("protect_rw", errno);
    }
    return VmStatus::kOk;
}

void
Reservation::release()
{
    if (base_ != 0) {
        ::munmap(to_ptr(base_), size_);
        base_ = 0;
        size_ = 0;
    }
}

std::size_t
current_rss_bytes()
{
    // /proc/self/statm field 2 is resident pages.
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long vm_pages = 0;
    unsigned long rss_pages = 0;
    const int n = std::fscanf(f, "%lu %lu", &vm_pages, &rss_pages);
    std::fclose(f);
    if (n != 2)
        return 0;
    return static_cast<std::size_t>(rss_pages) * kPageSize;
}

}  // namespace msw::vm
