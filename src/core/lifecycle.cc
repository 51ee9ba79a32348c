#include "core/lifecycle.h"

#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "core/minesweeper.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/lock_rank.h"
#include "util/rng.h"
#include "util/sigsafe_io.h"
#include "util/spin_lock.h"
#include "util/thread_annotations.h"

namespace msw::core::lifecycle {

namespace {

// ------------------------------------------------------------- registry

// Rank kLifecycle: the atfork prepare handler takes this first and then
// walks the runtime's entire hierarchy (10..42), so it must rank below
// everything else in the process.
SpinLock g_runtime_lock{util::LockRank::kLifecycle};
MineSweeper* g_registered MSW_GUARDED_BY(g_runtime_lock) = nullptr;

// Lock-free mirror of g_registered for the signal handler and other
// readers that must not block (classify_fault runs inside SIGSEGV).
std::atomic<MineSweeper*> g_registered_relaxed{nullptr};

pthread_once_t g_atfork_once = PTHREAD_ONCE_INIT;

// --------------------------------------------------------------- atfork

// The handlers run on whatever thread calls fork(); the acquire (in
// prepare) and the release (in parent/child) pair across the fork, so
// the static analysis cannot follow them. The runtime lock-rank
// validator still can: lock_rank_fork_begin() opens a window in which
// bulk same-rank runs (every bin lock) are tolerated
// while genuine inversions keep panicking.

void
atfork_prepare() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    g_runtime_lock.lock();
    util::lock_rank_fork_begin();
    MineSweeper* rt = g_registered;
    if (rt != nullptr)
        rt->prepare_fork();
    // Test hook: hold the fully-locked prepare window open so fork
    // races (concurrent mallocs, thread exits) pile up against it.
    if (util::failpoint_should_fail(util::Failpoint::kForkPrepare)) {
        struct timespec ts {
            0, 1000000
        };
        ::nanosleep(&ts, nullptr);
    }
    // Last: kMetrics (60) is the highest band in the hierarchy.
    util::failpoint_prepare_fork();
}

void
atfork_parent() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    util::failpoint_parent_after_fork();
    MineSweeper* rt = g_registered;
    if (rt != nullptr)
        rt->parent_after_fork();
    util::lock_rank_fork_end();
    g_runtime_lock.unlock();
}

void
atfork_child() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    util::failpoint_child_after_fork();
    // Reseed per-thread RNG state before any allocation in the child:
    // policy randomization must diverge from the parent immediately, not
    // replay its stream.
    msw::rng_note_fork_child();
    MineSweeper* rt = g_registered;
    if (rt != nullptr)
        rt->child_after_fork();
    util::lock_rank_fork_end();
    g_runtime_lock.unlock();
    // The child has exactly one thread (this one); any rank stack it
    // inherited from pre-fork critical sections is stale.
    util::lock_rank_reset_thread();
}

void
install_atfork()
{
    MSW_CHECK(::pthread_atfork(&atfork_prepare, &atfork_parent,
                               &atfork_child) == 0);
}

// -------------------------------------------------- thread-exit drain

pthread_key_t g_mutator_key;
pthread_once_t g_mutator_key_once = PTHREAD_ONCE_INIT;

void
mutator_key_destructor(void* value) MSW_NO_THREAD_SAFETY_ANALYSIS
{
    auto* rt = static_cast<QuarantineRuntime*>(value);
    // Hold the registry lock across the drain: the runtime cannot be
    // destroyed mid-unregister (its destructor's unregister_runtime()
    // blocks on this lock), and the rank-4 lock sits below everything
    // the drain acquires (quarantine, bins, roots).
    g_runtime_lock.lock();
    const bool alive = g_registered != nullptr &&
                       static_cast<QuarantineRuntime*>(g_registered) == rt;
    if (alive)
        rt->unregister_mutator_thread();
    g_runtime_lock.unlock();
}

void
make_mutator_key()
{
    MSW_CHECK(::pthread_key_create(&g_mutator_key,
                                   &mutator_key_destructor) == 0);
}

// ----------------------------------------------------- crash reporting

std::atomic<bool> g_crash_installed{false};
struct sigaction g_prev_segv;
struct sigaction g_prev_bus;

/**
 * SIGSEGV/SIGBUS classification handler. Async-signal-safe by
 * construction: classify_fault() performs only atomic loads and
 * lock-free metadata reads, reporting uses util::SigsafeWriter
 * (write(2) onto a stack buffer), and handing off uses sigaction(2).
 * It must not allocate — it runs under a fault that may originate
 * inside the allocator itself.
 */
void
crash_signal_handler(int sig, siginfo_t* info, void* /*ucontext*/)
{
    const int saved_errno = errno;
    const void* addr = info != nullptr ? info->si_addr : nullptr;
    std::uint64_t epoch = 0;
    const FaultClass cls = classify_fault(addr, &epoch);
    if (cls == FaultClass::kQuarantined || cls == FaultClass::kHeapLive ||
        cls == FaultClass::kHeapUnmapped) {
        util::SigsafeWriter w(STDERR_FILENO);
        w.str("minesweeper: ");
        w.str(sig == SIGBUS ? "SIGBUS" : "SIGSEGV");
        w.str(" at ");
        w.hex(to_addr(addr));
        switch (cls) {
        case FaultClass::kQuarantined:
            w.str(": likely use-after-free, quarantined by free() at "
                  "epoch ");
            w.dec(epoch);
            break;
        case FaultClass::kHeapLive:
            w.str(": inside a live heap allocation (not quarantined; "
                  "stray write or overflow?)");
            break;
        default:
            w.str(": inside the heap reservation but outside any "
                  "tracked allocation");
            break;
        }
        w.str("\n");
        w.flush();
    }
    // Hand off: restore the previous dispositions and return; the
    // faulting instruction re-executes and re-faults into them (or the
    // default action, terminating with the original signal).
    ::sigaction(SIGSEGV, &g_prev_segv, nullptr);
    ::sigaction(SIGBUS, &g_prev_bus, nullptr);
    errno = saved_errno;
}

}  // namespace

// ------------------------------------------------------------ public API

void
register_runtime(MineSweeper* rt)
{
    ::pthread_once(&g_atfork_once, &install_atfork);
    LockGuard<SpinLock> g(g_runtime_lock);
    if (g_registered == nullptr) {
        g_registered = rt;
        g_registered_relaxed.store(rt, std::memory_order_release);
    }
}

void
unregister_runtime(MineSweeper* rt)
{
    LockGuard<SpinLock> g(g_runtime_lock);
    if (g_registered == rt) {
        g_registered = nullptr;
        g_registered_relaxed.store(nullptr, std::memory_order_release);
    }
}

MineSweeper*
registered_runtime()
{
    return g_registered_relaxed.load(std::memory_order_acquire);
}

FaultClass
classify_fault(const void* addr, std::uint64_t* epoch_out)
{
    MineSweeper* rt = g_registered_relaxed.load(std::memory_order_acquire);
    if (rt == nullptr)
        return FaultClass::kNoRuntime;
    const std::uintptr_t a = to_addr(addr);
    const alloc::JadeAllocator& jade = rt->substrate();
    if (!jade.reservation().contains(a))
        return FaultClass::kOutsideHeap;
    if (epoch_out != nullptr)
        *epoch_out = rt->sweep_epoch();
    alloc::JadeAllocator::AllocationInfo info;
    if (!jade.lookup_relaxed(a, &info))
        return FaultClass::kHeapUnmapped;
    if (rt->in_quarantine(to_ptr(info.base)))
        return FaultClass::kQuarantined;
    return FaultClass::kHeapLive;
}

void
install_crash_handler()
{
    bool expected = false;
    if (!g_crash_installed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
        return;
    }
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &crash_signal_handler;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_SIGINFO;
    MSW_CHECK(::sigaction(SIGSEGV, &sa, &g_prev_segv) == 0);
    MSW_CHECK(::sigaction(SIGBUS, &sa, &g_prev_bus) == 0);
}

bool
install_crash_handler_from_env()
{
    const char* v = std::getenv("MSW_CRASH_REPORT");
    if (v == nullptr || v[0] == '\0' ||
        (v[0] == '0' && v[1] == '\0')) {
        return false;
    }
    install_crash_handler();
    return true;
}

void
note_mutator_thread(QuarantineRuntime* rt)
{
    ::pthread_once(&g_mutator_key_once, &make_mutator_key);
    const bool is_registered = [&] {
        LockGuard<SpinLock> g(g_runtime_lock);
        return g_registered != nullptr &&
               static_cast<QuarantineRuntime*>(g_registered) == rt;
    }();
    if (is_registered)
        MSW_CHECK(::pthread_setspecific(g_mutator_key, rt) == 0);
}

void
forget_mutator_thread()
{
    ::pthread_once(&g_mutator_key_once, &make_mutator_key);
    ::pthread_setspecific(g_mutator_key, nullptr);
}

}  // namespace msw::core::lifecycle
