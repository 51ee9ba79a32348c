/**
 * @file
 * Annotation-aware mutex and RAII guards.
 *
 * std::mutex / std::lock_guard / std::unique_lock carry no capability
 * annotations, so code using them is invisible to Clang's thread-safety
 * analysis. msw::Mutex wraps std::mutex as a capability and adds runtime
 * lock-rank validation; msw::LockGuard / msw::UniqueLock are drop-in
 * guard replacements the analysis understands, usable with both
 * msw::Mutex and msw::SpinLock.
 *
 * Condition variables: std::condition_variable requires a literal
 * std::unique_lock<std::mutex>, so code waiting on an msw::Mutex uses
 * std::condition_variable_any with msw::UniqueLock<msw::Mutex>. The wait
 * itself releases/reacquires the lock opaquely to the analysis; predicate
 * lambdas that read guarded fields therefore need their own
 * MSW_REQUIRES(mu) annotation.
 */
#pragma once

#include <mutex>

#include "util/lock_rank.h"
#include "util/thread_annotations.h"

namespace msw {

/** std::mutex as a thread-safety capability with a lock rank. */
class MSW_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;

    /** A mutex participating in lock-rank validation (util/lock_rank.h). */
    explicit Mutex(util::LockRank rank) : rank_(rank) {}

    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void
    lock() MSW_ACQUIRE()
    {
        util::lock_rank_acquire(rank_);
        mu_.lock();
    }

    bool
    try_lock() MSW_TRY_ACQUIRE(true)
    {
        if (mu_.try_lock()) {
            util::lock_rank_try_acquire(rank_);
            return true;
        }
        return false;
    }

    void
    unlock() MSW_RELEASE()
    {
        util::lock_rank_release(rank_);
        mu_.unlock();
    }

  private:
    std::mutex mu_;
    util::LockRank rank_ = util::LockRank::kUnranked;
};

/**
 * Annotation-aware std::lock_guard: acquires @p M for the enclosing
 * scope. Works with any Lockable capability (msw::Mutex, msw::SpinLock).
 */
template <typename M>
class MSW_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(M& mu) MSW_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }

    ~LockGuard() MSW_RELEASE() { mu_.unlock(); }

    LockGuard(const LockGuard&) = delete;
    LockGuard& operator=(const LockGuard&) = delete;

  private:
    M& mu_;
};

/** Guard spelling for the common msw::Mutex case. */
using MutexGuard = LockGuard<Mutex>;

/**
 * Annotation-aware std::unique_lock subset: RAII plus manual
 * lock()/unlock(), which is all std::condition_variable_any::wait needs.
 * Always constructed locked.
 */
template <typename M>
class MSW_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(M& mu) MSW_ACQUIRE(mu) : mu_(mu), held_(true)
    {
        mu_.lock();
    }

    ~UniqueLock() MSW_RELEASE()
    {
        if (held_)
            mu_.unlock();
    }

    void
    lock() MSW_ACQUIRE()
    {
        mu_.lock();
        held_ = true;
    }

    void
    unlock() MSW_RELEASE()
    {
        mu_.unlock();
        held_ = false;
    }

    UniqueLock(const UniqueLock&) = delete;
    UniqueLock& operator=(const UniqueLock&) = delete;

  private:
    M& mu_;
    bool held_;
};

}  // namespace msw
