#include "quarantine/quarantine.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <ctime>

#include "util/bits.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "vm/vm.h"

namespace msw::quarantine {

struct Quarantine::ThreadBuffer {
    std::atomic<Quarantine*> owner{nullptr};
    ThreadBuffer* reg_prev = nullptr;
    ThreadBuffer* reg_next = nullptr;
    std::size_t count = 0;
    std::size_t capacity = 0;
    std::size_t mapped_bytes = 0;  // os allocation size, for munmap
    Entry entries[1];              // [capacity], flexible

    static std::size_t
    bytes_for(std::size_t capacity)
    {
        return sizeof(ThreadBuffer) + (capacity - 1) * sizeof(Entry);
    }
};

SpinLock Quarantine::g_buffer_lock{util::LockRank::kQuarantineRegistry};
Quarantine::ThreadBuffer* Quarantine::g_buffer_head = nullptr;

// ------------------------------------------------------ chunked storage

Quarantine::EntryChunk*
Quarantine::chunk_alloc()
{
    void* mem = ::mmap(nullptr, align_up(sizeof(EntryChunk), vm::kPageSize),
                       PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    MSW_CHECK(mem != MAP_FAILED);
    // msw-relaxed(stat-cells): statistics counter; needs no ordering.
    chunks_mapped_.fetch_add(1, std::memory_order_relaxed);
    return new (mem) EntryChunk();
}

void
Quarantine::chunk_free_list(EntryChunk* head)
{
    while (head != nullptr) {
        EntryChunk* next = head->next;
        ::munmap(head, align_up(sizeof(EntryChunk), vm::kPageSize));
        head = next;
    }
}

Quarantine::EntryChunk*
Quarantine::take_spare_locked()
{
    EntryChunk* chunk = spare_;
    if (chunk != nullptr) {
        spare_ = chunk->next;
        chunk->next = nullptr;
        chunk->count = 0;
    }
    return chunk;
}

void
Quarantine::append_locked(EntryChunk** head, const Entry& entry)
{
    if (*head == nullptr || (*head)->count == EntryChunk::kEntries) {
        // mmap is a syscall, not a malloc: safe under lock_ even in the
        // self-hosted deployment.
        EntryChunk* chunk = take_spare_locked();
        if (chunk == nullptr)
            chunk = chunk_alloc();
        chunk->next = *head;
        *head = chunk;
    }
    (*head)->entries[(*head)->count++] = entry;
}

// ------------------------------------------------------- thread buffers

Quarantine::Quarantine(std::size_t tl_buffer_entries,
                       ReleaseOrderFn release_order, void* release_order_ctx)
    : buffer_capacity_(static_cast<std::uint32_t>(
          std::clamp<std::size_t>(tl_buffer_entries, 1, UINT32_MAX))),
      release_order_(release_order),
      release_order_ctx_(release_order_ctx)
{
    MSW_CHECK(pthread_key_create(&buffer_key_, &buffer_destructor) == 0);
}

Quarantine::~Quarantine()
{
    flush_thread_buffer();
    {
        LockGuard g(g_buffer_lock);
        ThreadBuffer* buf = g_buffer_head;
        while (buf != nullptr) {
            ThreadBuffer* next = buf->reg_next;
            // msw-relaxed(epoch-handoff): read under g_buffer_lock,
            // which every orphaning store holds.
            if (buf->owner.load(std::memory_order_relaxed) == this) {
                buf->owner.store(nullptr, std::memory_order_release);
                if (buf->reg_prev != nullptr)
                    buf->reg_prev->reg_next = buf->reg_next;
                else
                    g_buffer_head = buf->reg_next;
                if (buf->reg_next != nullptr)
                    buf->reg_next->reg_prev = buf->reg_prev;
                buf->reg_prev = nullptr;
                buf->reg_next = nullptr;
            }
            buf = next;
        }
    }
    pthread_key_delete(buffer_key_);
    EntryChunk* taken_current = nullptr;
    EntryChunk* taken_failed = nullptr;
    EntryChunk* taken_spare = nullptr;
    {
        LockGuard g(lock_);
        taken_current = current_;
        taken_failed = failed_;
        taken_spare = spare_;
        current_ = nullptr;
        failed_ = nullptr;
        spare_ = nullptr;
    }
    chunk_free_list(taken_current);
    chunk_free_list(taken_failed);
    chunk_free_list(taken_spare);
}

Quarantine::ThreadBuffer*
Quarantine::get_buffer()
{
    auto* buf = static_cast<ThreadBuffer*>(pthread_getspecific(buffer_key_));
    return buf != nullptr ? buf : make_buffer();
}

// msw-analyze: slow-path(once per thread: creates the thread's buffer)
Quarantine::ThreadBuffer*
Quarantine::make_buffer()
{
    const std::size_t bytes = align_up(
        ThreadBuffer::bytes_for(buffer_capacity_), vm::kPageSize);
    void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    MSW_CHECK(mem != MAP_FAILED);
    auto* buf = static_cast<ThreadBuffer*>(mem);
    // msw-relaxed(epoch-handoff): buffer not yet published; the
    // registry insert under the lock is what makes it visible.
    buf->owner.store(this, std::memory_order_relaxed);
    buf->capacity = buffer_capacity_;
    buf->mapped_bytes = bytes;
    {
        LockGuard g(g_buffer_lock);
        buf->reg_next = g_buffer_head;
        if (g_buffer_head != nullptr)
            g_buffer_head->reg_prev = buf;
        g_buffer_head = buf;
    }
    pthread_setspecific(buffer_key_, buf);
    return buf;
}

void
Quarantine::buffer_destructor(void* arg)
{
    auto* buf = static_cast<ThreadBuffer*>(arg);
    if (util::failpoint_should_fail(util::Failpoint::kThreadExit)) {
        // Chaos: delay the exit-path drain so it races concurrent
        // sweeps and fork cycles the way late TSD destruction does.
        struct timespec ts {
            0, 1000000
        };
        ::nanosleep(&ts, nullptr);
    }
    if (buf->owner.load(std::memory_order_acquire) != nullptr) {
        LockGuard g(g_buffer_lock);
        // msw-relaxed(epoch-handoff): re-read under g_buffer_lock; the
        // destructor orphans under it too.
        Quarantine* owner = buf->owner.load(std::memory_order_relaxed);
        if (owner != nullptr) {
            if (buf->reg_prev != nullptr)
                buf->reg_prev->reg_next = buf->reg_next;
            else
                g_buffer_head = buf->reg_next;
            if (buf->reg_next != nullptr)
                buf->reg_next->reg_prev = buf->reg_prev;
            // Registry (rank 20) before epoch lock (rank 22).
            LockGuard g2(owner->lock_);
            owner->flush_buffer_locked(buf);
        }
    }
    ::munmap(buf, buf->mapped_bytes);
}

void
Quarantine::flush_buffer_locked(ThreadBuffer* buf)
{
    for (std::size_t i = 0; i < buf->count; ++i)
        append_locked(&current_, buf->entries[i]);
    buf->count = 0;
}

// The fork hooks hold g_buffer_lock and lock_ across fork(); the
// pairing is enforced by core/lifecycle, outside what the static
// analysis can see.
void
Quarantine::prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    g_buffer_lock.lock();  // registry (20) before epoch lock (22)
    lock_.lock();
}

void
Quarantine::parent_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    lock_.unlock();
    g_buffer_lock.unlock();
}

void
Quarantine::child_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    // Adopt the thread buffers of threads that did not survive the
    // fork: flush their entries into the current epoch and unmap them.
    // The calling thread's own buffer (its TSD still points at it) is
    // the only one left registered. mmap/munmap only — safe while the
    // rest of the prepare-held hierarchy is held.
    ThreadBuffer* mine =
        static_cast<ThreadBuffer*>(pthread_getspecific(buffer_key_));
    ThreadBuffer* buf = g_buffer_head;
    while (buf != nullptr) {
        ThreadBuffer* next = buf->reg_next;
        if (buf != mine &&
            // msw-relaxed(epoch-handoff): read under g_buffer_lock,
            // as for every orphaning store.
            buf->owner.load(std::memory_order_relaxed) == this) {
            flush_buffer_locked(buf);
            if (buf->reg_prev != nullptr)
                buf->reg_prev->reg_next = buf->reg_next;
            else
                g_buffer_head = buf->reg_next;
            if (buf->reg_next != nullptr)
                buf->reg_next->reg_prev = buf->reg_prev;
            ::munmap(buf, buf->mapped_bytes);
        }
        buf = next;
    }
    lock_.unlock();
    g_buffer_lock.unlock();
}

// ------------------------------------------------------------ public API

void
Quarantine::insert(const Entry& entry)
{
    // msw-relaxed(stat-cells): statistics counter; totals need no
    // ordering.
    entries_added_.fetch_add(1, std::memory_order_relaxed);
    if (entry.unmapped) {
        // msw-relaxed(stat-cells): as above — stats only.
        unmapped_bytes_.fetch_add(entry.usable, std::memory_order_relaxed);
    } else {
        // msw-relaxed(stat-cells): as above — stats only.
        pending_bytes_.fetch_add(entry.usable, std::memory_order_relaxed);
    }
    ThreadBuffer* buf = get_buffer();
    const std::size_t n = buf->count;
    buf->entries[n] = entry;
    // Count the entry only once it is written: a fork() on another thread
    // can copy this buffer between the two stores, and the child adopts
    // it (child_after_fork) and releases every counted entry, so a count
    // stored first would hand it a stale entry already flushed.
    std::atomic_ref<std::size_t>(buf->count)
        .store(n + 1, std::memory_order_release);
    if (n + 1 == buf->capacity)
        flush_thread_buffer();
}

// msw-analyze: slow-path(one lock per full thread buffer, i.e. per
// buffer_capacity frees, or per explicit flush)
void
Quarantine::flush_thread_buffer()
{
    auto* buf = static_cast<ThreadBuffer*>(pthread_getspecific(buffer_key_));
    if (buf == nullptr || buf->count == 0)
        return;
    LockGuard g(lock_);
    flush_buffer_locked(buf);
}

void
Quarantine::lock_in(std::vector<Entry>& out)
{
    flush_thread_buffer();

    EntryChunk* taken_current = nullptr;
    EntryChunk* taken_failed = nullptr;
    {
        LockGuard g(lock_);
        taken_current = current_;
        taken_failed = failed_;
        current_ = nullptr;
        failed_ = nullptr;
    }

    // Copy into the caller's vector *outside* lock_: its reallocation may
    // re-enter the allocator (and thus insert()), which is fine unlocked.
    // One exact reserve: a reused vector reallocates only when a sweep
    // set outgrows every earlier one.
    std::size_t total = 0;
    for (EntryChunk* list : {taken_current, taken_failed}) {
        for (EntryChunk* c = list; c != nullptr; c = c->next)
            total += c->count;
    }
    out.clear();
    out.reserve(total);
    std::size_t mapped = 0;
    std::size_t failed_mapped = 0;
    std::size_t unmapped = 0;
    EntryChunk* taken = nullptr;  // both lists, relinked for the pool
    std::size_t taken_chunks = 0;
    auto copy_out = [&](EntryChunk* list, std::size_t* mapped_bytes) {
        while (list != nullptr) {
            EntryChunk* next = list->next;
            for (std::size_t i = 0; i < list->count; ++i) {
                const Entry& e = list->entries[i];
                out.push_back(e);
                if (e.unmapped)
                    unmapped += e.usable;
                else
                    *mapped_bytes += e.usable;
            }
            list->next = taken;
            taken = list;
            ++taken_chunks;
            list = next;
        }
    };
    copy_out(taken_current, &mapped);
    copy_out(taken_failed, &failed_mapped);

    // Pool the emptied chunks for the next epoch and store_failed(). The
    // spares keep as many chunks as the larger of this lock-in and the
    // one before took, so epochs that alternate small and large map
    // nothing; the rest of what the last epoch left unused is the
    // excess, unmapped outside lock_.
    EntryChunk* excess = nullptr;
    {
        LockGuard g(lock_);
        const std::size_t keep =
            std::max<std::size_t>(taken_chunks, last_taken_chunks_);
        last_taken_chunks_ = static_cast<std::uint32_t>(
            std::min<std::size_t>(taken_chunks, UINT32_MAX));
        excess = spare_;
        for (std::size_t n = taken_chunks; n < keep && excess != nullptr;
             ++n) {
            EntryChunk* chunk = excess;
            excess = chunk->next;
            chunk->next = taken;
            taken = chunk;
        }
        spare_ = taken;
    }
    chunk_free_list(excess);

    // Accounting: the locked-in set leaves "pending"/"failed"; entries
    // that fail the sweep re-enter via store_failed().
    // msw-relaxed(stat-cells): statistics cells; totals need no
    // ordering.
    failed_bytes_.fetch_sub(failed_mapped, std::memory_order_relaxed);
    std::size_t expected = pending_bytes_.load(std::memory_order_relaxed);
    std::size_t desired;
    do {
        desired = expected > mapped ? expected - mapped : 0;
        // msw-cas(stat-cells): saturating stats decrement; only RMW
        // atomicity matters.
    } while (!pending_bytes_.compare_exchange_weak(
        expected, desired, std::memory_order_relaxed));
    // msw-relaxed(stat-cells): statistics cell; stats only.
    unmapped_bytes_.fetch_sub(unmapped, std::memory_order_relaxed);

    // Hand the hook the whole sweep set at once (not per-chunk): release
    // order is only unpredictable if the shuffle spans epochs and failed
    // frees alike.
    if (release_order_ != nullptr && !out.empty())
        release_order_(out.data(), out.size(), release_order_ctx_);
}

void
Quarantine::store_failed(std::vector<Entry>&& failed)
{
    if (failed.empty())
        return;
    // Take spares under lock_, map any shortfall and fill the chunks
    // outside it; chunk_alloc is mmap-backed, so nothing here can
    // re-enter the allocator.
    const std::size_t need =
        (failed.size() + EntryChunk::kEntries - 1) / EntryChunk::kEntries;
    EntryChunk* head = nullptr;
    std::size_t have = 0;
    {
        LockGuard g(lock_);
        for (; have < need; ++have) {
            EntryChunk* chunk = take_spare_locked();
            if (chunk == nullptr)
                break;
            chunk->next = head;
            head = chunk;
        }
    }
    for (; have < need; ++have) {
        EntryChunk* chunk = chunk_alloc();
        chunk->next = head;
        head = chunk;
    }

    std::size_t mapped = 0;
    std::size_t unmapped = 0;
    EntryChunk* chunk = head;
    EntryChunk* last = head;
    for (const Entry& e : failed) {
        if (e.unmapped)
            unmapped += e.usable;
        else
            mapped += e.usable;
        if (chunk->count == EntryChunk::kEntries)
            chunk = chunk->next;
        chunk->entries[chunk->count++] = e;
        last = chunk;
    }

    {
        LockGuard g(lock_);
        // Attach (failed_ is normally empty here: lock_in drained it).
        last->next = failed_;
        failed_ = head;
    }
    // msw-relaxed(stat-cells): statistics counters; totals need no
    // ordering.
    failed_bytes_.fetch_add(mapped, std::memory_order_relaxed);
    unmapped_bytes_.fetch_add(unmapped, std::memory_order_relaxed);
}

QuarantineStats
Quarantine::stats() const
{
    QuarantineStats s;
    // msw-relaxed(stat-cells): statistics snapshot; cells may tear
    // relative to each other and that is fine for reporting.
    s.pending_bytes = pending_bytes_.load(std::memory_order_relaxed);
    s.failed_bytes = failed_bytes_.load(std::memory_order_relaxed);
    // msw-relaxed(stat-cells): as above — reporting snapshot.
    s.unmapped_bytes = unmapped_bytes_.load(std::memory_order_relaxed);
    s.entries_added = entries_added_.load(std::memory_order_relaxed);
    // msw-relaxed(stat-cells): as above — reporting snapshot.
    s.chunks_mapped = chunks_mapped_.load(std::memory_order_relaxed);
    return s;
}

}  // namespace msw::quarantine
