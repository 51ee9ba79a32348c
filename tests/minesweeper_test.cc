// MineSweeper end-to-end tests: the paper's security guarantees
// (quarantine until no dangling pointers, use-after-reallocate prevention,
// double-free idempotence, zeroing, unmapping) plus mode and partial-
// version behaviour.
//
// Note on methodology: the gtest thread's stack is *not* registered as a
// mutator stack, so pointers held in test locals do not pin allocations.
// Tests place dangling pointers in explicitly registered root arrays to
// control exactly what the sweep can see.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "core/minesweeper.h"
#include "util/rng.h"

#if defined(__SANITIZE_ADDRESS__)
#define MSW_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MSW_TEST_ASAN 1
#endif
#endif

#ifdef MSW_TEST_ASAN
// Forked probes here fault on purpose (use-after-free through unmapped
// quarantine pages) and must die by SIGSEGV: ASan's own SEGV handler
// would report the fault and exit instead. ASAN_OPTIONS still overrides.
extern "C" const char*
__asan_default_options()
{
    return "handle_segv=0:allow_user_segv_handler=1";
}
#endif

namespace msw::core {
namespace {

Options
test_options(Mode mode = Mode::kFullyConcurrent)
{
    Options o;
    o.mode = mode;
    o.helper_threads = 2;
    o.min_sweep_bytes = 4096;  // tests use tiny heaps
    o.jade.heap_bytes = std::size_t{1} << 30;
    return o;
}

/** Root array the sweep scans; entries act as the program's pointers. */
struct Roots {
    static constexpr int kSlots = 64;
    void* slot[kSlots] = {};
};

class MineSweeperTest : public ::testing::Test
{
  protected:
    MineSweeperTest() : ms(test_options())
    {
        ms.add_root(&roots, sizeof(roots));
    }

    MineSweeper ms;
    Roots roots;
};

// ------------------------------------------------------------ basic API

TEST_F(MineSweeperTest, AllocFreeBasics)
{
    void* p = ms.alloc(100);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xee, 100);
    ms.free(p);
    ms.free(nullptr);  // no-op
}

TEST_F(MineSweeperTest, UsableSizeCoversRequestWithEndSlack)
{
    for (std::size_t size : {1ul, 15ul, 16ul, 100ul, 14335ul, 100000ul}) {
        void* p = ms.alloc(size);
        EXPECT_GE(ms.usable_size(p), size) << size;
        // The underlying allocation must exceed the request: the +1 byte
        // end-pointer guarantee (§3.2).
        EXPECT_GT(ms.substrate().usable_size(p), size) << size;
        ms.free(p);
    }
}

TEST_F(MineSweeperTest, FreedAllocationEntersQuarantine)
{
    void* p = ms.alloc(64);
    EXPECT_FALSE(ms.in_quarantine(p));
    ms.free(p);
    EXPECT_TRUE(ms.in_quarantine(p));
}

TEST_F(MineSweeperTest, SweepReleasesUnreferencedAllocation)
{
    void* p = ms.alloc(64);
    ms.free(p);
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(p))
        << "no pointer anywhere: must be released";
}

TEST_F(MineSweeperTest, DanglingRootPointerPinsAllocation)
{
    void* p = ms.alloc(64);
    roots.slot[0] = p;  // dangling pointer survives the free
    ms.free(p);
    ms.force_sweep();
    EXPECT_TRUE(ms.in_quarantine(p))
        << "allocation with a dangling pointer must stay quarantined";
    EXPECT_GE(ms.sweep_stats().failed_frees, 1u);

    roots.slot[0] = nullptr;  // program overwrites the dangling pointer
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(p))
        << "once unreachable, the allocation must be released";
}

TEST_F(MineSweeperTest, InteriorDanglingPointerPins)
{
    auto* p = static_cast<char*>(ms.alloc(1024));
    roots.slot[0] = p + 512;  // interior pointer
    ms.free(p);
    ms.force_sweep();
    EXPECT_TRUE(ms.in_quarantine(p));
    roots.slot[0] = nullptr;
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(p));
}

TEST_F(MineSweeperTest, EndPointerPinsAllocation)
{
    // C/C++ allows one-past-the-end pointers; the +1 B slack keeps them
    // inside the allocation's shadow range (§3.2).
    const std::size_t size = 256;  // exactly a class size
    auto* p = static_cast<char*>(ms.alloc(size));
    roots.slot[0] = p + size;  // end() pointer
    ms.free(p);
    ms.force_sweep();
    EXPECT_TRUE(ms.in_quarantine(p))
        << "end pointer must pin the allocation";
    roots.slot[0] = nullptr;
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(p));
}

TEST_F(MineSweeperTest, PointerInLiveHeapObjectPins)
{
    // The dangling pointer lives inside another *live* heap allocation.
    auto** holder = static_cast<void**>(ms.alloc(sizeof(void*) * 4));
    void* victim = ms.alloc(64);
    holder[2] = victim;
    roots.slot[0] = holder;  // keep holder reachable (irrelevant to test)
    ms.free(victim);
    ms.force_sweep();
    EXPECT_TRUE(ms.in_quarantine(victim));

    holder[2] = nullptr;
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(victim));
    roots.slot[0] = nullptr;
    ms.free(holder);
}

TEST_F(MineSweeperTest, FalsePointerConservativelyPins)
{
    void* p = ms.alloc(64);
    // An integer that happens to equal the address: indistinguishable
    // from a pointer; must conservatively prevent deallocation (§3.3).
    roots.slot[0] = reinterpret_cast<void*>(to_addr(p));
    ms.free(p);
    ms.force_sweep();
    EXPECT_TRUE(ms.in_quarantine(p));
    roots.slot[0] = nullptr;
    ms.force_sweep();
}

TEST_F(MineSweeperTest, HiddenXorPointerIsNotFound)
{
    // XORed pointers are outside the guarantee (§1.2) but must not break
    // anything: the allocation is simply released.
    void* p = ms.alloc(64);
    roots.slot[0] =
        reinterpret_cast<void*>(to_addr(p) ^ 0xdeadbeefcafebabeull);
    ms.free(p);
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(p));
    roots.slot[0] = nullptr;
}

TEST_F(MineSweeperTest, ZeroingClearsFreedContents)
{
    auto* p = static_cast<unsigned char*>(ms.alloc(256));
    std::memset(p, 0xaa, 256);
    ms.free(p);
    // Benign use-after-free read: still mapped, but must read zeros —
    // free() zero-fills (§4.1), so no stale data (or pointers) survive.
    for (int i = 0; i < 256; ++i)
        ASSERT_EQ(p[i], 0u);
}

TEST_F(MineSweeperTest, ZeroingBreaksQuarantineCycles)
{
    // a -> b and b -> a, both freed: without zeroing they would pin each
    // other forever; zeroing flattens the graph (§4.1, Figure 6).
    auto** a = static_cast<void**>(ms.alloc(64));
    auto** b = static_cast<void**>(ms.alloc(64));
    a[0] = b;
    b[0] = a;
    ms.free(a);
    ms.free(b);
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(a));
    EXPECT_FALSE(ms.in_quarantine(b));
}

TEST_F(MineSweeperTest, DanglingPointerInsideQuarantinedDataIsGone)
{
    // holder -> victim; both freed, holder freed *after* victim but
    // before the sweep. Zeroing holder removes its pointer, so victim
    // must be released too.
    auto** holder = static_cast<void**>(ms.alloc(64));
    void* victim = ms.alloc(64);
    holder[0] = victim;
    ms.free(victim);
    ms.free(holder);
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(victim));
    EXPECT_FALSE(ms.in_quarantine(holder));
}

// ------------------------------------------------------- double frees

TEST_F(MineSweeperTest, DoubleFreeIsIdempotent)
{
    void* p = ms.alloc(64);
    ms.free(p);
    ms.free(p);
    ms.free(p);
    EXPECT_EQ(ms.sweep_stats().double_frees, 2u);
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(p));
    // The allocation was truly freed exactly once: allocating again works.
    void* q = ms.alloc(64);
    ASSERT_NE(q, nullptr);
    ms.free(q);
}

TEST_F(MineSweeperTest, FreeAfterReleaseAndReallocIsLegitimate)
{
    void* p = ms.alloc(64);
    ms.free(p);
    ms.force_sweep();
    // p's memory may be reused now; a new allocation at the same address
    // must be freeable without being flagged as a double free.
    std::vector<void*> ptrs;
    bool reused = false;
    for (int i = 0; i < 1000 && !reused; ++i) {
        void* q = ms.alloc(64);
        ptrs.push_back(q);
        reused = q == p;
    }
    const std::uint64_t before = ms.sweep_stats().double_frees;
    for (void* q : ptrs)
        ms.free(q);
    EXPECT_EQ(ms.sweep_stats().double_frees, before);
}

// ------------------------------------------- use-after-reallocate defence

TEST_F(MineSweeperTest, UseAfterReallocatePrevented)
{
    // The Figure-2 exploit pattern: free an object while a dangling
    // pointer remains, then spray same-sized allocations. None may alias
    // the victim while the dangling pointer exists.
    void* victim = ms.alloc(128);
    roots.slot[0] = victim;  // the program's dangling pointer
    ms.free(victim);

    for (int i = 0; i < 5000; ++i) {
        void* attacker = ms.alloc(128);
        ASSERT_NE(attacker, victim)
            << "attacker aliased the victim at spray " << i;
        ms.free(attacker);
    }
    ms.force_sweep();
    EXPECT_TRUE(ms.in_quarantine(victim));
    roots.slot[0] = nullptr;
}

TEST_F(MineSweeperTest, ReuseAllowedOnceDanglingPointerGone)
{
    void* victim = ms.alloc(128);
    roots.slot[0] = victim;
    ms.free(victim);
    ms.force_sweep();
    roots.slot[0] = nullptr;  // program drops the pointer
    ms.force_sweep();
    // Now reuse is safe and should eventually happen.
    bool reused = false;
    std::vector<void*> ptrs;
    for (int i = 0; i < 5000 && !reused; ++i) {
        void* q = ms.alloc(128);
        ptrs.push_back(q);
        reused = q == victim;
    }
    EXPECT_TRUE(reused) << "memory must eventually be recycled";
    for (void* q : ptrs)
        ms.free(q);
}

// --------------------------------------------------------- large/unmap

TEST_F(MineSweeperTest, LargeFreeUnmapsPhysicalPages)
{
    const std::size_t size = 4 << 20;
    auto before = ms.stats().committed_bytes;
    void* p = ms.alloc(size);
    std::memset(p, 1, size);
    EXPECT_GE(ms.stats().committed_bytes, before + size);
    ms.free(p);
    // Pages are decommitted immediately; committed accounting drops even
    // though the allocation is still quarantined.
    EXPECT_LT(ms.stats().committed_bytes, before + size / 2);
    EXPECT_TRUE(ms.in_quarantine(p));
    EXPECT_GE(ms.sweep_stats().unmapped_entries, 1u);
}

TEST_F(MineSweeperTest, UnmappedQuarantinePageFaultsOnAccess)
{
    void* p = ms.alloc(1 << 20);
    ms.free(p);
    // A use-after-free through the unmapped page must fault (clean
    // termination, not silent corruption). Probed in a forked child.
    const pid_t pid = fork();
    if (pid == 0) {
        *static_cast<volatile char*>(p) = 1;
        _exit(0);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGSEGV);
}

TEST_F(MineSweeperTest, UnmappedAllocationIsReusableAfterRelease)
{
    void* p = ms.alloc(1 << 20);
    ms.free(p);
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(p));
    void* q = ms.alloc(1 << 20);
    std::memset(q, 0x3c, 1 << 20);  // must be writable again
    ms.free(q);
}

TEST_F(MineSweeperTest, DanglingPointerToUnmappedLargeStillPins)
{
    void* p = ms.alloc(1 << 20);
    roots.slot[0] = p;
    ms.free(p);
    ms.force_sweep();
    EXPECT_TRUE(ms.in_quarantine(p));
    roots.slot[0] = nullptr;
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(p));
}

TEST_F(MineSweeperTest, ResidentScanSkipsUntouchedPagesButPins)
{
    if (::access("/proc/self/pagemap", R_OK) != 0)
        GTEST_SKIP() << "/proc/self/pagemap unavailable";
    // A live 1 MiB block whose only touched page is its last one, and
    // the sole reference to a quarantined object lives there.
    constexpr std::size_t kBlock = 1 << 20;
    auto* block = static_cast<char*>(ms.alloc(kBlock));
    void* victim = ms.alloc(64);
    void** slot = reinterpret_cast<void**>(block + kBlock - 64);
    *slot = victim;
    ms.free(victim);
    const std::uint64_t before = ms.sweep_stats().bytes_scanned;
    ms.force_sweep();
    EXPECT_TRUE(ms.in_quarantine(victim));
    // The untouched pages read as zero and were not scanned.
    EXPECT_LT(ms.sweep_stats().bytes_scanned - before, kBlock);
    *slot = nullptr;
    ms.force_sweep();
    EXPECT_FALSE(ms.in_quarantine(victim));
    ms.free(block);
}

TEST(MineSweeperUnmapping, DecommittedRangeGoesBackUncommitted)
{
    Options o = test_options();
    // No post-sweep purge: whatever is decommitted after the sweep was
    // handed back that way by the release itself.
    o.purging = false;
    MineSweeper ms(o);
    constexpr std::size_t kBlock = 1 << 20;
    void* p = ms.alloc(kBlock);
    std::memset(p, 0x5a, kBlock);
    const std::size_t committed = ms.substrate().stats().committed_bytes;
    ms.free(p);
    ms.force_sweep();
    ASSERT_FALSE(ms.in_quarantine(p));
    // The extent layer and the sweep's access map agree, and neither
    // counts the released range.
    const std::size_t extent_committed =
        ms.substrate().stats().committed_bytes;
    EXPECT_EQ(extent_committed, ms.stats().committed_bytes);
    EXPECT_LE(extent_committed, committed - kBlock);
    // Reuse commits it again: readable as zero, writable.
    auto* q = static_cast<unsigned char*>(ms.alloc(kBlock));
    ASSERT_NE(q, nullptr);
    for (std::size_t off = 0; off < kBlock; off += vm::kPageSize)
        ASSERT_EQ(q[off], 0u) << off;
    std::memset(q, 1, kBlock);
    EXPECT_EQ(ms.substrate().stats().committed_bytes,
              ms.stats().committed_bytes);
    ms.free(q);
}

// ------------------------------------------------------------- realloc

TEST_F(MineSweeperTest, ReallocPreservesDataAndQuarantinesOld)
{
    auto* p = static_cast<char*>(ms.alloc(64));
    std::memset(p, 'q', 64);
    auto* q = static_cast<char*>(ms.realloc(p, 10000));
    ASSERT_NE(q, p);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(q[i], 'q');
    EXPECT_TRUE(ms.in_quarantine(p));
    ms.free(q);
}

// ------------------------------------------------------------- triggers

TEST_F(MineSweeperTest, SweepsTriggerAutomatically)
{
    // Churn enough memory that the 15 % threshold fires on its own.
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
        void* p = ms.alloc(64 + rng.next_below(512));
        std::memset(p, 1, 16);
        ms.free(p);
    }
    ms.flush();
    EXPECT_GT(ms.stats().sweeps, 0u);
}

TEST_F(MineSweeperTest, QuarantineBytesBounded)
{
    // With automatic sweeping, the quarantine must stay bounded relative
    // to the live heap.
    std::vector<void*> live;
    Rng rng(2);
    for (int i = 0; i < 30000; ++i) {
        live.push_back(ms.alloc(128));
        if (live.size() > 256) {
            const std::size_t idx = rng.next_below(live.size());
            ms.free(live[idx]);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    ms.flush();
    ms.force_sweep();
    const auto s = ms.stats();
    EXPECT_LT(s.quarantine_bytes, s.live_bytes + (4u << 20));
    for (void* p : live)
        ms.free(p);
}

// ----------------------------------------------------------------- stats

TEST_F(MineSweeperTest, StatsAreCoherent)
{
    void* p = ms.alloc(1000);
    const auto s = ms.stats();
    EXPECT_GE(s.live_bytes, 1000u);
    EXPECT_GT(s.committed_bytes, 0u);
    EXPECT_GT(s.metadata_bytes, 0u);
    EXPECT_GE(s.alloc_calls, 1u);
    ms.free(p);
    const auto s2 = ms.stats();
    EXPECT_GE(s2.free_calls, 1u);
    EXPECT_GE(s2.quarantine_bytes, 1000u);
}

// ------------------------------------------------------------- threading

TEST_F(MineSweeperTest, MultiThreadedChurnPreservesInvariants)
{
    const int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ms.register_mutator_thread();
            Rng rng(77 + t);
            std::vector<std::pair<unsigned char*, unsigned char>> mine;
            for (int i = 0; i < 20000; ++i) {
                if (mine.empty() || rng.next_bool(0.52)) {
                    const std::size_t size = 1 + rng.next_below(1000);
                    auto canary =
                        static_cast<unsigned char>(rng.next_below(256));
                    auto* p =
                        static_cast<unsigned char*>(ms.alloc(size));
                    std::memset(p, canary, size);
                    mine.emplace_back(p, canary);
                } else {
                    const std::size_t idx = rng.next_below(mine.size());
                    auto [p, canary] = mine[idx];
                    // Canary intact = no aliasing reallocation occurred.
                    ASSERT_EQ(*p, canary);
                    ms.free(p);
                    mine[idx] = mine.back();
                    mine.pop_back();
                }
            }
            for (auto [p, canary] : mine) {
                ASSERT_EQ(*p, canary);
                ms.free(p);
            }
            ms.unregister_mutator_thread();
        });
    }
    for (auto& th : threads)
        th.join();
    ms.flush();
}

}  // namespace
}  // namespace msw::core
