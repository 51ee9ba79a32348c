// Unit tests for the VM layer: reservation lifecycle, commit/decommit
// semantics, protection changes, and RSS accounting behaviour.
#include <gtest/gtest.h>

#include <csetjmp>
#include <csignal>
#include <cstring>

#include "util/bits.h"
#include "vm/vm.h"

namespace msw::vm {
namespace {

TEST(Reservation, ReserveRoundsToPages)
{
    Reservation r = Reservation::reserve(1);
    EXPECT_EQ(r.size(), kPageSize);
    EXPECT_NE(r.base(), 0u);
    EXPECT_TRUE(is_aligned(r.base(), kPageSize));
}

TEST(Reservation, ContainsBounds)
{
    Reservation r = Reservation::reserve(4 * kPageSize);
    EXPECT_TRUE(r.contains(r.base()));
    EXPECT_TRUE(r.contains(r.base() + r.size() - 1));
    EXPECT_FALSE(r.contains(r.base() + r.size()));
    EXPECT_FALSE(r.contains(r.base() - 1));
}

TEST(Reservation, CommitMakesWritable)
{
    Reservation r = Reservation::reserve(8 * kPageSize);
    ASSERT_EQ(r.commit(r.base(), 2 * kPageSize), VmStatus::kOk);
    auto* p = reinterpret_cast<char*>(r.base());
    std::memset(p, 0xab, 2 * kPageSize);
    EXPECT_EQ(p[0], static_cast<char>(0xab));
    EXPECT_EQ(p[2 * kPageSize - 1], static_cast<char>(0xab));
}

TEST(Reservation, CommittedPagesStartZeroed)
{
    Reservation r = Reservation::reserve(kPageSize);
    ASSERT_EQ(r.commit(r.base(), kPageSize), VmStatus::kOk);
    auto* p = reinterpret_cast<unsigned char*>(r.base());
    for (std::size_t i = 0; i < kPageSize; i += 64)
        ASSERT_EQ(p[i], 0u);
}

TEST(Reservation, DecommitDiscardsContents)
{
    Reservation r = Reservation::reserve(kPageSize);
    ASSERT_EQ(r.commit(r.base(), kPageSize), VmStatus::kOk);
    auto* p = reinterpret_cast<unsigned char*>(r.base());
    p[100] = 42;
    ASSERT_EQ(r.decommit(r.base(), kPageSize), VmStatus::kOk);
    ASSERT_EQ(r.commit(r.base(), kPageSize), VmStatus::kOk);
    EXPECT_EQ(p[100], 0u) << "decommit must drop physical contents";
}

TEST(Reservation, PurgeKeepsAccessibleButDropsContents)
{
    Reservation r = Reservation::reserve(kPageSize);
    ASSERT_EQ(r.commit(r.base(), kPageSize), VmStatus::kOk);
    auto* p = reinterpret_cast<unsigned char*>(r.base());
    p[7] = 9;
    ASSERT_EQ(r.purge_keep_accessible(r.base(), kPageSize), VmStatus::kOk);
    // No commit needed: page must still be accessible, now zero.
    EXPECT_EQ(p[7], 0u);
}

TEST(Reservation, MoveTransfersOwnership)
{
    Reservation a = Reservation::reserve(kPageSize);
    const std::uintptr_t base = a.base();
    Reservation b = std::move(a);
    EXPECT_EQ(b.base(), base);
    EXPECT_EQ(a.base(), 0u);
    Reservation c;
    c = std::move(b);
    EXPECT_EQ(c.base(), base);
    EXPECT_EQ(b.base(), 0u);
}

TEST(Reservation, ReleaseIsIdempotent)
{
    Reservation r = Reservation::reserve(kPageSize);
    r.release();
    EXPECT_EQ(r.base(), 0u);
    r.release();  // Must not crash.
}

TEST(Reservation, MethodsOnEmptyReservationAreNoOps)
{
    // A default-constructed (or moved-from / released) reservation must
    // accept every method as a well-defined no-op rather than passing a
    // null base to mmap/mprotect.
    Reservation r;
    EXPECT_EQ(r.base(), 0u);
    EXPECT_EQ(r.size(), 0u);
    EXPECT_EQ(r.commit(0, kPageSize), VmStatus::kOk);
    EXPECT_EQ(r.decommit(0, kPageSize), VmStatus::kOk);
    EXPECT_EQ(r.purge_keep_accessible(0, kPageSize), VmStatus::kOk);
    EXPECT_EQ(r.protect_rw(0, kPageSize), VmStatus::kOk);
    r.release();
    r.release();
}

TEST(Reservation, MovedFromReservationIsSafeToUse)
{
    Reservation a = Reservation::reserve(4 * kPageSize);
    Reservation b = std::move(a);
    // a is now empty: operations must no-op, and releasing both (double
    // release of the underlying mapping from a's point of view) is safe.
    EXPECT_EQ(a.commit(b.base(), kPageSize), VmStatus::kOk);
    a.release();
    ASSERT_EQ(b.commit(b.base(), kPageSize), VmStatus::kOk);
    *reinterpret_cast<char*>(b.base()) = 1;
    b.release();
    b.release();
}

TEST(Reservation, ZeroLengthOperationsAreNoOps)
{
    Reservation r = Reservation::reserve(kPageSize);
    EXPECT_EQ(r.commit(r.base(), 0), VmStatus::kOk);
    EXPECT_EQ(r.decommit(r.base(), 0), VmStatus::kOk);
    EXPECT_EQ(r.purge_keep_accessible(r.base(), 0), VmStatus::kOk);
}

TEST(Reservation, CommitMustSucceedsOnHealthyPath)
{
    Reservation r = Reservation::reserve(2 * kPageSize);
    r.commit_must(r.base(), 2 * kPageSize);
    std::memset(reinterpret_cast<void*>(r.base()), 0x5a, 2 * kPageSize);
    EXPECT_EQ(*reinterpret_cast<unsigned char*>(r.base()), 0x5au);
}

// Protection faults are checked with a fork: cleaner than signal-handler
// longjmp inside the gtest process.
bool
access_faults(std::uintptr_t addr)
{
    const pid_t pid = fork();
    if (pid == 0) {
        *reinterpret_cast<volatile char*>(addr) = 1;
        _exit(0);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFSIGNALED(status) && WTERMSIG(status) == SIGSEGV;
}

TEST(Reservation, ReservedPagesAreInaccessible)
{
    Reservation r = Reservation::reserve(kPageSize);
    EXPECT_TRUE(access_faults(r.base()));
}

TEST(Rss, CurrentRssIsPlausible)
{
    const std::size_t rss = current_rss_bytes();
    EXPECT_GT(rss, 100 * 1024u);           // > 100 KiB
    EXPECT_LT(rss, 8ull * 1024 * 1024 * 1024);  // < 8 GiB
}

TEST(Rss, CommittingAndTouchingRaisesRss)
{
    const std::size_t kBytes = 32 * 1024 * 1024;
    const std::size_t before = current_rss_bytes();
    Reservation r = Reservation::reserve(kBytes);
    r.commit_must(r.base(), kBytes);
    std::memset(reinterpret_cast<void*>(r.base()), 1, kBytes);
    const std::size_t after = current_rss_bytes();
    EXPECT_GT(after, before + kBytes / 2);
}

TEST(PagesFor, Rounding)
{
    EXPECT_EQ(pages_for(0), 0u);
    EXPECT_EQ(pages_for(1), 1u);
    EXPECT_EQ(pages_for(kPageSize), 1u);
    EXPECT_EQ(pages_for(kPageSize + 1), 2u);
}

}  // namespace
}  // namespace msw::vm
