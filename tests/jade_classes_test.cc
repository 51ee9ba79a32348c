// Per-size-class parameterised sweeps over JadeHeap: every class must
// round-trip alloc/usable/free, pack its slab without overlap, recycle
// exactly, and interoperate with lookup. Complements jade_allocator_test
// with exhaustive class coverage (property-style TEST_P, per the repo's
// testing conventions).
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "alloc/jade_allocator.h"
#include "alloc/size_classes.h"

namespace msw::alloc {
namespace {

class PerClassTest : public ::testing::TestWithParam<unsigned>
{
  protected:
    JadeAllocator::Options
    options()
    {
        JadeAllocator::Options o;
        o.heap_bytes = std::size_t{1} << 30;
        o.decay_ms = 0;
        return o;
    }

    PerClassTest() : jade(options()) {}
    JadeAllocator jade;
};

TEST_P(PerClassTest, ExactClassSizeRoundTrips)
{
    const unsigned cls = GetParam();
    const std::size_t size = class_size(cls);
    void* p = jade.alloc(size);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(jade.usable_size(p), size)
        << "exact class-size request must not be rounded up";
    std::memset(p, 0x7e, size);
    jade.free(p);
}

TEST_P(PerClassTest, FullSlabHasNoOverlapsAndCoversSlots)
{
    const unsigned cls = GetParam();
    const std::size_t size = class_size(cls);
    const unsigned slots = slab_slots(cls);

    std::vector<void*> objs;
    std::set<std::uintptr_t> bases;
    for (unsigned i = 0; i < slots * 2; ++i) {
        void* p = jade.alloc(size);
        ASSERT_TRUE(bases.insert(to_addr(p)).second)
            << "duplicate address handed out";
        objs.push_back(p);
    }
    // Distinct objects must be spaced by at least the class size.
    std::uintptr_t prev = 0;
    for (const std::uintptr_t base : bases) {
        if (prev != 0)
            ASSERT_GE(base - prev, size);
        prev = base;
    }
    for (void* p : objs)
        jade.free(p);
}

TEST_P(PerClassTest, LookupResolvesEveryInteriorByte)
{
    const unsigned cls = GetParam();
    const std::size_t size = class_size(cls);
    auto* p = static_cast<char*>(jade.alloc(size));
    JadeAllocator::AllocationInfo info;
    for (const std::size_t off :
         {std::size_t{0}, size / 2, size - 1}) {
        ASSERT_TRUE(jade.lookup_relaxed(to_addr(p) + off, &info))
            << "offset " << off;
        EXPECT_EQ(info.base, to_addr(p)) << "offset " << off;
        EXPECT_EQ(info.usable, size);
    }
    jade.free(p);
}

TEST_P(PerClassTest, FreeDirectReturnsSlotToBin)
{
    const unsigned cls = GetParam();
    const std::size_t size = class_size(cls);
    void* p = jade.alloc(size);
    jade.free_direct_batch(&p, 1);
    EXPECT_EQ(jade.live_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, PerClassTest,
    ::testing::Range(0u, 35u),
    [](const ::testing::TestParamInfo<unsigned>& info) {
        return "size" + std::to_string(class_size(info.param));
    });

// Large-allocation size sweep: page-boundary edge cases.
class LargeSizeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(LargeSizeTest, LargeRoundTripsAndIsExclusive)
{
    JadeAllocator::Options o;
    o.heap_bytes = std::size_t{1} << 30;
    JadeAllocator jade(o);
    const std::size_t size = GetParam();
    auto* a = static_cast<char*>(jade.alloc(size));
    auto* b = static_cast<char*>(jade.alloc(size));
    ASSERT_NE(a, b);
    EXPECT_GE(jade.usable_size(a), size);
    EXPECT_TRUE(is_aligned(to_addr(a), vm::kPageSize));
    // No overlap.
    EXPECT_TRUE(a + jade.usable_size(a) <= b ||
                b + jade.usable_size(b) <= a);
    a[0] = 1;
    a[size - 1] = 2;
    jade.free(a);
    jade.free(b);
    EXPECT_EQ(jade.live_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, LargeSizeTest,
    ::testing::Values(14337, 16384, 16385, 65536, 65537, 1 << 20,
                      (1 << 20) + 1, 5 << 20),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
        return "b" + std::to_string(info.param);
    });

}  // namespace
}  // namespace msw::alloc
