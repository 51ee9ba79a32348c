#include "alloc/cache.h"

namespace msw::alloc {

// Same name as Heap::take, but no Heap: the bare take() inside
// Heap::grow dispatches to Heap's overrides, never to this.
void*
FreeList::take()
{
    LockGuard g(list_lock_);
    return nullptr;
}

void*
CacheHeap::take()
{
    return nullptr;
}

// msw-analyze: fast-path
void*
cache_alloc(CacheHeap* heap)
{
    return heap->grow();
}

}  // namespace msw::alloc
