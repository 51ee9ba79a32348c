#pragma once

#include "util/mutex.h"

namespace msw::alloc {

class Heap
{
  public:
    virtual ~Heap() = default;
    virtual void* take() = 0;

    void*
    grow()
    {
        return take();
    }
};

class CacheHeap : public Heap
{
  public:
    void* take() override;
};

class FreeList
{
  public:
    void* take();

  private:
    Mutex list_lock_{util::LockRank::kAlpha};
};

}  // namespace msw::alloc
