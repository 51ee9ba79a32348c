#pragma once

#include "core/base.h"

namespace msw::core {

class Derived : public Base
{
  public:
    void deep();

  private:
    Mutex high_mu_{util::LockRank::kBeta};
};

}  // namespace msw::core
