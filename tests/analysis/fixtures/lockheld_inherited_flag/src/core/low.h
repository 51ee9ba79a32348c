#pragma once

#include "util/mutex.h"

namespace msw::core {

class Low
{
  public:
    void poke();

  private:
    Mutex low_mu_{util::LockRank::kAlpha};
};

}  // namespace msw::core
