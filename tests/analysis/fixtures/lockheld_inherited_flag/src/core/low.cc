#include "core/low.h"

namespace msw::core {

void
Low::poke()
{
    LockGuard g(low_mu_);
}

}  // namespace msw::core
