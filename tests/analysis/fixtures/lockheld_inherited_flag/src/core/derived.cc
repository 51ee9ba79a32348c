#include "core/derived.h"

namespace msw::core {

// Inversion through an inherited member: deep() holds kBeta (20) and
// reaches an acquisition of kAlpha (10) via the base's low_.
void
Derived::deep()
{
    LockGuard g(high_mu_);
    low_.poke();
}

}  // namespace msw::core
