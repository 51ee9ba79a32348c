#pragma once

#include "core/low.h"

namespace msw::core {

// The member is declared here, in the base's own header: neither the
// derived class's header nor its .cc says what type low_ has.
class Base
{
  protected:
    Low low_;
};

}  // namespace msw::core
