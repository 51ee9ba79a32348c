#pragma once

namespace msw::util {

enum class LockRank : unsigned char {
    kAlpha = 10,
    kBeta = 20,
    kUnranked = 255,  ///< Opted out of rank checking.
};

}  // namespace msw::util
