// Set-associative cache model with LRU replacement, used by both hardware
// models (the conservative model's L1D must-hit analysis and the realistic
// simulator's L1/L2/L3 hierarchy).
//
// The implementation moved to support/cache.h (header-only) so the inline
// cycle meter in ir/ can share it without depending on hw/;
// these aliases keep the hw:: spelling every existing consumer uses.
#pragma once

#include "support/cache.h"

namespace bolt::hw {

inline constexpr std::uint32_t kCacheLineBytes = support::kCacheLineBytes;

using support::line_of;

using Cache = support::Cache;

}  // namespace bolt::hw
