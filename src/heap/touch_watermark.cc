#include "src/heap/touch_watermark.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace desiccant {

TouchResult TouchWatermark::TouchAndExtend(VirtualAddressSpace* vas, RegionId region,
                                           uint64_t offset, uint64_t len) {
  // Read before the call: if emergency relief inside Touch moves the epoch,
  // the range stamped below is stale at once and covers nothing.
  const uint64_t epoch = vas->residency_epoch();
  const TouchResult t = vas->Touch(region, offset, len, /*write=*/true);
  if (len == 0 || t.commit_failed() || vas->has_touch_listener() ||
      !vas->RegionAnonymous(region)) {
    return t;
  }
  const uint64_t lo = PageAlignDown(offset);
  const uint64_t hi = PageAlignUp(offset + len);
  if (epoch_ == epoch && lo <= hi_ && hi >= lo_) {
    // Overlaps or adjoins the verified range: grow it.
    lo_ = std::min(lo_, lo);
    hi_ = std::max(hi_, hi);
  } else {
    // Stale or disjoint: the range is one interval, so keep the newest.
    lo_ = lo;
    hi_ = hi;
    epoch_ = epoch;
  }
  return t;
}

#ifndef NDEBUG
void TouchWatermark::CheckSkipped(const VirtualAddressSpace* vas, RegionId region,
                                  uint64_t offset, uint64_t len) {
  if (len == 0) {
    return;
  }
  const uint64_t pages = (offset + len - 1) / kPageSize - offset / kPageSize + 1;
  const uint64_t resident = vas->ResidentPagesInRange(region, offset, len);
  if (resident != pages || vas->has_touch_listener()) {
    std::fprintf(stderr,
                 "TouchWatermark: skipped touch of region %u [%llu, +%llu) has %llu of "
                 "%llu pages resident (listener %s)\n",
                 region, static_cast<unsigned long long>(offset),
                 static_cast<unsigned long long>(len), static_cast<unsigned long long>(resident),
                 static_cast<unsigned long long>(pages),
                 vas->has_touch_listener() ? "attached" : "none");
    std::abort();
  }
}
#endif

}  // namespace desiccant
