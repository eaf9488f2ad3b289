// The heap→OS boundary fast path shared by the bump spaces.
//
// Every object allocation write-touches its pages in the OS page model. Once
// a space has cycled through its pages, nearly all of those touches land on
// pages that are already resident-dirty and do nothing. A TouchWatermark
// remembers the byte range [lo, hi) of one anonymous region that its space
// has already seen resident-dirty, together with the address space's
// residency epoch at which that was verified.
//
// Invariant: while vas->residency_epoch() equals the recorded epoch, every
// page overlapping [lo, hi) is resident-dirty and no touch listener is
// attached. A write touch wholly inside the range would fault nothing, reach
// no commit gate and notify nobody, so it is skipped: the heap→OS cost is
// O(new pages) instead of O(objects). The epoch moves whenever a resident
// page may leave (Release, Protect, Unmap, swap-out, node reclaim) and when
// a touch listener is attached or removed, which invalidates the range.
//
// After a real touch the range grows to the touched pages only when the
// region is anonymous, the commit did not fail and no listener is attached (a
// REAP WorkingSetRecorder must see re-touches). The range is stamped with the
// epoch read before the call, so if emergency relief released pages from
// inside Touch, the stamp is already stale and the range covers nothing.
#ifndef DESICCANT_SRC_HEAP_TOUCH_WATERMARK_H_
#define DESICCANT_SRC_HEAP_TOUCH_WATERMARK_H_

#include <cstdint>

#include "src/os/virtual_memory.h"

namespace desiccant {

class TouchWatermark {
 public:
  // Equivalent to vas->Touch(region, offset, len, /*write=*/true).
  TouchResult WriteTouch(VirtualAddressSpace* vas, RegionId region, uint64_t offset,
                         uint64_t len) {
    if (Covers(*vas, offset, len)) {
#ifndef NDEBUG
      CheckSkipped(vas, region, offset, len);
#endif
      return TouchResult{};
    }
    return TouchAndExtend(vas, region, offset, len);
  }

  // True when a write touch of [offset, offset + len) would be skipped.
  bool Covers(const VirtualAddressSpace& vas, uint64_t offset, uint64_t len) const {
    return epoch_ == vas.residency_epoch() && offset >= lo_ && offset + len <= hi_;
  }

 private:
  TouchResult TouchAndExtend(VirtualAddressSpace* vas, RegionId region, uint64_t offset,
                             uint64_t len);
#ifndef NDEBUG
  // Debug self-check: aborts unless every page of a skipped touch is
  // resident and no listener would have seen it.
  static void CheckSkipped(const VirtualAddressSpace* vas, RegionId region, uint64_t offset,
                           uint64_t len);
#endif

  uint64_t lo_ = 0;
  uint64_t hi_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace desiccant

#endif  // DESICCANT_SRC_HEAP_TOUCH_WATERMARK_H_
