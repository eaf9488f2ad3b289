// A contiguous bump-allocation space inside a reserved heap region
// (HotSpot-style eden / survivor / old spaces).
#ifndef DESICCANT_SRC_HEAP_CONTIGUOUS_SPACE_H_
#define DESICCANT_SRC_HEAP_CONTIGUOUS_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/heap/object.h"
#include "src/heap/touch_watermark.h"
#include "src/os/virtual_memory.h"

namespace desiccant {

class ContiguousSpace {
 public:
  ContiguousSpace(std::string name, VirtualAddressSpace* vas, RegionId region);

  // (Re)positions the space at [base, base + capacity) within the region.
  // Resizing never moves live data; callers resize only when safe.
  void SetBounds(uint64_t base, uint64_t capacity);

  // Tries to bump-allocate `obj->size` bytes for `obj`, touching the pages it
  // spans and accumulating faults into `faults`. Returns false when full.
  bool Allocate(SimObject* obj, TouchResult* faults);

  bool CanAllocate(uint32_t size) const { return top_ + size <= base_ + capacity_; }
  bool CanAllocateSpan(uint64_t total) const { return top_ + total <= base_ + capacity_; }

  // Bump-allocates `count` objects back-to-back with a single page touch over
  // the merged span (`total` must be the sum of the objects' sizes). The
  // touch covers exactly the union of the pages the per-object touches would
  // hit, and page-fault accounting is per page, so the accumulated faults are
  // bit-exact with `count` Allocate calls. Caller must have checked
  // CanAllocateSpan(total).
  void AllocateSpan(SimObject* const* objs, size_t count, uint64_t total,
                    TouchResult* faults);

  // Accepts an object copied in from another space (same bump path).
  bool CopyIn(SimObject* obj, TouchResult* faults) { return Allocate(obj, faults); }

  // Forgets all objects (after they were copied out or died). Does not touch
  // page states: dead bytes stay resident, exactly the frozen-garbage effect.
  void Reset();

  // Gives [top, base + capacity) back to the OS. Returns pages released.
  uint64_t ReleaseFreePages();

  // Gives the entire space's pages back to the OS (used for the inactive
  // semispace). Returns pages released.
  uint64_t ReleaseAllPages();

  uint64_t used_bytes() const { return top_ - base_; }
  uint64_t free_bytes() const { return base_ + capacity_ - top_; }
  uint64_t capacity() const { return capacity_; }
  uint64_t base() const { return base_; }
  uint64_t top() const { return top_; }
  const std::string& name() const { return name_; }

  std::vector<SimObject*>& objects() { return objects_; }
  const std::vector<SimObject*>& objects() const { return objects_; }

  uint64_t ResidentBytes() const;
  const TouchWatermark& touched() const { return touched_; }

 private:
  std::string name_;
  VirtualAddressSpace* vas_;
  RegionId region_;
  TouchWatermark touched_;
  uint64_t base_ = 0;
  uint64_t capacity_ = 0;
  uint64_t top_ = 0;
  std::vector<SimObject*> objects_;
};

}  // namespace desiccant

#endif  // DESICCANT_SRC_HEAP_CONTIGUOUS_SPACE_H_
