#include "src/heap/contiguous_space.h"

#include <cassert>

namespace desiccant {

ContiguousSpace::ContiguousSpace(std::string name, VirtualAddressSpace* vas, RegionId region)
    : name_(std::move(name)), vas_(vas), region_(region) {}

void ContiguousSpace::SetBounds(uint64_t base, uint64_t capacity) {
  assert(objects_.empty() || (base <= base_ && base_ + used_bytes() <= base + capacity));
  const uint64_t used = objects_.empty() ? 0 : used_bytes();
  base_ = base;
  capacity_ = capacity;
  top_ = base_ + used;
}

bool ContiguousSpace::Allocate(SimObject* obj, TouchResult* faults) {
  if (!CanAllocate(obj->size)) {
    return false;
  }
  obj->address = top_;
  faults->Accumulate(touched_.WriteTouch(vas_, region_, top_, obj->size));
  top_ += obj->size;
  objects_.push_back(obj);
  return true;
}

void ContiguousSpace::AllocateSpan(SimObject* const* objs, size_t count, uint64_t total,
                                   TouchResult* faults) {
  assert(CanAllocateSpan(total));
#ifndef NDEBUG
  uint64_t check = 0;
  for (size_t i = 0; i < count; ++i) {
    check += objs[i]->size;
  }
  assert(check == total);
#endif
  faults->Accumulate(touched_.WriteTouch(vas_, region_, top_, total));
  for (size_t i = 0; i < count; ++i) {
    objs[i]->address = top_;
    top_ += objs[i]->size;
    objects_.push_back(objs[i]);
  }
}

void ContiguousSpace::Reset() {
  objects_.clear();
  top_ = base_;
}

uint64_t ContiguousSpace::ReleaseFreePages() {
  if (top_ >= base_ + capacity_) {
    return 0;
  }
  return vas_->Release(region_, top_, base_ + capacity_ - top_);
}

uint64_t ContiguousSpace::ReleaseAllPages() {
  if (capacity_ == 0) {
    return 0;
  }
  return vas_->Release(region_, base_, capacity_);
}

uint64_t ContiguousSpace::ResidentBytes() const {
  if (capacity_ == 0) {
    return 0;
  }
  return PagesToBytes(vas_->ResidentPagesInRange(region_, base_, capacity_));
}

}  // namespace desiccant
