#include "src/heap/chunked_space.h"

#include <algorithm>
#include <cassert>

namespace desiccant {

namespace {

void AccumulateTouch(TouchResult* into, const TouchResult& t) { into->Accumulate(t); }

// Maps a chunk, reusing a parked one when there is one.
std::unique_ptr<Chunk> TakeChunk(std::vector<std::unique_ptr<Chunk>>& parked,
                                 VirtualAddressSpace* vas, std::string_view prefix,
                                 uint64_t ordinal) {
  if (parked.empty()) {
    return std::make_unique<Chunk>(vas, prefix, ordinal);
  }
  std::unique_ptr<Chunk> chunk = std::move(parked.back());
  parked.pop_back();
  chunk->Map(prefix, ordinal);
  return chunk;
}

// Unmaps an empty chunk and keeps the object for the next TakeChunk.
void ParkChunk(std::unique_ptr<Chunk> chunk, std::vector<std::unique_ptr<Chunk>>& parked) {
  chunk->Unmap();
  parked.push_back(std::move(chunk));
}

}  // namespace

// ---------------------------------------------------------------------------
// Chunk

Chunk::Chunk(VirtualAddressSpace* vas, std::string_view prefix, uint64_t ordinal)
    : vas_(vas), region_(kInvalidRegionId) {
  Map(prefix, ordinal);
}

Chunk::~Chunk() {
  if (region_ != kInvalidRegionId) {
    vas_->Unmap(region_);
  }
}

void Chunk::Map(std::string_view prefix, uint64_t ordinal) {
  assert(region_ == kInvalidRegionId);
  region_ = vas_->MapAnonymous(prefix, kChunkSize, ordinal);
  touched_ = TouchWatermark();
  bump_ = kChunkMetadataBytes;
  free_ranges_.clear();
  objects_.clear();
  // The metadata page is written when the chunk is wired up.
  touched_.WriteTouch(vas_, region_, 0, kChunkMetadataBytes);
}

void Chunk::Unmap() {
  assert(objects_.empty());
  vas_->Unmap(region_);
  region_ = kInvalidRegionId;
}

bool Chunk::BumpAllocate(SimObject* obj, TouchResult* faults) {
  if (bump_ + obj->size > kChunkSize) {
    return false;
  }
  obj->address = bump_;
  AccumulateTouch(faults, touched_.WriteTouch(vas_, region_, bump_, obj->size));
  bump_ += obj->size;
  objects_.push_back(obj);
  return true;
}

void Chunk::BumpAllocateSpan(SimObject* const* objs, size_t count, uint64_t total,
                             TouchResult* faults) {
  assert(bump_ + total <= kChunkSize);
  AccumulateTouch(faults, touched_.WriteTouch(vas_, region_, bump_, total));
  for (size_t i = 0; i < count; ++i) {
    objs[i]->address = bump_;
    bump_ += objs[i]->size;
    objects_.push_back(objs[i]);
  }
}

bool Chunk::FreeListAllocate(SimObject* obj, TouchResult* faults) {
  for (size_t i = 0; i < free_ranges_.size(); ++i) {
    FreeRange& range = free_ranges_[i];
    if (range.size >= obj->size) {
      obj->address = range.offset;
      AccumulateTouch(faults, touched_.WriteTouch(vas_, region_, range.offset, obj->size));
      range.offset += obj->size;
      range.size -= obj->size;
      if (range.size == 0) {
        free_ranges_.erase(free_ranges_.begin() + static_cast<ptrdiff_t>(i));
      }
      objects_.push_back(obj);
      return true;
    }
  }
  return BumpAllocate(obj, faults);
}

void Chunk::RebuildFreeRanges() {
  std::sort(objects_.begin(), objects_.end(),
            [](const SimObject* a, const SimObject* b) { return a->address < b->address; });
  free_ranges_.clear();
  uint64_t cursor = kChunkMetadataBytes;
  for (const SimObject* obj : objects_) {
    if (obj->address > cursor) {
      free_ranges_.push_back({cursor, obj->address - cursor});
    }
    cursor = obj->address + obj->size;
  }
  if (cursor < kChunkSize) {
    free_ranges_.push_back({cursor, kChunkSize - cursor});
  }
  bump_ = kChunkSize;  // all future allocation goes through the free list
}

uint64_t Chunk::ReleaseFreePages() {
  uint64_t released = 0;
  if (bump_ < kChunkSize) {
    released += vas_->Release(region_, bump_, kChunkSize - bump_);
  }
  for (const FreeRange& range : free_ranges_) {
    // Never the metadata page.
    const uint64_t start = std::max(range.offset, kChunkMetadataBytes);
    if (start < range.offset + range.size) {
      released += vas_->Release(region_, start, range.offset + range.size - start);
    }
  }
  return released;
}

uint64_t Chunk::ResidentBytes() const {
  // A chunk is its own region, so the O(1) per-region counters apply.
  return PagesToBytes(vas_->ResidentPagesInRegion(region_));
}

uint64_t Chunk::FreeBytes() const {
  uint64_t free = kChunkSize - bump_;
  for (const FreeRange& range : free_ranges_) {
    free += range.size;
  }
  return free;
}

void Chunk::ResetBump() {
  bump_ = kChunkMetadataBytes;
  free_ranges_.clear();
}

// ---------------------------------------------------------------------------
// Semispace

Semispace::Semispace(std::string name, VirtualAddressSpace* vas, uint64_t capacity_bytes)
    : chunk_prefix_(std::move(name) + "/chunk"), vas_(vas), capacity_(capacity_bytes) {
  assert(capacity_bytes % kChunkSize == 0);
}

bool Semispace::SetCapacity(uint64_t capacity_bytes) {
  assert(capacity_bytes % kChunkSize == 0);
  const size_t max_chunks = capacity_bytes / kChunkSize;
  if (capacity_bytes < capacity_) {
    // Shrink: every populated chunk (and the cursor) must fit.
    size_t populated = 0;
    for (size_t i = 0; i < chunks_.size(); ++i) {
      if (!chunks_[i]->objects().empty() || chunks_[i]->bump() > kChunkMetadataBytes) {
        populated = i + 1;
      }
    }
    if (populated > max_chunks || cursor_ > max_chunks) {
      return false;
    }
    while (chunks_.size() > max_chunks) {
      ParkChunk(std::move(chunks_.back()), parked_);
      chunks_.pop_back();
    }
  }
  capacity_ = capacity_bytes;
  return true;
}

bool Semispace::Allocate(SimObject* obj, TouchResult* faults) {
  assert(obj->size <= kChunkDataBytes);
  while (true) {
    if (cursor_ >= capacity_ / kChunkSize) {
      return false;  // semispace exhausted
    }
    if (cursor_ >= chunks_.size()) {
      EnsureChunk();
    }
    if (chunks_[cursor_]->BumpAllocate(obj, faults)) {
      obj->owner = static_cast<uint32_t>(cursor_);
      return true;
    }
    ++cursor_;  // tail waste: the remainder of this chunk is skipped
  }
}

bool Semispace::CanAllocateSpan(uint64_t total) {
  if (cursor_ >= capacity_ / kChunkSize) {
    return false;
  }
  if (cursor_ >= chunks_.size()) {
    EnsureChunk();
  }
  return chunks_[cursor_]->bump() + total <= kChunkSize;
}

void Semispace::AllocateSpan(SimObject* const* objs, size_t count, uint64_t total,
                             TouchResult* faults) {
  assert(cursor_ < chunks_.size());
  chunks_[cursor_]->BumpAllocateSpan(objs, count, total, faults);
  for (size_t i = 0; i < count; ++i) {
    objs[i]->owner = static_cast<uint32_t>(cursor_);
  }
}

bool Semispace::CanAllocate(uint32_t size) const {
  if (cursor_ < chunks_.size() && chunks_[cursor_]->bump() + size <= kChunkSize) {
    return true;
  }
  // Room to move to (or map) a later chunk?
  return (cursor_ + 1) < capacity_ / kChunkSize ||
         (cursor_ < capacity_ / kChunkSize && cursor_ >= chunks_.size());
}

void Semispace::Reset() {
  for (auto& chunk : chunks_) {
    chunk->objects().clear();
    chunk->ResetBump();
  }
  cursor_ = 0;
}

uint64_t Semispace::ReleaseAllDataPages() {
  uint64_t released = 0;
  for (auto& chunk : chunks_) {
    released += chunk->vas()->Release(chunk->region(), kChunkMetadataBytes, kChunkDataBytes);
  }
  return released;
}

uint64_t Semispace::ReleaseFreeTailPages() {
  uint64_t released = 0;
  for (auto& chunk : chunks_) {
    if (chunk->bump() < kChunkSize) {
      released += chunk->vas()->Release(chunk->region(), chunk->bump(),
                                        kChunkSize - chunk->bump());
    }
  }
  return released;
}

uint64_t Semispace::used_bytes() const {
  uint64_t used = 0;
  for (const auto& chunk : chunks_) {
    for (const SimObject* obj : chunk->objects()) {
      used += obj->size;
    }
  }
  return used;
}

uint64_t Semispace::ResidentBytes() const {
  uint64_t resident = 0;
  for (const auto& chunk : chunks_) {
    resident += chunk->ResidentBytes();
  }
  return resident;
}

void Semispace::EnsureChunk() {
  chunks_.push_back(TakeChunk(parked_, vas_, chunk_prefix_, chunk_name_counter_++));
}

// ---------------------------------------------------------------------------
// ChunkedOldSpace

ChunkedOldSpace::ChunkedOldSpace(std::string name, VirtualAddressSpace* vas)
    : chunk_prefix_(std::move(name) + "/chunk"), vas_(vas) {}

void ChunkedOldSpace::Allocate(SimObject* obj, TouchResult* faults) {
  assert(obj->size <= kChunkDataBytes);
  for (auto& chunk : chunks_) {
    if (chunk->FreeListAllocate(obj, faults)) {
      obj->owner = static_cast<uint32_t>(&chunk - chunks_.data());
      used_bytes_ += obj->size;
      return;
    }
  }
  chunks_.push_back(TakeChunk(parked_, vas_, chunk_prefix_, chunk_name_counter_++));
  const bool ok = chunks_.back()->BumpAllocate(obj, faults);
  assert(ok);
  (void)ok;
  obj->owner = static_cast<uint32_t>(chunks_.size() - 1);
  used_bytes_ += obj->size;
}

ChunkedOldSpace::SweepResult ChunkedOldSpace::Sweep(ObjectPool* pool, uint32_t epoch) {
  SweepResult result;
  for (auto& chunk : chunks_) {
    auto& objs = chunk->objects();
    auto keep_end = std::partition(objs.begin(), objs.end(), [epoch](const SimObject* o) {
      return o->mark_epoch == epoch;
    });
    for (auto it = keep_end; it != objs.end(); ++it) {
      ++result.dead_objects;
      result.dead_bytes += (*it)->size;
      used_bytes_ -= (*it)->size;
      pool->Free(*it);
    }
    objs.erase(keep_end, objs.end());
    chunk->RebuildFreeRanges();
    if (chunk->empty()) {
      ++result.empty_chunks;
    }
  }
  result.chunk_count = chunks_.size();
  return result;
}

uint64_t ChunkedOldSpace::ReleaseEmptyChunks() {
  uint64_t released_bytes = 0;
  auto keep_end = std::partition(chunks_.begin(), chunks_.end(),
                                 [](const std::unique_ptr<Chunk>& c) { return !c->empty(); });
  for (auto it = keep_end; it != chunks_.end(); ++it) {
    released_bytes += kChunkSize;
    ParkChunk(std::move(*it), parked_);
  }
  chunks_.erase(keep_end, chunks_.end());
  // Chunk indices changed; refresh owners.
  for (size_t i = 0; i < chunks_.size(); ++i) {
    for (SimObject* obj : chunks_[i]->objects()) {
      obj->owner = static_cast<uint32_t>(i);
    }
  }
  return released_bytes;
}

uint64_t ChunkedOldSpace::ReleaseFreePagesInChunks() {
  uint64_t released = 0;
  for (auto& chunk : chunks_) {
    released += chunk->ReleaseFreePages();
  }
  return released;
}

uint64_t ChunkedOldSpace::ResidentBytes() const {
  uint64_t resident = 0;
  for (const auto& chunk : chunks_) {
    resident += chunk->ResidentBytes();
  }
  return resident;
}

// ---------------------------------------------------------------------------
// LargeObjectSpace

LargeObjectSpace::LargeObjectSpace(std::string name, VirtualAddressSpace* vas)
    : region_prefix_(std::move(name) + "/lo"), vas_(vas) {}

void LargeObjectSpace::Allocate(SimObject* obj, TouchResult* faults) {
  Entry entry;
  entry.object = obj;
  entry.region = vas_->MapAnonymous(region_prefix_, PageAlignUp(obj->size) + kChunkMetadataBytes,
                                    region_name_counter_++);
  obj->address = kChunkMetadataBytes;
  AccumulateTouch(faults, vas_->Touch(entry.region, 0, kChunkMetadataBytes + obj->size,
                                      /*write=*/true));
  used_bytes_ += obj->size;
  entries_.push_back(entry);
}

LargeObjectSpace::SweepResult LargeObjectSpace::Sweep(ObjectPool* pool, uint32_t epoch) {
  SweepResult result;
  size_t keep = 0;
  for (Entry& e : entries_) {
    if (e.object->mark_epoch == epoch) {
      entries_[keep++] = e;
    } else {
      ++result.dead_objects;
      result.dead_bytes += e.object->size;
      used_bytes_ -= e.object->size;
      vas_->Unmap(e.region);
      pool->Free(e.object);
    }
  }
  entries_.resize(keep);
  return result;
}

uint64_t LargeObjectSpace::CommittedBytes() const {
  uint64_t committed = 0;
  for (const Entry& e : entries_) {
    committed += vas_->RegionSizeBytes(e.region);
  }
  return committed;
}

uint64_t LargeObjectSpace::ResidentBytes() const {
  uint64_t resident = 0;
  for (const Entry& e : entries_) {
    resident += PagesToBytes(vas_->ResidentPagesInRegion(e.region));
  }
  return resident;
}

}  // namespace desiccant
