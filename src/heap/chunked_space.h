// V8-style spaces built from discontiguous 256 KiB chunks.
//
// Every chunk is its own mapped region whose first 4 KiB page holds
// self-describing metadata and can never be released (§4.4: "chunks in V8
// contain self-described metadata on their first page (4KB), which cannot be
// released. Nevertheless, unmapping other pages in the chunk already releases
// most memory resources").
#ifndef DESICCANT_SRC_HEAP_CHUNKED_SPACE_H_
#define DESICCANT_SRC_HEAP_CHUNKED_SPACE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/heap/object.h"
#include "src/heap/touch_watermark.h"
#include "src/os/virtual_memory.h"

namespace desiccant {

inline constexpr uint64_t kChunkMetadataBytes = kPageSize;
inline constexpr uint64_t kChunkDataBytes = kChunkSize - kChunkMetadataBytes;

struct FreeRange {
  uint64_t offset = 0;  // within the chunk region
  uint64_t size = 0;
};

// One 256 KiB chunk: a region plus allocation bookkeeping. Spaces park a
// chunk they give back instead of deleting it: Unmap() returns the region to
// the OS, and Map() later maps a fresh region into the same object, reusing
// its object and free-range storage.
class Chunk {
 public:
  // Maps the chunk's region, named `prefix` + `ordinal` in smaps.
  Chunk(VirtualAddressSpace* vas, std::string_view prefix,
        uint64_t ordinal = VirtualAddressSpace::kNoOrdinal);
  ~Chunk();

  // Maps a fresh region for a parked (unmapped) chunk; the chunk is then
  // indistinguishable from a newly constructed one.
  void Map(std::string_view prefix, uint64_t ordinal);
  // Unmaps the region; the chunk must be empty.
  void Unmap();

  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;

  // Linear allocation (new space and fresh old-space chunks).
  bool BumpAllocate(SimObject* obj, TouchResult* faults);
  // Bump-allocates `count` objects back-to-back with one merged page touch
  // (`total` = sum of sizes; caller checked `bump() + total <= kChunkSize`).
  // Per-page fault accounting makes the merged touch bit-exact with `count`
  // BumpAllocate calls.
  void BumpAllocateSpan(SimObject* const* objs, size_t count, uint64_t total,
                        TouchResult* faults);
  // Free-list allocation (swept old-space chunks). First fit.
  bool FreeListAllocate(SimObject* obj, TouchResult* faults);

  // Rebuilds the free ranges from the current live-object set and resets the
  // bump cursor to the end (all future allocation goes through free ranges).
  void RebuildFreeRanges();

  // Releases whole free pages inside free ranges (and the bump tail), never
  // the metadata page. Returns pages released.
  uint64_t ReleaseFreePages();

  uint64_t ResidentBytes() const;
  uint64_t FreeBytes() const;

  bool empty() const { return objects_.empty(); }
  std::vector<SimObject*>& objects() { return objects_; }
  const std::vector<SimObject*>& objects() const { return objects_; }
  RegionId region() const { return region_; }
  VirtualAddressSpace* vas() const { return vas_; }
  uint64_t bump() const { return bump_; }
  void ResetBump();
  const TouchWatermark& touched() const { return touched_; }

 private:
  VirtualAddressSpace* vas_;
  RegionId region_;
  TouchWatermark touched_;
  uint64_t bump_ = kChunkMetadataBytes;
  std::vector<FreeRange> free_ranges_;  // sorted by offset
  std::vector<SimObject*> objects_;
};

// A growable/shrinkable set of chunks with a linear allocation cursor: one
// V8 semispace. Chunks are mapped lazily as the cursor reaches them.
class Semispace {
 public:
  Semispace(std::string name, VirtualAddressSpace* vas, uint64_t capacity_bytes);

  // Growing is legal at any time; shrinking requires that every object (and
  // the bump cursor) fits within the new capacity. Shrinking unmaps the
  // now-excess chunks. Returns false if a shrink cannot be honoured.
  bool SetCapacity(uint64_t capacity_bytes);

  bool Allocate(SimObject* obj, TouchResult* faults);
  bool CanAllocate(uint32_t size) const;

  // True when a whole `total`-byte span fits the current cursor chunk (the
  // only placement where a batch matches per-object allocation exactly: no
  // tail-waste skip, no chunk advance). Maps the cursor chunk lazily if the
  // cursor already points past the mapped set — the per-object path would map
  // it for the next allocation anyway, in the same order.
  bool CanAllocateSpan(uint64_t total);
  // Places `count` objects in the cursor chunk with one merged touch. Caller
  // must have checked CanAllocateSpan(total).
  void AllocateSpan(SimObject* const* objs, size_t count, uint64_t total,
                    TouchResult* faults);

  // Drops all objects (they were copied out or died). Keeps pages resident —
  // that is the point: dead semispace bytes linger until someone releases them.
  void Reset();

  // madvise away every resident data page of every mapped chunk (metadata
  // pages stay). Returns pages released.
  uint64_t ReleaseAllDataPages();

  // madvise away the *free* data pages: [bump, end) of each mapped chunk.
  // Used by Desiccant's reclaim on the populated from-space.
  uint64_t ReleaseFreeTailPages();

  uint64_t used_bytes() const;
  uint64_t capacity() const { return capacity_; }
  uint64_t CommittedBytes() const { return chunks_.size() * kChunkSize; }
  uint64_t ResidentBytes() const;

  std::vector<std::unique_ptr<Chunk>>& chunks() { return chunks_; }
  const std::vector<std::unique_ptr<Chunk>>& chunks() const { return chunks_; }

 private:
  void EnsureChunk();

  std::string chunk_prefix_;  // "<name>/chunk"
  VirtualAddressSpace* vas_;
  uint64_t capacity_;
  size_t cursor_ = 0;  // index of the chunk being bump-allocated
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::unique_ptr<Chunk>> parked_;  // unmapped, ready for reuse
  uint64_t chunk_name_counter_ = 0;
};

// The V8 old space: mark-sweep over chunks with per-chunk free lists. Empty
// chunks are unmapped (returned to the OS) by the shrink path.
class ChunkedOldSpace {
 public:
  ChunkedOldSpace(std::string name, VirtualAddressSpace* vas);

  // Allocates from free lists first, then bump space, then grows by mapping a
  // new chunk (V8 expands the old generation when no free chunks are left).
  void Allocate(SimObject* obj, TouchResult* faults);

  struct SweepResult {
    uint64_t dead_objects = 0;
    uint64_t dead_bytes = 0;
    uint64_t empty_chunks = 0;
    uint64_t chunk_count = 0;
  };
  // Frees every object not marked with `epoch` back to `pool` and rebuilds
  // free lists. Does not release any page by itself. Survivors keep their
  // epoch stamp; it goes stale when the runtime bumps its epoch.
  SweepResult Sweep(ObjectPool* pool, uint32_t epoch);

  // V8's shrink path: unmap chunks that hold no live objects. Returns bytes
  // given back to the OS.
  uint64_t ReleaseEmptyChunks();

  // Desiccant's addition: release free pages inside *partially used* chunks.
  uint64_t ReleaseFreePagesInChunks();

  uint64_t CommittedBytes() const { return chunks_.size() * kChunkSize; }
  uint64_t ResidentBytes() const;
  uint64_t used_bytes() const { return used_bytes_; }

  std::vector<std::unique_ptr<Chunk>>& chunks() { return chunks_; }
  const std::vector<std::unique_ptr<Chunk>>& chunks() const { return chunks_; }

  template <typename Visitor>
  void ForEachObject(Visitor&& visit) {
    for (auto& chunk : chunks_) {
      for (SimObject* obj : chunk->objects()) {
        visit(obj);
      }
    }
  }

 private:
  std::string chunk_prefix_;  // "<name>/chunk"
  VirtualAddressSpace* vas_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::unique_ptr<Chunk>> parked_;  // unmapped, ready for reuse
  uint64_t used_bytes_ = 0;
  uint64_t chunk_name_counter_ = 0;
};

// Large-object space: objects above the regular-object limit get dedicated
// page-aligned regions.
class LargeObjectSpace {
 public:
  LargeObjectSpace(std::string name, VirtualAddressSpace* vas);

  void Allocate(SimObject* obj, TouchResult* faults);

  struct SweepResult {
    uint64_t dead_objects = 0;
    uint64_t dead_bytes = 0;
  };
  // Unmaps regions of objects not marked with `epoch` (large-object death
  // always returns the memory). Compacts the entry list in place — no
  // allocation.
  SweepResult Sweep(ObjectPool* pool, uint32_t epoch);

  uint64_t CommittedBytes() const;
  uint64_t ResidentBytes() const;
  uint64_t used_bytes() const { return used_bytes_; }
  size_t object_count() const { return entries_.size(); }

  template <typename Visitor>
  void ForEachObject(Visitor&& visit) {
    for (auto& e : entries_) {
      visit(e.object);
    }
  }

 private:
  struct Entry {
    SimObject* object = nullptr;
    RegionId region = kInvalidRegionId;
  };

  std::string region_prefix_;  // "<name>/lo"
  VirtualAddressSpace* vas_;
  std::vector<Entry> entries_;
  uint64_t used_bytes_ = 0;
  uint64_t region_name_counter_ = 0;
};

inline constexpr uint32_t kMaxRegularObjectSize = 128 * kKiB;

}  // namespace desiccant

#endif  // DESICCANT_SRC_HEAP_CHUNKED_SPACE_H_
