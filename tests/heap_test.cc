// Unit + property tests for the heap building blocks.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/heap/chunked_space.h"
#include "src/heap/contiguous_space.h"
#include "src/heap/marker.h"
#include "src/heap/object.h"
#include "src/heap/roots.h"
#include "src/heap/touch_watermark.h"
#include "src/os/physical_memory.h"
#include "src/snapshot/working_set.h"

namespace desiccant {
namespace {

// ---------------------------------------------------------------------------
// ObjectPool

TEST(ObjectPoolTest, NewAndFree) {
  ObjectPool pool;
  SimObject* a = pool.New(128);
  EXPECT_EQ(a->size, 128u);
  EXPECT_EQ(pool.live_count(), 1u);
  pool.Free(a);
  EXPECT_EQ(pool.live_count(), 0u);
}

TEST(ObjectPoolTest, RecyclesNodes) {
  ObjectPool pool;
  SimObject* a = pool.New(128);
  a->age = 7;
  a->mark_epoch = 5;
  pool.Free(a);
  SimObject* b = pool.New(64);
  EXPECT_EQ(a, b);  // node reused
  EXPECT_EQ(b->age, 0);
  EXPECT_EQ(b->mark_epoch, 0u);
  EXPECT_EQ(b->size, 64u);
}

#ifndef NDEBUG
TEST(ObjectPoolDeathTest, DoubleFreeIsCaught) {
  ObjectPool pool;
  SimObject* a = pool.New(128);
  pool.Free(a);
  EXPECT_DEATH(pool.Free(a), "poisoned");
}

TEST(ObjectPoolDeathTest, TracingFreedObjectIsCaught) {
  ObjectPool pool;
  RootTable roots;
  SimObject* parent = pool.New(64);
  SimObject* child = pool.New(32);
  parent->AddRef(child);
  roots.Create(parent);
  pool.Free(child);  // dangling edge: parent still references the freed node
  Marker marker;
  EXPECT_DEATH(marker.MarkFrom({&roots}, /*epoch=*/1), "freed");
}
#endif  // NDEBUG

TEST(SimObjectTest, RefSlotsCap) {
  ObjectPool pool;
  SimObject* parent = pool.New(64);
  for (int i = 0; i < SimObject::kMaxRefs; ++i) {
    EXPECT_TRUE(parent->AddRef(pool.New(32)));
  }
  EXPECT_FALSE(parent->AddRef(pool.New(32)));
  EXPECT_EQ(parent->ref_count, SimObject::kMaxRefs);
  parent->ClearRefs();
  EXPECT_EQ(parent->ref_count, 0);
}

// ---------------------------------------------------------------------------
// RootTable

TEST(RootTableTest, CreateSetGetDestroy) {
  ObjectPool pool;
  RootTable table;
  SimObject* obj = pool.New(8);
  const RootTable::Handle h = table.Create(obj);
  EXPECT_EQ(table.Get(h), obj);
  table.Set(h, nullptr);
  EXPECT_EQ(table.Get(h), nullptr);
  table.Destroy(h);
  const RootTable::Handle h2 = table.Create(nullptr);
  EXPECT_EQ(h2, h);  // slot recycled
}

TEST(RootTableTest, ForEachSkipsNull) {
  ObjectPool pool;
  RootTable table;
  table.Create(pool.New(8));
  table.Create(nullptr);
  table.Create(pool.New(8));
  int visited = 0;
  table.ForEach([&visited](SimObject*) { ++visited; });
  EXPECT_EQ(visited, 2);
}

TEST(RootTableTest, ClearNullsAndRecycles) {
  ObjectPool pool;
  RootTable table;
  const RootTable::Handle h = table.Create(pool.New(8));
  table.Clear();
  EXPECT_EQ(table.Get(h), nullptr);
  EXPECT_FALSE(table.AnyNonNull());
  table.Create(pool.New(8));
  EXPECT_TRUE(table.AnyNonNull());
}

// ---------------------------------------------------------------------------
// Marker

TEST(MarkerTest, MarksTransitively) {
  ObjectPool pool;
  RootTable roots;
  SimObject* a = pool.New(100);
  SimObject* b = pool.New(200);
  SimObject* c = pool.New(300);
  SimObject* unreachable = pool.New(400);
  a->AddRef(b);
  b->AddRef(c);
  roots.Create(a);

  Marker marker;
  const MarkStats stats = marker.MarkFrom({&roots}, /*epoch=*/1);
  EXPECT_EQ(stats.live_objects, 3u);
  EXPECT_EQ(stats.live_bytes, 600u);
  EXPECT_TRUE(a->mark_epoch == 1u && b->mark_epoch == 1u && c->mark_epoch == 1u);
  EXPECT_EQ(unreachable->mark_epoch, 0u);
  // A later pass with a fresh epoch sees everything unmarked again — no
  // unmark sweep required.
  EXPECT_EQ(marker.MarkFrom({&roots}, /*epoch=*/2).live_objects, 3u);
  EXPECT_EQ(a->mark_epoch, 2u);
}

TEST(MarkerTest, HandlesCycles) {
  ObjectPool pool;
  RootTable roots;
  SimObject* a = pool.New(10);
  SimObject* b = pool.New(20);
  a->AddRef(b);
  b->AddRef(a);  // cycle
  roots.Create(a);
  Marker marker;
  const MarkStats stats = marker.MarkFrom({&roots}, /*epoch=*/1);
  EXPECT_EQ(stats.live_objects, 2u);
}

TEST(MarkerTest, SharedObjectCountedOnce) {
  ObjectPool pool;
  RootTable roots;
  SimObject* shared = pool.New(64);
  SimObject* a = pool.New(10);
  SimObject* b = pool.New(20);
  a->AddRef(shared);
  b->AddRef(shared);
  roots.Create(a);
  roots.Create(b);
  Marker marker;
  const MarkStats stats = marker.MarkFrom({&roots}, /*epoch=*/1);
  EXPECT_EQ(stats.live_objects, 3u);
  EXPECT_EQ(stats.live_bytes, 94u);
}

TEST(MarkerTest, MultipleTables) {
  ObjectPool pool;
  RootTable strong;
  RootTable weak;
  strong.Create(pool.New(1));
  weak.Create(pool.New(2));
  Marker marker;
  EXPECT_EQ(marker.MarkFrom({&strong, &weak}, /*epoch=*/1).live_objects, 2u);
}

// ---------------------------------------------------------------------------
// ContiguousSpace

class ContiguousSpaceTest : public ::testing::Test {
 protected:
  ContiguousSpaceTest() : vas_(nullptr) {
    region_ = vas_.MapAnonymous("heap", 8 * kMiB);
    space_ = std::make_unique<ContiguousSpace>("eden", &vas_, region_);
    space_->SetBounds(0, kMiB);
  }
  VirtualAddressSpace vas_;
  RegionId region_ = kInvalidRegionId;
  ObjectPool pool_;
  std::unique_ptr<ContiguousSpace> space_;
};

TEST_F(ContiguousSpaceTest, BumpAllocates) {
  TouchResult faults;
  SimObject* a = pool_.New(1000);
  ASSERT_TRUE(space_->Allocate(a, &faults));
  EXPECT_EQ(a->address, 0u);
  SimObject* b = pool_.New(500);
  ASSERT_TRUE(space_->Allocate(b, &faults));
  EXPECT_EQ(b->address, 1000u);
  EXPECT_EQ(space_->used_bytes(), 1500u);
  EXPECT_GT(faults.minor_faults, 0u);
}

TEST_F(ContiguousSpaceTest, RejectsWhenFull) {
  TouchResult faults;
  SimObject* big = pool_.New(kMiB);
  ASSERT_TRUE(space_->Allocate(big, &faults));
  SimObject* one_more = pool_.New(1);
  EXPECT_FALSE(space_->Allocate(one_more, &faults));
  EXPECT_FALSE(space_->CanAllocate(1));
}

TEST_F(ContiguousSpaceTest, ResetKeepsPagesResident) {
  TouchResult faults;
  space_->Allocate(pool_.New(512 * kKiB), &faults);
  const uint64_t resident_before = space_->ResidentBytes();
  space_->Reset();
  EXPECT_EQ(space_->used_bytes(), 0u);
  // Dead bytes stay resident: the frozen-garbage effect.
  EXPECT_EQ(space_->ResidentBytes(), resident_before);
}

TEST_F(ContiguousSpaceTest, ReleaseFreePages) {
  TouchResult faults;
  space_->Allocate(pool_.New(512 * kKiB), &faults);
  space_->Reset();
  EXPECT_EQ(space_->ReleaseFreePages(), 128u);  // 512 KiB / 4 KiB
  EXPECT_EQ(space_->ResidentBytes(), 0u);
}

TEST_F(ContiguousSpaceTest, ReleaseFreeKeepsUsedPrefix) {
  TouchResult faults;
  space_->Allocate(pool_.New(100 * kKiB), &faults);
  space_->ReleaseFreePages();
  // The used prefix stays resident (page-rounded).
  EXPECT_EQ(space_->ResidentBytes(), PageAlignUp(100 * kKiB));
}

TEST_F(ContiguousSpaceTest, SetBoundsPreservesContents) {
  TouchResult faults;
  space_->Allocate(pool_.New(64 * kKiB), &faults);
  space_->SetBounds(0, 2 * kMiB);  // grow in place
  EXPECT_EQ(space_->used_bytes(), 64 * kKiB);
  EXPECT_TRUE(space_->CanAllocate(kMiB));
}

// ---------------------------------------------------------------------------
// TouchWatermark: a bump space skips write touches of pages it has already
// seen resident-dirty. The skips must be invisible: a twin address space that
// receives the same operations as raw Touch calls must agree on every
// TouchResult, every page count and every usage figure.

// One side of the twin: a node, the heap's address space and a neighbour
// process on the same node whose faults drive node reclaim into the heap.
struct TwinSide {
  explicit TwinSide(const PhysicalMemoryConfig& config)
      : node(config), vas(nullptr, &node), neighbour(nullptr, &node) {
    heap = vas.MapAnonymous("heap", 512 * kKiB);
    other = neighbour.MapAnonymous("other", 512 * kKiB);
    neighbour.Touch(other, 0, 512 * kKiB, /*write=*/true);
  }
  PhysicalMemory node;
  VirtualAddressSpace vas;
  VirtualAddressSpace neighbour;
  RegionId heap = kInvalidRegionId;
  RegionId other = kInvalidRegionId;
};

// Emergency relief that releases a byte range of the heap region, so the
// residency epoch moves inside a Touch call.
class ReleaseRelief : public PressureReliefHandler {
 public:
  ReleaseRelief(VirtualAddressSpace* vas, RegionId region, const uint64_t* from)
      : vas_(vas), region_(region), from_(from) {}
  virtual ~ReleaseRelief() = default;
  bool RelievePressure() override {
    ++calls;
    return *from_ < 512 * kKiB && vas_->Release(region_, *from_, 512 * kKiB - *from_) != 0;
  }
  uint64_t calls = 0;

 private:
  VirtualAddressSpace* vas_;
  RegionId region_;
  const uint64_t* from_;
};

void ExpectSameTouch(const TouchResult& a, const TouchResult& b, int op) {
  EXPECT_EQ(a.minor_faults, b.minor_faults) << "op " << op;
  EXPECT_EQ(a.swap_ins, b.swap_ins) << "op " << op;
  EXPECT_EQ(a.cow_faults, b.cow_faults) << "op " << op;
  EXPECT_EQ(a.direct_reclaim_pages, b.direct_reclaim_pages) << "op " << op;
  EXPECT_EQ(a.failed_pages, b.failed_pages) << "op " << op;
}

void ExpectSameSide(const TwinSide& a, const TwinSide& b, int op) {
  const MemoryUsage ua = a.vas.Usage();
  const MemoryUsage ub = b.vas.Usage();
  ASSERT_EQ(ua.rss, ub.rss) << "op " << op;
  ASSERT_EQ(ua.uss, ub.uss) << "op " << op;
  ASSERT_EQ(ua.pss, ub.pss) << "op " << op;
  ASSERT_EQ(ua.swapped, ub.swapped) << "op " << op;
  ASSERT_EQ(a.vas.ResidentPagesInRegion(a.heap), b.vas.ResidentPagesInRegion(b.heap))
      << "op " << op;
  ASSERT_EQ(a.neighbour.resident_pages(), b.neighbour.resident_pages()) << "op " << op;
  ASSERT_EQ(a.vas.commit_denied(), b.vas.commit_denied()) << "op " << op;
  ASSERT_EQ(a.node.total_resident_pages(), b.node.total_resident_pages()) << "op " << op;
  ASSERT_EQ(a.node.swap().used_pages, b.node.swap().used_pages) << "op " << op;
  ASSERT_EQ(a.node.stats().direct_reclaim_pages, b.node.stats().direct_reclaim_pages)
      << "op " << op;
  ASSERT_EQ(a.node.stats().kswapd_pages, b.node.stats().kswapd_pages) << "op " << op;
  ASSERT_EQ(a.node.stats().commit_failures, b.node.stats().commit_failures) << "op " << op;
}

struct TwinCounts {
  uint64_t allocations = 0;
  uint64_t skipped = 0;
  uint64_t reliefs = 0;
  uint64_t reclaimed = 0;       // by direct SwapOutPagesLimited calls
  uint64_t node_reclaimed = 0;  // by the node's kswapd / direct reclaim
};

// Side A runs a watermarked ContiguousSpace (heap region) and Chunk (own
// region); side B replays the same touches raw. Operations: single and span
// allocations, chunk bump allocations, Release / Protect of sub-ranges,
// SwapOutPages, node-reclaim SwapOutPagesLimited, neighbour faults under the
// node budget, and chunk unmap/remap.
TwinCounts RunWatermarkTwin(uint64_t seed, const PhysicalMemoryConfig& config) {
  TwinSide a(config);
  TwinSide b(config);
  ObjectPool pool;
  ContiguousSpace space("eden", &a.vas, a.heap);
  space.SetBounds(0, 512 * kKiB);
  uint64_t top_b = 0;
  auto chunk = std::make_unique<Chunk>(&a.vas, "chunk");
  RegionId chunk_b = b.vas.MapAnonymous("chunk", kChunkSize);
  b.vas.Touch(chunk_b, 0, kChunkMetadataBytes, /*write=*/true);
  uint64_t bump_b = kChunkMetadataBytes;
  // Relief releases the heap above the allocation in flight on both sides.
  uint64_t top_a = 0;
  ReleaseRelief relief_a(&a.vas, a.heap, &top_a);
  ReleaseRelief relief_b(&b.vas, b.heap, &top_b);
  a.vas.set_relief_handler(&relief_a);
  b.vas.set_relief_handler(&relief_b);

  TwinCounts counts;
  Rng rng(seed);
  for (int op = 0; op < 6000; ++op) {
    const uint64_t kind = rng.UniformU64(0, 999);
    TouchResult ta;
    TouchResult tb;
    if (kind < 500) {
      const auto size = static_cast<uint32_t>(rng.UniformU64(16, 3000));
      if (!space.CanAllocate(size)) {
        space.Reset();
        top_a = top_b = 0;
      }
      counts.skipped += space.touched().Covers(a.vas, space.top(), size);
      ++counts.allocations;
      top_a = space.top() + size;
      EXPECT_TRUE(space.Allocate(pool.New(size), &ta));
      top_b += size;
      tb = b.vas.Touch(b.heap, top_b - size, size, /*write=*/true);
    } else if (kind < 600) {
      SimObject* objs[8];
      const size_t n = rng.UniformU64(1, 8);
      uint64_t total = 0;
      for (size_t i = 0; i < n; ++i) {
        objs[i] = pool.New(static_cast<uint32_t>(rng.UniformU64(16, 2000)));
        total += objs[i]->size;
      }
      if (!space.CanAllocateSpan(total)) {
        space.Reset();
        top_a = top_b = 0;
      }
      counts.skipped += space.touched().Covers(a.vas, space.top(), total);
      ++counts.allocations;
      top_a = space.top() + total;
      space.AllocateSpan(objs, n, total, &ta);
      top_b += total;
      tb = b.vas.Touch(b.heap, top_b - total, total, /*write=*/true);
    } else if (kind < 800) {
      const auto size = static_cast<uint32_t>(rng.UniformU64(16, 3000));
      if (chunk->bump() + size > kChunkSize) {
        chunk->objects().clear();
        chunk->ResetBump();
        bump_b = kChunkMetadataBytes;
      }
      counts.skipped += chunk->touched().Covers(a.vas, chunk->bump(), size);
      ++counts.allocations;
      EXPECT_TRUE(chunk->BumpAllocate(pool.New(size), &ta));
      tb = b.vas.Touch(chunk_b, bump_b, size, /*write=*/true);
      bump_b += size;
    } else if (kind < 810) {
      const uint64_t offset = rng.UniformU64(0, 512 * kKiB - 1);
      const uint64_t len = rng.UniformU64(1, std::min<uint64_t>(32 * kKiB, 512 * kKiB - offset));
      EXPECT_EQ(a.vas.Release(a.heap, offset, len), b.vas.Release(b.heap, offset, len));
    } else if (kind < 815) {
      const uint64_t offset = rng.UniformU64(0, kChunkSize - 1);
      const uint64_t len = rng.UniformU64(1, std::min<uint64_t>(32 * kKiB, kChunkSize - offset));
      EXPECT_EQ(a.vas.Protect(chunk->region(), offset, len),
                b.vas.Protect(chunk_b, offset, len));
    } else if (kind < 820) {
      const uint64_t pages = rng.UniformU64(1, 16);
      EXPECT_EQ(a.vas.SwapOutPages(pages), b.vas.SwapOutPages(pages));
    } else if (kind < 825) {
      const uint64_t pages = rng.UniformU64(1, 16);
      const uint64_t writes = rng.UniformU64(0, 8);
      uint64_t wa = 0;
      uint64_t wb = 0;
      const uint64_t ra = a.vas.SwapOutPagesLimited(pages, writes, &wa);
      EXPECT_EQ(ra, b.vas.SwapOutPagesLimited(pages, writes, &wb));
      EXPECT_EQ(wa, wb);
      counts.reclaimed += ra;
    } else if (kind < 995) {
      // The neighbour re-faults part of its region; under a node budget the
      // commit gate reclaims from the heap's address space.
      const uint64_t offset = rng.UniformU64(0, 512 * kKiB - 1);
      const uint64_t len = rng.UniformU64(1, std::min<uint64_t>(128 * kKiB, 512 * kKiB - offset));
      a.neighbour.Release(a.other, offset, len);
      b.neighbour.Release(b.other, offset, len);
      ExpectSameTouch(a.neighbour.Touch(a.other, offset, len, /*write=*/true),
                      b.neighbour.Touch(b.other, offset, len, /*write=*/true), op);
    } else {
      // Unmap the chunk and map a fresh one (region ids stay in lockstep).
      chunk.reset();
      b.vas.Unmap(chunk_b);
      chunk = std::make_unique<Chunk>(&a.vas, "chunk");
      chunk_b = b.vas.MapAnonymous("chunk", kChunkSize);
      b.vas.Touch(chunk_b, 0, kChunkMetadataBytes, /*write=*/true);
      bump_b = kChunkMetadataBytes;
      EXPECT_EQ(chunk->region(), chunk_b);
    }
    ExpectSameTouch(ta, tb, op);
    ExpectSameSide(a, b, op);
    if (::testing::Test::HasFailure()) {
      break;
    }
  }
  counts.reliefs = relief_a.calls;
  counts.node_reclaimed = a.node.stats().kswapd_pages + a.node.stats().direct_reclaim_pages;
  EXPECT_EQ(relief_a.calls, relief_b.calls);
  a.vas.set_relief_handler(nullptr);
  b.vas.set_relief_handler(nullptr);
  return counts;
}

TEST(TouchWatermarkTest, TwinMatchesRawTouchesWithoutPressure) {
  const TwinCounts counts = RunWatermarkTwin(11, PhysicalMemoryConfig{});
  // Half the allocations land on pages an earlier one already faulted.
  EXPECT_GT(counts.skipped, counts.allocations / 3);
  EXPECT_GT(counts.reclaimed, 0u);
}

TEST(TouchWatermarkTest, TwinMatchesRawTouchesUnderNodePressure) {
  // 200 pages of budget for up to 320 pages of demand: the neighbour's
  // faults run kswapd over the heap's address space and, once swap fills, a
  // commit fails and emergency relief releases heap pages inside a Touch.
  uint64_t reliefs = 0;
  for (uint64_t seed : {5u, 29u}) {
    const TwinCounts counts =
        RunWatermarkTwin(seed, PhysicalMemoryConfig::ForBytes(200 * kPageSize, 96 * kPageSize));
    EXPECT_GT(counts.skipped, counts.allocations / 3);
    EXPECT_GT(counts.node_reclaimed, 0u);
    reliefs += counts.reliefs;
  }
  EXPECT_GT(reliefs, 0u);
}

TEST(TouchWatermarkTest, RecorderAttachedMidRunSeesReTouches) {
  // Twin spaces: A allocates through a watermarked ContiguousSpace, B
  // touches raw.
  VirtualAddressSpace a(nullptr);
  VirtualAddressSpace b(nullptr);
  const RegionId ra = a.MapAnonymous("heap", kMiB);
  const RegionId rb = b.MapAnonymous("heap", kMiB);
  ContiguousSpace space("eden", &a, ra);
  space.SetBounds(0, kMiB);
  ObjectPool pool;
  TouchResult faults;
  // Warm 256 KiB of the heap, then recycle it: the pages stay resident.
  for (uint64_t at = 0; at < 256 * kKiB; at += kKiB) {
    space.Allocate(pool.New(kKiB), &faults);
    b.Touch(rb, at, kKiB, /*write=*/true);
  }
  space.Reset();
  ASSERT_TRUE(space.touched().Covers(a, 0, kKiB));

  WorkingSetRecorder rec_a;
  WorkingSetRecorder rec_b;
  a.set_touch_listener(&rec_a);
  b.set_touch_listener(&rec_b);
  EXPECT_FALSE(space.touched().Covers(a, 0, kKiB));
  for (uint64_t at = 0; at < 128 * kKiB; at += kKiB) {
    TouchResult ta;
    space.Allocate(pool.New(kKiB), &ta);
    EXPECT_EQ(ta.total_faults(), 0u);  // every page was already resident
    b.Touch(rb, at, kKiB, /*write=*/true);
  }
  a.set_touch_listener(nullptr);
  b.set_touch_listener(nullptr);
  EXPECT_EQ(rec_a.raw_touches(), rec_b.raw_touches());
  const WorkingSet wa = rec_a.Finish();
  const WorkingSet wb = rec_b.Finish();
  EXPECT_EQ(wa.pages, 32u);  // 128 KiB of re-touched resident heap pages
  EXPECT_EQ(wa.pages, wb.pages);
  ASSERT_EQ(wa.runs.size(), wb.runs.size());
  for (size_t i = 0; i < wa.runs.size(); ++i) {
    EXPECT_EQ(wa.runs[i].region, wb.runs[i].region);
    EXPECT_EQ(wa.runs[i].first_page, wb.runs[i].first_page);
    EXPECT_EQ(wa.runs[i].pages, wb.runs[i].pages);
  }
  // Detached again: one real touch re-verifies, then skipping resumes.
  EXPECT_FALSE(space.touched().Covers(a, space.top(), kKiB));
  space.Allocate(pool.New(kKiB), &faults);
  EXPECT_TRUE(space.touched().Covers(a, space.top(), kKiB));
}

// ---------------------------------------------------------------------------
// Chunked spaces

class ChunkTest : public ::testing::Test {
 protected:
  ChunkTest() : vas_(nullptr) {}
  VirtualAddressSpace vas_;
  ObjectPool pool_;
};

TEST_F(ChunkTest, MetadataPageResidentOnCreation) {
  Chunk chunk(&vas_, "c0");
  EXPECT_EQ(chunk.ResidentBytes(), kChunkMetadataBytes);
}

TEST_F(ChunkTest, BumpAllocateRespectsCapacity) {
  Chunk chunk(&vas_, "c0");
  TouchResult faults;
  SimObject* a = pool_.New(static_cast<uint32_t>(kChunkDataBytes));
  EXPECT_TRUE(chunk.BumpAllocate(a, &faults));
  SimObject* b = pool_.New(1);
  EXPECT_FALSE(chunk.BumpAllocate(b, &faults));
}

TEST_F(ChunkTest, FreeRangesAfterRebuild) {
  Chunk chunk(&vas_, "c0");
  TouchResult faults;
  SimObject* a = pool_.New(64 * kKiB);
  SimObject* b = pool_.New(64 * kKiB);
  SimObject* c = pool_.New(64 * kKiB);
  chunk.BumpAllocate(a, &faults);
  chunk.BumpAllocate(b, &faults);
  chunk.BumpAllocate(c, &faults);
  // Kill b.
  auto& objs = chunk.objects();
  objs.erase(objs.begin() + 1);
  chunk.RebuildFreeRanges();
  EXPECT_EQ(chunk.FreeBytes(), kChunkSize - kChunkMetadataBytes - 3 * 64 * kKiB + 64 * kKiB);
  // The hole is reusable.
  SimObject* d = pool_.New(64 * kKiB);
  EXPECT_TRUE(chunk.FreeListAllocate(d, &faults));
  EXPECT_EQ(d->address, b->address);
}

TEST_F(ChunkTest, ReleaseFreePagesKeepsMetadata) {
  Chunk chunk(&vas_, "c0");
  TouchResult faults;
  chunk.BumpAllocate(pool_.New(64 * kKiB), &faults);
  chunk.RebuildFreeRanges();
  chunk.ReleaseFreePages();
  // Metadata page + the 64 KiB of live data stay.
  EXPECT_EQ(chunk.ResidentBytes(), kChunkMetadataBytes + 64 * kKiB);
}

TEST(SemispaceTest, LazyChunkMapping) {
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  Semispace space("new", &vas, 4 * kChunkSize);
  EXPECT_EQ(space.CommittedBytes(), 0u);
  TouchResult faults;
  ASSERT_TRUE(space.Allocate(pool.New(1024), &faults));
  EXPECT_EQ(space.CommittedBytes(), kChunkSize);
}

TEST(SemispaceTest, CapacityExhaustion) {
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  Semispace space("new", &vas, kChunkSize);
  TouchResult faults;
  ASSERT_TRUE(space.Allocate(pool.New(static_cast<uint32_t>(kChunkDataBytes)), &faults));
  EXPECT_FALSE(space.Allocate(pool.New(kPageSize), &faults));
}

TEST(SemispaceTest, GrowAndShrink) {
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  Semispace space("new", &vas, kChunkSize);
  TouchResult faults;
  space.Allocate(pool.New(1024), &faults);
  EXPECT_TRUE(space.SetCapacity(4 * kChunkSize));  // grow with objects: fine
  // Shrink below the populated chunk: refused.
  EXPECT_TRUE(space.SetCapacity(kChunkSize));  // chunk 0 populated, still fits
  space.Reset();
  EXPECT_TRUE(space.SetCapacity(kChunkSize));
}

TEST(SemispaceTest, ShrinkRefusedWhenPopulatedBeyondTarget) {
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  Semispace space("new", &vas, 4 * kChunkSize);
  TouchResult faults;
  // Fill two chunks.
  for (int i = 0; i < 3; ++i) {
    space.Allocate(pool.New(static_cast<uint32_t>(kChunkDataBytes / 2 + kPageSize)), &faults);
  }
  EXPECT_FALSE(space.SetCapacity(kChunkSize));
}

TEST(SemispaceTest, ReleaseAllDataPagesKeepsMetadata) {
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  Semispace space("new", &vas, 2 * kChunkSize);
  TouchResult faults;
  space.Allocate(pool.New(100 * kKiB), &faults);
  space.ReleaseAllDataPages();
  EXPECT_EQ(space.ResidentBytes(), kChunkMetadataBytes);
}

TEST(ChunkedOldSpaceTest, GrowsByChunks) {
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  ChunkedOldSpace old("old", &vas);
  TouchResult faults;
  old.Allocate(pool.New(100 * kKiB), &faults);
  EXPECT_EQ(old.CommittedBytes(), kChunkSize);
  old.Allocate(pool.New(200 * kKiB), &faults);
  EXPECT_EQ(old.CommittedBytes(), 2 * kChunkSize);
  EXPECT_EQ(old.used_bytes(), 300 * kKiB);
}

TEST(ChunkedOldSpaceTest, SweepFreesUnmarked) {
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  ChunkedOldSpace old("old", &vas);
  TouchResult faults;
  SimObject* live = pool.New(64 * kKiB);
  SimObject* dead = pool.New(64 * kKiB);
  old.Allocate(live, &faults);
  old.Allocate(dead, &faults);
  live->mark_epoch = 1;
  const auto result = old.Sweep(&pool, /*epoch=*/1);
  EXPECT_EQ(result.dead_objects, 1u);
  EXPECT_EQ(result.dead_bytes, 64 * kKiB);
  EXPECT_EQ(old.used_bytes(), 64 * kKiB);
  EXPECT_EQ(pool.live_count(), 1u);
}

TEST(ChunkedOldSpaceTest, ReleaseEmptyChunks) {
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  ChunkedOldSpace old("old", &vas);
  TouchResult faults;
  SimObject* a = pool.New(200 * kKiB);
  SimObject* b = pool.New(200 * kKiB);
  old.Allocate(a, &faults);
  old.Allocate(b, &faults);
  ASSERT_EQ(old.CommittedBytes(), 2 * kChunkSize);
  // Kill b (its chunk becomes empty).
  a->mark_epoch = 1;
  old.Sweep(&pool, /*epoch=*/1);
  EXPECT_EQ(old.ReleaseEmptyChunks(), kChunkSize);
  EXPECT_EQ(old.CommittedBytes(), kChunkSize);
}

TEST(ChunkedOldSpaceTest, FreeListReuseAfterSweep) {
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  ChunkedOldSpace old("old", &vas);
  TouchResult faults;
  SimObject* a = pool.New(100 * kKiB);
  SimObject* dead = pool.New(50 * kKiB);
  SimObject* c = pool.New(80 * kKiB);
  old.Allocate(a, &faults);
  old.Allocate(dead, &faults);
  old.Allocate(c, &faults);
  a->mark_epoch = 1;
  c->mark_epoch = 1;
  old.Sweep(&pool, /*epoch=*/1);
  // New 50 KiB allocation reuses the hole without growing.
  SimObject* d = pool.New(50 * kKiB);
  old.Allocate(d, &faults);
  EXPECT_EQ(old.CommittedBytes(), kChunkSize);
  EXPECT_EQ(d->address, dead->address);
}

TEST(LargeObjectSpaceTest, DedicatedRegions) {
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  LargeObjectSpace los("los", &vas);
  TouchResult faults;
  SimObject* big = pool.New(1 * kMiB);
  los.Allocate(big, &faults);
  EXPECT_EQ(los.used_bytes(), 1 * kMiB);
  EXPECT_EQ(los.CommittedBytes(), 1 * kMiB + kChunkMetadataBytes);
  EXPECT_EQ(los.ResidentBytes(), 1 * kMiB + kChunkMetadataBytes);
}

TEST(LargeObjectSpaceTest, SweepUnmapsDead) {
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  LargeObjectSpace los("los", &vas);
  TouchResult faults;
  SimObject* live = pool.New(512 * kKiB);
  SimObject* dead = pool.New(512 * kKiB);
  los.Allocate(live, &faults);
  los.Allocate(dead, &faults);
  live->mark_epoch = 1;
  const auto result = los.Sweep(&pool, /*epoch=*/1);
  EXPECT_EQ(result.dead_objects, 1u);
  EXPECT_EQ(los.object_count(), 1u);
  EXPECT_EQ(los.used_bytes(), 512 * kKiB);
}

// ---------------------------------------------------------------------------
// Property: random alloc/kill cycles against the old space keep the free
// accounting consistent.

class OldSpacePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OldSpacePropertyTest, SweepConservesBytes) {
  Rng rng(GetParam());
  VirtualAddressSpace vas(nullptr);
  ObjectPool pool;
  ChunkedOldSpace old("old", &vas);
  std::vector<SimObject*> live;
  TouchResult faults;
  uint64_t live_bytes = 0;

  for (int round = 0; round < 20; ++round) {
    // A fresh epoch per round, as a real collector would draw.
    const auto epoch = static_cast<uint32_t>(round + 1);
    // Allocate a batch.
    for (int i = 0; i < 50; ++i) {
      const auto size = static_cast<uint32_t>(rng.UniformU64(64, 16 * kKiB));
      SimObject* obj = pool.New(size);
      old.Allocate(obj, &faults);
      live.push_back(obj);
      live_bytes += size;
    }
    // Kill a random subset.
    std::vector<SimObject*> survivors;
    for (SimObject* obj : live) {
      if (rng.Chance(0.6)) {
        obj->mark_epoch = epoch;
        survivors.push_back(obj);
      } else {
        live_bytes -= obj->size;
      }
    }
    old.Sweep(&pool, epoch);
    old.ReleaseEmptyChunks();
    live = std::move(survivors);
    EXPECT_EQ(old.used_bytes(), live_bytes);
    EXPECT_EQ(pool.live_count(), live.size());
    EXPECT_GE(old.CommittedBytes(), live_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OldSpacePropertyTest, ::testing::Values(3, 7, 11, 19, 23));

}  // namespace
}  // namespace desiccant
