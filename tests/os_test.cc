// Unit + property tests for the simulated OS memory subsystem.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/os/fault_costs.h"
#include "src/os/shared_file_registry.h"
#include "src/os/virtual_memory.h"

namespace desiccant {
namespace {

// ---------------------------------------------------------------------------
// SharedFileRegistry

TEST(SharedFileRegistryTest, RegisterIsIdempotent) {
  SharedFileRegistry registry;
  const FileId a = registry.RegisterFile("libjvm.so", 8 * kMiB);
  const FileId b = registry.RegisterFile("libjvm.so", 8 * kMiB);
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.FileSizeBytes(a), 8 * kMiB);
  EXPECT_EQ(registry.FilePageCount(a), 2048u);
  EXPECT_EQ(registry.FileName(a), "libjvm.so");
}

TEST(SharedFileRegistryDeathTest, ReRegisterWithDifferentSizeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SharedFileRegistry registry;
  registry.RegisterFile("libjvm.so", 8 * kMiB);
  // Two runtimes disagreeing on an image's size would corrupt every refcount
  // derived from it; the registry treats it as a hard error, not a lookup.
  EXPECT_DEATH(registry.RegisterFile("libjvm.so", 4 * kMiB),
               "re-registered with size");
}

TEST(SharedFileRegistryTest, DistinctFilesDistinctIds) {
  SharedFileRegistry registry;
  EXPECT_NE(registry.RegisterFile("a", kMiB), registry.RegisterFile("b", kMiB));
}

TEST(SharedFileRegistryTest, RefcountLifecycle) {
  SharedFileRegistry registry;
  const FileId f = registry.RegisterFile("f", kMiB);
  EXPECT_EQ(registry.MapperCount(f, 0), 0u);
  EXPECT_EQ(registry.AddMapper(f, 0), 1u);
  EXPECT_EQ(registry.AddMapper(f, 0), 2u);
  EXPECT_EQ(registry.RemoveMapper(f, 0), 1u);
  EXPECT_EQ(registry.MapperCount(f, 0), 1u);
  EXPECT_EQ(registry.RemoveMapper(f, 0), 0u);
}

// ---------------------------------------------------------------------------
// VirtualAddressSpace: anonymous memory

TEST(VasTest, FreshRegionNotResident) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  EXPECT_EQ(vas.resident_pages(), 0u);
  EXPECT_EQ(vas.RegionSizeBytes(r), kMiB);
  EXPECT_EQ(vas.Usage().rss, 0u);
}

TEST(VasTest, TouchFaultsOnce) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  TouchResult t1 = vas.Touch(r, 0, 8 * kPageSize, /*write=*/true);
  EXPECT_EQ(t1.minor_faults, 8u);
  TouchResult t2 = vas.Touch(r, 0, 8 * kPageSize, /*write=*/true);
  EXPECT_EQ(t2.total_faults(), 0u);
  EXPECT_EQ(vas.resident_pages(), 8u);
}

TEST(VasTest, PartialPageTouchFaultsWholePage) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  const TouchResult t = vas.Touch(r, 100, 10, /*write=*/true);
  EXPECT_EQ(t.minor_faults, 1u);
}

TEST(VasTest, TouchSpanningPages) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  // [kPageSize - 10, kPageSize + 10) spans two pages.
  const TouchResult t = vas.Touch(r, kPageSize - 10, 20, /*write=*/true);
  EXPECT_EQ(t.minor_faults, 2u);
}

TEST(VasTest, AnonymousUsageIsPrivate) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  vas.Touch(r, 0, 16 * kPageSize, /*write=*/true);
  const MemoryUsage usage = vas.Usage();
  EXPECT_EQ(usage.rss, 16 * kPageSize);
  EXPECT_EQ(usage.uss, 16 * kPageSize);
  EXPECT_DOUBLE_EQ(usage.pss, static_cast<double>(16 * kPageSize));
}

TEST(VasTest, ReleaseDropsResidency) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  vas.Touch(r, 0, 16 * kPageSize, /*write=*/true);
  EXPECT_EQ(vas.Release(r, 0, 16 * kPageSize), 16u);
  EXPECT_EQ(vas.resident_pages(), 0u);
  // Releasing again is a no-op.
  EXPECT_EQ(vas.Release(r, 0, 16 * kPageSize), 0u);
  // Re-touching faults again.
  EXPECT_EQ(vas.Touch(r, 0, kPageSize, true).minor_faults, 1u);
}

TEST(VasTest, ReleaseIsPageConservative) {
  // Only whole pages strictly inside the byte range are released — the
  // page-alignment loss of §5.2.
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  vas.Touch(r, 0, 4 * kPageSize, /*write=*/true);
  // [100, kPageSize + 100): only page 0 is partially covered at its start...
  // pages fully inside are page 0? No: range covers [100, 4196). Page 0 is
  // partial, page 1 is partial. Nothing released.
  EXPECT_EQ(vas.Release(r, 100, kPageSize), 0u);
  // [0, 2*kPageSize - 1): page 0 is whole, page 1 partial -> releases 1.
  EXPECT_EQ(vas.Release(r, 0, 2 * kPageSize - 1), 1u);
}

TEST(VasTest, UnmapDropsEverything) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  vas.Touch(r, 0, kMiB, /*write=*/true);
  vas.Unmap(r);
  EXPECT_EQ(vas.resident_pages(), 0u);
  EXPECT_EQ(vas.Usage().rss, 0u);
  EXPECT_TRUE(vas.Smaps().empty());
}

TEST(VasTest, ResidentPagesInRange) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  vas.Touch(r, 2 * kPageSize, 3 * kPageSize, /*write=*/true);
  EXPECT_EQ(vas.ResidentPagesInRange(r, 0, kMiB), 3u);
  EXPECT_EQ(vas.ResidentPagesInRange(r, 0, 2 * kPageSize), 0u);
  EXPECT_EQ(vas.ResidentPagesInRange(r, 2 * kPageSize, kPageSize), 1u);
}

// ---------------------------------------------------------------------------
// VirtualAddressSpace: file-backed memory and sharing

class TwoProcessFixture : public ::testing::Test {
 protected:
  TwoProcessFixture() : p1_(&registry_), p2_(&registry_) {
    file_ = registry_.RegisterFile("libfoo.so", 16 * kPageSize);
  }

  SharedFileRegistry registry_;
  VirtualAddressSpace p1_;
  VirtualAddressSpace p2_;
  FileId file_ = kInvalidFileId;
};

TEST_F(TwoProcessFixture, ReadTouchIsClean) {
  const RegionId r = p1_.MapFile("libfoo.so", file_);
  p1_.Touch(r, 0, 4 * kPageSize, /*write=*/false);
  const MemoryUsage usage = p1_.Usage();
  EXPECT_EQ(usage.rss, 4 * kPageSize);
  // Single mapper: still counts in USS.
  EXPECT_EQ(usage.uss, 4 * kPageSize);
}

TEST_F(TwoProcessFixture, SharedPagesLeaveUss) {
  const RegionId r1 = p1_.MapFile("libfoo.so", file_);
  const RegionId r2 = p2_.MapFile("libfoo.so", file_);
  p1_.Touch(r1, 0, 4 * kPageSize, /*write=*/false);
  p2_.Touch(r2, 0, 4 * kPageSize, /*write=*/false);
  const MemoryUsage u1 = p1_.Usage();
  EXPECT_EQ(u1.rss, 4 * kPageSize);
  EXPECT_EQ(u1.uss, 0u);  // shared
  EXPECT_DOUBLE_EQ(u1.pss, static_cast<double>(4 * kPageSize) / 2);
}

TEST_F(TwoProcessFixture, CowUpgradeGoesPrivate) {
  const RegionId r1 = p1_.MapFile("libfoo.so", file_);
  const RegionId r2 = p2_.MapFile("libfoo.so", file_);
  p1_.Touch(r1, 0, 4 * kPageSize, /*write=*/false);
  p2_.Touch(r2, 0, 4 * kPageSize, /*write=*/false);
  const TouchResult t = p1_.Touch(r1, 0, kPageSize, /*write=*/true);
  EXPECT_EQ(t.cow_faults, 1u);
  // p1 now holds one private dirty page; the shared refcount dropped.
  EXPECT_EQ(registry_.MapperCount(file_, 0), 1u);
  const MemoryUsage u1 = p1_.Usage();
  EXPECT_EQ(u1.uss, kPageSize);
  // p2's formerly-shared page 0 is now exclusively p2's.
  EXPECT_EQ(p2_.Usage().uss, kPageSize);
}

TEST_F(TwoProcessFixture, UnmapReleasesRefcounts) {
  const RegionId r1 = p1_.MapFile("libfoo.so", file_);
  const RegionId r2 = p2_.MapFile("libfoo.so", file_);
  p1_.Touch(r1, 0, 4 * kPageSize, /*write=*/false);
  p2_.Touch(r2, 0, 4 * kPageSize, /*write=*/false);
  p2_.Unmap(r2);
  EXPECT_EQ(registry_.MapperCount(file_, 0), 1u);
  EXPECT_EQ(p1_.Usage().uss, 4 * kPageSize);  // exclusive again
}

TEST_F(TwoProcessFixture, SmapsClassifiesFilePages) {
  const RegionId r1 = p1_.MapFile("libfoo.so", file_);
  const RegionId r2 = p2_.MapFile("libfoo.so", file_);
  p1_.Touch(r1, 0, 4 * kPageSize, /*write=*/false);          // will be shared
  p2_.Touch(r2, 0, 2 * kPageSize, /*write=*/false);
  p1_.Touch(r1, 8 * kPageSize, 2 * kPageSize, /*write=*/false);  // exclusive
  const auto smaps = p1_.Smaps();
  ASSERT_EQ(smaps.size(), 1u);
  EXPECT_TRUE(smaps[0].file_backed());
  EXPECT_TRUE(smaps[0].never_written);
  EXPECT_EQ(smaps[0].shared_clean, 2 * kPageSize);
  EXPECT_EQ(smaps[0].private_clean, 4 * kPageSize);
  EXPECT_EQ(smaps[0].private_dirty, 0u);
}

TEST_F(TwoProcessFixture, NeverWrittenFlag) {
  const RegionId r1 = p1_.MapFile("libfoo.so", file_);
  p1_.Touch(r1, 0, kPageSize, /*write=*/false);
  EXPECT_TRUE(p1_.Smaps()[0].never_written);
  p1_.Touch(r1, 0, kPageSize, /*write=*/true);
  EXPECT_FALSE(p1_.Smaps()[0].never_written);
}

// ---------------------------------------------------------------------------
// Swap

TEST(VasSwapTest, SwapOutMovesDirtyPages) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  vas.Touch(r, 0, 10 * kPageSize, /*write=*/true);
  EXPECT_EQ(vas.SwapOutPages(4), 4u);
  EXPECT_EQ(vas.resident_pages(), 6u);
  EXPECT_EQ(vas.swapped_pages(), 4u);
  const MemoryUsage usage = vas.Usage();
  EXPECT_EQ(usage.rss, 6 * kPageSize);
  EXPECT_EQ(usage.swapped, 4 * kPageSize);
}

TEST(VasSwapTest, SwapInOnTouch) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  vas.Touch(r, 0, 4 * kPageSize, /*write=*/true);
  vas.SwapOutPages(4);
  const TouchResult t = vas.Touch(r, 0, 4 * kPageSize, /*write=*/true);
  EXPECT_EQ(t.swap_ins, 4u);
  EXPECT_EQ(vas.swapped_pages(), 0u);
  EXPECT_EQ(vas.resident_pages(), 4u);
}

TEST(VasSwapTest, SwapOutCapped) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  vas.Touch(r, 0, 3 * kPageSize, /*write=*/true);
  EXPECT_EQ(vas.SwapOutPages(100), 3u);
}

TEST(VasSwapTest, ReleaseDiscardsSwapped) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kMiB);
  vas.Touch(r, 0, 4 * kPageSize, /*write=*/true);
  vas.SwapOutPages(4);
  vas.Release(r, 0, 4 * kPageSize);
  EXPECT_EQ(vas.swapped_pages(), 0u);
  EXPECT_EQ(vas.Usage().swapped, 0u);
}

// ---------------------------------------------------------------------------
// Fault cost model

TEST(FaultCostTest, CostComposition) {
  FaultCostModel model;
  TouchResult t;
  t.minor_faults = 2;
  t.cow_faults = 1;
  t.swap_ins = 3;
  EXPECT_EQ(model.CostOf(t), 2 * model.minor_fault_cost + model.cow_fault_cost +
                                 3 * model.swap_in_cost);
}

TEST(FaultCostTest, SwapMuchSlowerThanMinor) {
  FaultCostModel model;
  EXPECT_GT(model.swap_in_cost, 10 * model.minor_fault_cost);
}

// ---------------------------------------------------------------------------
// Property sweeps: random touch/release traffic conserves accounting.

class VasPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VasPropertyTest, AccountingStaysConsistent) {
  Rng rng(GetParam());
  SharedFileRegistry registry;
  VirtualAddressSpace vas(&registry);
  const FileId file = registry.RegisterFile("f", 64 * kPageSize);
  const RegionId anon = vas.MapAnonymous("anon", 64 * kPageSize);
  const RegionId mapped = vas.MapFile("file", file);

  for (int step = 0; step < 500; ++step) {
    const RegionId r = rng.Chance(0.5) ? anon : mapped;
    const uint64_t offset = rng.UniformU64(0, 63) * kPageSize;
    const uint64_t len = rng.UniformU64(1, 4) * kPageSize;
    if (offset + len > 64 * kPageSize) {
      continue;
    }
    switch (rng.UniformU64(0, 3)) {
      case 0:
        vas.Touch(r, offset, len, rng.Chance(0.5));
        break;
      case 1:
        vas.Release(r, offset, len);
        break;
      case 2:
        vas.SwapOutPages(rng.UniformU64(0, 8));
        break;
      case 3:
        vas.Touch(r, offset, len, false);
        break;
    }
    // Invariants: cached counters match a full recount via Usage()/Smaps().
    const MemoryUsage usage = vas.Usage();
    EXPECT_EQ(usage.rss, PagesToBytes(vas.resident_pages()));
    EXPECT_EQ(usage.swapped, PagesToBytes(vas.swapped_pages()));
    EXPECT_LE(usage.uss, usage.rss);
    EXPECT_LE(usage.pss, static_cast<double>(usage.rss) + 1e-6);
    EXPECT_GE(usage.pss, static_cast<double>(usage.uss) - 1e-6);
    uint64_t smaps_resident = 0;
    for (const RegionInfo& info : vas.Smaps()) {
      smaps_resident += info.private_dirty + info.private_clean + info.shared_clean;
    }
    EXPECT_EQ(smaps_resident, usage.rss);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VasPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------------------------------------------------------------------------
// VAS hard-abort error paths: page-table corruption bugs (a heap simulator
// touching past a region, or operating on an unmapped one) must die loudly,
// not silently clamp.

// An unmapped region's slot serves the next mapping, but under a new id: ids
// grow in creation order and a stale id never names the slot's next tenant.
TEST(VasRegionLifecycleTest, StaleIdNeverNamesTheNextTenant) {
  VirtualAddressSpace vas(nullptr);
  const RegionId keep = vas.MapAnonymous("keep", 4 * kPageSize);
  const RegionId old_id = vas.MapAnonymous("chunk", 4 * kPageSize);
  vas.Touch(old_id, 0, 4 * kPageSize, /*write=*/true);
  vas.Unmap(old_id);
  EXPECT_FALSE(vas.RegionLive(old_id));
  const RegionId new_id = vas.MapAnonymous("chunk", 4 * kPageSize);
  EXPECT_GT(new_id, old_id);
  EXPECT_TRUE(vas.RegionLive(new_id));
  EXPECT_FALSE(vas.RegionLive(old_id));
  EXPECT_EQ(vas.region_slots(), 2u);  // the parked slot was reused
  EXPECT_EQ(vas.live_regions(), 2u);
  // The reused slot starts out empty.
  EXPECT_EQ(vas.ResidentPagesInRegion(new_id), 0u);
  EXPECT_EQ(vas.RssBytes(), 0u);
  // Creation order is id order, in smaps as in the ids themselves.
  const auto smaps = vas.Smaps();
  ASSERT_EQ(smaps.size(), 2u);
  EXPECT_EQ(smaps[0].id, keep);
  EXPECT_EQ(smaps[1].id, new_id);
}

TEST(VasRegionLifecycleTest, OrdinalIsPartOfTheSmapsName) {
  VirtualAddressSpace vas(nullptr);
  vas.MapAnonymous("v8_old/chunk", kChunkSize, 12);
  vas.MapAnonymous("java_heap", kChunkSize);
  const auto smaps = vas.Smaps();
  ASSERT_EQ(smaps.size(), 2u);
  EXPECT_EQ(smaps[0].name, "v8_old/chunk12");
  EXPECT_EQ(smaps[1].name, "java_heap");
}

TEST(VasDeathTest, StaleIdAbortsAfterSlotReuse) {
  VirtualAddressSpace vas(nullptr);
  const RegionId old_id = vas.MapAnonymous("chunk", 4 * kPageSize);
  vas.Unmap(old_id);
  vas.MapAnonymous("chunk", 4 * kPageSize);
  EXPECT_DEATH(vas.Touch(old_id, 0, kPageSize, /*write=*/true), "double Unmap/Decommit");
}

TEST(VasDeathTest, TouchOutOfRangeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", 4 * kPageSize);
  EXPECT_DEATH(vas.Touch(r, 3 * kPageSize, 2 * kPageSize, true), "Touch out of range");
}

TEST(VasDeathTest, ReleaseOutOfRangeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", 4 * kPageSize);
  EXPECT_DEATH(vas.Release(r, 2 * kPageSize, 4 * kPageSize), "Release out of range");
}

TEST(VasDeathTest, TouchAfterUnmapAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", 4 * kPageSize);
  vas.Unmap(r);
  EXPECT_DEATH(vas.Touch(r, 0, kPageSize, true), "dead or unknown region");
}

TEST(VasDeathTest, DoubleUnmapAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", 4 * kPageSize);
  vas.Unmap(r);
  EXPECT_DEATH(vas.Unmap(r), "double Unmap/Decommit");
}

TEST(VasDeathTest, UnknownRegionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  VirtualAddressSpace vas(nullptr);
  EXPECT_DEATH(vas.Touch(RegionId{7}, 0, kPageSize, false), "dead or unknown region");
}

// ---------------------------------------------------------------------------
// Bounded swap-out: dirty pages are limited by the swap-write budget, clean
// file pages drop for free.

TEST(VasSwapLimitTest, DirtyPagesRespectSwapWriteBudget) {
  SharedFileRegistry registry;
  const FileId file = registry.RegisterFile("libfoo.so", 16 * kPageSize);
  VirtualAddressSpace vas(&registry);
  const RegionId anon = vas.MapAnonymous("heap", 16 * kPageSize);
  const RegionId mapped = vas.MapFile("libfoo.so", file);
  vas.Touch(anon, 0, 16 * kPageSize, true);    // 16 dirty pages
  vas.Touch(mapped, 0, 16 * kPageSize, false); // 16 clean file pages

  uint64_t writes = ~0ull;
  const uint64_t freed = vas.SwapOutPagesLimited(64, /*max_swap_writes=*/2, &writes);
  // Only two dirty pages may hit the device; every clean page drops free.
  EXPECT_EQ(writes, 2u);
  EXPECT_EQ(freed, 2u + 16u);
  EXPECT_EQ(vas.swapped_pages(), 2u);
  EXPECT_EQ(vas.resident_pages(), 14u);
}

// ---------------------------------------------------------------------------
// PhysicalMemory: the node-level reclaim ladder.

TEST(PhysicalMemoryTest, AttachDetachAccounting) {
  PhysicalMemory node(PhysicalMemoryConfig{.page_budget = 1024, .swap_pages = 256});
  {
    VirtualAddressSpace vas(nullptr, &node);
    EXPECT_EQ(node.attached_count(), 1u);
    const RegionId r = vas.MapAnonymous("heap", 64 * kPageSize);
    vas.Touch(r, 0, 64 * kPageSize, true);
    EXPECT_EQ(node.total_resident_pages(), 64u);
    node.VerifyAccounting();
  }
  // The dtor unmaps everything and detaches: all pages flow back to the node.
  EXPECT_EQ(node.attached_count(), 0u);
  EXPECT_EQ(node.total_resident_pages(), 0u);
  node.VerifyAccounting();
}

TEST(PhysicalMemoryTest, KswapdReclaimsTowardLowWatermarkForFree) {
  // Budget 100 pages, watermarks 92/85. An idle space holds 90; a hot space
  // faulting 8 more crosses the high watermark and wakes kswapd, which swaps
  // the idle space's pages — the faulting mutator is charged nothing.
  PhysicalMemory node(PhysicalMemoryConfig{.page_budget = 100, .swap_pages = 1000});
  VirtualAddressSpace idle(nullptr, &node);
  const RegionId cold = idle.MapAnonymous("cold", 90 * kPageSize);
  idle.Touch(cold, 0, 90 * kPageSize, true);

  VirtualAddressSpace hot(nullptr, &node);
  const RegionId r = hot.MapAnonymous("hot", 8 * kPageSize);
  const TouchResult touch = hot.Touch(r, 0, 8 * kPageSize, true);
  EXPECT_EQ(touch.minor_faults, 8u);
  EXPECT_EQ(touch.direct_reclaim_pages, 0u);
  EXPECT_EQ(touch.failed_pages, 0u);
  EXPECT_GT(node.stats().kswapd_runs, 0u);
  EXPECT_GT(node.stats().kswapd_pages, 0u);
  EXPECT_GT(idle.swapped_pages(), 0u);
  EXPECT_LE(node.total_resident_pages(), node.config().page_budget);
  node.VerifyAccounting();
}

TEST(PhysicalMemoryTest, DirectReclaimIsChargedToTheFaulter) {
  // High watermark above the budget disables kswapd, so exceeding the budget
  // must go through synchronous direct reclaim and show up on the touch.
  PhysicalMemoryConfig config{.page_budget = 100, .swap_pages = 1000};
  config.high_watermark = 2.0;
  config.low_watermark = 1.5;
  PhysicalMemory node(config);
  VirtualAddressSpace idle(nullptr, &node);
  const RegionId cold = idle.MapAnonymous("cold", 96 * kPageSize);
  idle.Touch(cold, 0, 96 * kPageSize, true);

  VirtualAddressSpace hot(nullptr, &node);
  const RegionId r = hot.MapAnonymous("hot", 8 * kPageSize);
  const TouchResult touch = hot.Touch(r, 0, 8 * kPageSize, true);
  EXPECT_EQ(touch.failed_pages, 0u);
  EXPECT_GT(touch.direct_reclaim_pages, 0u);
  EXPECT_EQ(node.stats().kswapd_runs, 0u);
  EXPECT_GT(node.stats().direct_reclaim_events, 0u);
  EXPECT_LE(node.total_resident_pages(), node.config().page_budget);
  node.VerifyAccounting();
}

TEST(PhysicalMemoryTest, CommitFailsOnlyWhenSwapIsFull) {
  // No swap and every resident page dirty-anonymous: nothing is reclaimable,
  // so the commit walks all three rungs and fails. The failing space then
  // fails fast (commit_denied) without re-scanning the node.
  PhysicalMemory node(PhysicalMemoryConfig{.page_budget = 100, .swap_pages = 0});
  VirtualAddressSpace hog(nullptr, &node);
  const RegionId fat = hog.MapAnonymous("fat", 100 * kPageSize);
  hog.Touch(fat, 0, 100 * kPageSize, true);

  VirtualAddressSpace late(nullptr, &node);
  const RegionId r = late.MapAnonymous("late", 8 * kPageSize);
  const TouchResult first = late.Touch(r, 0, 8 * kPageSize, true);
  EXPECT_TRUE(first.commit_failed());
  EXPECT_EQ(first.failed_pages, 8u);
  EXPECT_TRUE(late.commit_denied());
  EXPECT_EQ(node.stats().commit_failures, 1u);

  // Fail-fast path: no new node-level commit failure is recorded.
  const TouchResult second = late.Touch(r, 0, 8 * kPageSize, true);
  EXPECT_TRUE(second.commit_failed());
  EXPECT_EQ(node.stats().commit_failures, 1u);
  node.VerifyAccounting();
}

TEST(PhysicalMemoryTest, ExhaustionLatchClearsWhenPagesFree) {
  // Same saturated setup; after the hog releases memory, a *new* space (the
  // denied one stays doomed by design) can commit again — the exhaustion
  // latch must clear on the release.
  PhysicalMemory node(PhysicalMemoryConfig{.page_budget = 100, .swap_pages = 0});
  VirtualAddressSpace hog(nullptr, &node);
  const RegionId fat = hog.MapAnonymous("fat", 100 * kPageSize);
  hog.Touch(fat, 0, 100 * kPageSize, true);

  VirtualAddressSpace doomed(nullptr, &node);
  const RegionId d = doomed.MapAnonymous("doomed", 8 * kPageSize);
  EXPECT_TRUE(doomed.Touch(d, 0, 8 * kPageSize, true).commit_failed());

  hog.Release(fat, 0, 50 * kPageSize);

  VirtualAddressSpace fresh(nullptr, &node);
  const RegionId f = fresh.MapAnonymous("fresh", 8 * kPageSize);
  const TouchResult touch = fresh.Touch(f, 0, 8 * kPageSize, true);
  EXPECT_FALSE(touch.commit_failed());
  EXPECT_EQ(touch.minor_faults, 8u);
  node.VerifyAccounting();
}

// One-shot emergency relief: when the commit fails, the space's relief
// handler runs once and the commit retries before failing for good.
class ReleasingReliefHandler : public PressureReliefHandler {
 public:
  ReleasingReliefHandler(VirtualAddressSpace* victim, RegionId region, uint64_t pages)
      : victim_(victim), region_(region), pages_(pages) {}
  virtual ~ReleasingReliefHandler() = default;

  bool RelievePressure() override {
    ++calls_;
    victim_->Release(region_, 0, pages_ * kPageSize);
    return true;
  }

  int calls() const { return calls_; }

 private:
  VirtualAddressSpace* victim_;
  RegionId region_;
  uint64_t pages_;
  int calls_ = 0;
};

TEST(PhysicalMemoryTest, ReliefHandlerGetsOneRetry) {
  PhysicalMemory node(PhysicalMemoryConfig{.page_budget = 100, .swap_pages = 0});
  VirtualAddressSpace hog(nullptr, &node);
  const RegionId fat = hog.MapAnonymous("fat", 100 * kPageSize);
  hog.Touch(fat, 0, 100 * kPageSize, true);

  VirtualAddressSpace hot(nullptr, &node);
  ReleasingReliefHandler relief(&hog, fat, 50);
  hot.set_relief_handler(&relief);
  const RegionId r = hot.MapAnonymous("hot", 8 * kPageSize);
  const TouchResult touch = hot.Touch(r, 0, 8 * kPageSize, true);
  EXPECT_EQ(relief.calls(), 1);
  EXPECT_FALSE(touch.commit_failed());
  EXPECT_FALSE(hot.commit_denied());
  node.VerifyAccounting();
}

TEST(PhysicalMemoryTest, SwapDeviceBoundsDirtyReclaim) {
  // Swap for only 10 pages: reclaim can swap at most 10 dirty pages, so a
  // 30-page shortfall past that must fail even though dirty pages remain.
  PhysicalMemory node(PhysicalMemoryConfig{.page_budget = 100, .swap_pages = 10});
  VirtualAddressSpace hog(nullptr, &node);
  const RegionId fat = hog.MapAnonymous("fat", 100 * kPageSize);
  hog.Touch(fat, 0, 100 * kPageSize, true);

  VirtualAddressSpace hot(nullptr, &node);
  const RegionId r = hot.MapAnonymous("hot", 40 * kPageSize);
  const TouchResult touch = hot.Touch(r, 0, 40 * kPageSize, true);
  EXPECT_TRUE(touch.commit_failed());
  EXPECT_EQ(node.swap().used_pages, 10u);
  EXPECT_EQ(node.swap().FreePages(), 0u);
  EXPECT_GT(node.stats().swap_out_pages, 0u);
  EXPECT_LE(node.stats().swap_out_pages, 10u);
  node.VerifyAccounting();
}

TEST(PhysicalMemoryTest, ZeroBudgetDisablesTheModel) {
  PhysicalMemory node(PhysicalMemoryConfig{.page_budget = 0, .swap_pages = 0});
  EXPECT_FALSE(node.enabled());
  VirtualAddressSpace vas(nullptr, &node);
  const RegionId r = vas.MapAnonymous("heap", 512 * kPageSize);
  const TouchResult touch = vas.Touch(r, 0, 512 * kPageSize, true);
  EXPECT_EQ(touch.minor_faults, 512u);
  EXPECT_EQ(touch.direct_reclaim_pages, 0u);
  EXPECT_EQ(touch.failed_pages, 0u);
  EXPECT_EQ(node.stats().kswapd_runs, 0u);
  EXPECT_EQ(node.stats().direct_reclaim_events, 0u);
  // Residency is still tracked (the killer uses it); pressure never fires.
  EXPECT_EQ(node.total_resident_pages(), 512u);
  node.VerifyAccounting();
}

}  // namespace
}  // namespace desiccant
