// Tests for the FaaS platform layer: instances, the study harness, and the
// discrete-event platform with freeze semantics.
#include <gtest/gtest.h>

#include "src/faas/instance.h"
#include "src/faas/platform.h"
#include "src/faas/single_study.h"

namespace desiccant {
namespace {

// ---------------------------------------------------------------------------
// Instance

class InstanceTest : public ::testing::Test {
 protected:
  InstanceTest() : workload_(FindWorkload("sort")) {}
  SharedFileRegistry registry_;
  const WorkloadSpec* workload_;
};

TEST_F(InstanceTest, LifecycleStates) {
  Instance instance(1, workload_, 0, 256 * kMiB, &registry_, 1);
  EXPECT_EQ(instance.state(), InstanceState::kBooting);
  instance.Execute();
  EXPECT_EQ(instance.state(), InstanceState::kRunning);
  instance.Freeze(kSecond);
  EXPECT_EQ(instance.state(), InstanceState::kFrozen);
  EXPECT_EQ(instance.frozen_since(), kSecond);
  instance.Thaw();
  EXPECT_EQ(instance.state(), InstanceState::kRunning);
}

TEST_F(InstanceTest, FunctionKeyEncodesStage) {
  Instance instance(1, FindWorkload("mapreduce"), 1, 256 * kMiB, &registry_, 1);
  EXPECT_EQ(instance.FunctionKey(), "mapreduce#1");
}

TEST_F(InstanceTest, FreezeCachesUss) {
  Instance instance(1, workload_, 0, 256 * kMiB, &registry_, 1);
  instance.Execute();
  instance.Freeze(0);
  EXPECT_EQ(instance.CachedUss(), instance.Usage().uss);
  EXPECT_GT(instance.CachedUss(), 0u);
}

TEST_F(InstanceTest, ReclaimReducesUss) {
  Instance instance(1, workload_, 0, 256 * kMiB, &registry_, 1);
  for (int i = 0; i < 20; ++i) {
    instance.Execute();
  }
  instance.Freeze(0);
  const uint64_t before = instance.CachedUss();
  const ReclaimResult result = instance.Reclaim({}, /*unmap_idle_libraries=*/false);
  EXPECT_GT(result.released_pages, 0u);
  EXPECT_LT(instance.CachedUss(), before);
  EXPECT_TRUE(instance.reclaimed_since_freeze());
}

TEST_F(InstanceTest, ReclaimedFlagClearsOnNextFreeze) {
  Instance instance(1, workload_, 0, 256 * kMiB, &registry_, 1);
  instance.Execute();
  instance.Freeze(0);
  instance.Reclaim({}, false);
  instance.Thaw();
  instance.Execute();
  instance.Freeze(kSecond);
  EXPECT_FALSE(instance.reclaimed_since_freeze());
}

TEST_F(InstanceTest, UnmapIdleLibrariesSingleMapper) {
  // Only one process maps the image: its clean pages are private and the
  // §4.6 optimization releases them.
  Instance instance(1, workload_, 0, 256 * kMiB, &registry_, 1);
  instance.Execute();
  instance.Freeze(0);
  const uint64_t before = instance.Usage().uss;
  const uint64_t released = instance.UnmapIdleLibraries();
  EXPECT_GT(released, 0u);
  EXPECT_LT(instance.Usage().uss, before);
}

TEST_F(InstanceTest, UnmapSkipsSharedLibraries) {
  Instance a(1, workload_, 0, 256 * kMiB, &registry_, 1);
  Instance b(2, workload_, 0, 256 * kMiB, &registry_, 2);
  a.Execute();
  a.Freeze(0);
  // Both instances map libjvm.so; its pages are shared.
  EXPECT_EQ(a.UnmapIdleLibraries(), 0u);
}

TEST_F(InstanceTest, ThawAfterUnmapRefaults) {
  Instance instance(1, workload_, 0, 256 * kMiB, &registry_, 1);
  instance.Execute();
  instance.Freeze(0);
  instance.UnmapIdleLibraries();
  const SimTime cost = instance.Thaw();
  EXPECT_GT(cost, 0u);
}

TEST_F(InstanceTest, SwapOutAndRefault) {
  Instance instance(1, workload_, 0, 256 * kMiB, &registry_, 1);
  instance.Execute();
  const uint64_t swapped = instance.SwapOut(1000);
  EXPECT_GT(swapped, 0u);
  // The next execution pays expensive swap-ins.
  const InvocationOutcome outcome = instance.Execute();
  EXPECT_GT(outcome.mutator.swap_ins, 0u);
}

TEST_F(InstanceTest, LambdaModePrivateRegistry) {
  Instance instance(1, workload_, 0, 256 * kMiB, /*registry=*/nullptr, 1);
  instance.Execute();
  // Image pages are private (no other mapper) and count toward USS.
  const auto smaps = instance.Usage();
  EXPECT_GT(smaps.uss, 0u);
  EXPECT_GT(instance.UnmapIdleLibraries(), 0u);
}

TEST_F(InstanceTest, IdealUssIncludesLiveAndOverhead) {
  Instance instance(1, workload_, 0, 256 * kMiB, &registry_, 1);
  instance.Execute();
  const uint64_t ideal = instance.IdealUssBytes();
  EXPECT_GE(ideal, PageAlignUp(instance.runtime().ExactLiveBytes()));
  EXPECT_LE(ideal, instance.Usage().uss);
}

// ---------------------------------------------------------------------------
// ChainStudy

// Region storage follows the peak number of live regions, not every region
// ever mapped: a warm V8 instance maps and unmaps chunks on every GC cycle,
// and each unmapped chunk's slot serves the next one. (Before slots were
// reused, 1000 warm pi invocations left 1378 region ids for 270 live
// regions; now 271 slots hold 269.)
TEST(InstanceRegionTest, RegionStorageStaysBoundedOverWarmInvocations) {
  SharedFileRegistry registry;
  Instance instance(1, FindWorkload("pi"), 0, 256 * kMiB, &registry, 1);
  const VirtualAddressSpace& vas = instance.vas();
  size_t peak_live = 0;
  for (int i = 0; i < 1000; ++i) {
    instance.Execute();
    peak_live = std::max(peak_live, vas.live_regions());
  }
  EXPECT_LE(vas.region_slots(), peak_live + peak_live / 4 + 8);
}

// A working set recorded on the first invocation names chunks that later GC
// cycles unmap. Their slots are reused by newer chunks under newer ids, so
// ResidentPagesIn skips exactly the stale runs and never counts a newer
// chunk's pages against an old run.
TEST(InstanceRegionTest, StaleWorkingSetRunsAreSkipped) {
  SharedFileRegistry registry;
  Instance instance(1, FindWorkload("pi"), 0, 256 * kMiB, &registry, 1);
  instance.ArmWorkingSetRecording();
  instance.BeginWorkingSetRecording();
  instance.Execute();
  const WorkingSet ws = instance.FinishWorkingSetRecording();
  ASSERT_FALSE(ws.empty());
  RegionId newest_recorded = 0;
  for (const WorkingSetRun& run : ws.runs) {
    newest_recorded = std::max(newest_recorded, run.region);
  }
  const VirtualAddressSpace& vas = instance.vas();
  size_t stale = 0;
  for (int i = 0; i < 200 && stale == 0; ++i) {
    instance.Execute();
    instance.Freeze(0);
    instance.Reclaim({}, /*unmap_idle_libraries=*/false);
    instance.Thaw();
    stale = 0;
    for (const WorkingSetRun& run : ws.runs) {
      stale += vas.RegionLive(run.region) ? 0 : 1;
    }
  }
  ASSERT_GT(stale, 0u);
  std::vector<RegionId> stale_ids;
  for (const WorkingSetRun& run : ws.runs) {
    if (!vas.RegionLive(run.region)) {
      stale_ids.push_back(run.region);
    }
  }
  // Regrow the young generation: new chunks move into the parked slots, and
  // the stale ids must stay dead.
  for (int i = 0; i < 5; ++i) {
    instance.Execute();
  }
  for (const RegionId id : stale_ids) {
    EXPECT_FALSE(vas.RegionLive(id));
  }
  uint64_t expected = 0;
  for (const WorkingSetRun& run : ws.runs) {
    if (vas.RegionLive(run.region)) {
      expected += vas.ResidentPagesInRange(run.region, PagesToBytes(run.first_page),
                                           PagesToBytes(run.pages));
    }
  }
  EXPECT_EQ(instance.ResidentPagesIn(ws), expected);
  // The stale runs' slots hold regions mapped after the recording.
  bool newer_region = false;
  for (const RegionInfo& info : vas.Smaps()) {
    newer_region |= info.id > newest_recorded;
  }
  EXPECT_TRUE(newer_region);
}

TEST(ChainStudyTest, StepSamplesAllStages) {
  StudyConfig config;
  ChainStudy study(*FindWorkload("mapreduce"), config);
  const ChainSample sample = study.Step();
  EXPECT_EQ(study.instances().size(), 2u);
  EXPECT_GT(sample.uss, 0u);
  EXPECT_GT(sample.duration, 0u);
  EXPECT_GE(sample.rss, sample.uss);
  EXPECT_GE(sample.uss, sample.ideal_uss / 2);
}

TEST(ChainStudyTest, EagerModeReducesMemory) {
  StudyConfig vanilla_config;
  StudyConfig eager_config;
  eager_config.mode = StudyMode::kEager;
  ChainStudy vanilla(*FindWorkload("file-hash"), vanilla_config);
  ChainStudy eager(*FindWorkload("file-hash"), eager_config);
  ChainSample v;
  ChainSample e;
  for (int i = 0; i < 30; ++i) {
    v = vanilla.Step();
    e = eager.Step();
  }
  EXPECT_LT(e.uss, v.uss);
}

TEST(ChainStudyTest, ReclaimApproachesIdeal) {
  StudyConfig config;
  ChainStudy study(*FindWorkload("file-hash"), config);
  for (int i = 0; i < 30; ++i) {
    study.Step();
  }
  study.ReclaimAll();
  const ChainSample sample = study.Sample();
  EXPECT_LE(sample.uss, sample.ideal_uss * 11 / 10);  // within 10% of ideal
}

TEST(ChainStudyTest, SharedNodeExcludesImagesFromUss) {
  StudyConfig shared;
  StudyConfig lambda;
  lambda.sharing = ImageSharing::kLambdaPrivate;
  ChainStudy a(*FindWorkload("sort"), shared);
  ChainStudy b(*FindWorkload("sort"), lambda);
  const ChainSample sa = a.Step();
  const ChainSample sb = b.Step();
  // Private images inflate the Lambda-mode USS by roughly the image size.
  EXPECT_GT(sb.uss, sa.uss + 16 * kMiB);
}

TEST(ChainStudyTest, SwapOutAllPushesPages) {
  StudyConfig config;
  ChainStudy study(*FindWorkload("sort"), config);
  study.Step();
  EXPECT_GT(study.SwapOutAll(500), 0u);
}

// ---------------------------------------------------------------------------
// Platform

PlatformConfig SmallPlatform(MemoryMode mode) {
  PlatformConfig config;
  config.mode = mode;
  config.cache_capacity_bytes = 512 * kMiB;
  config.cpu_cores = 4.0;
  return config;
}

TEST(PlatformTest, SingleRequestColdBoots) {
  Platform platform(SmallPlatform(MemoryMode::kVanilla));
  platform.BeginMeasurement();
  platform.Submit(FindWorkload("sort"), kSecond);
  platform.Run();
  const PlatformMetrics& m = platform.FinishMeasurement();
  EXPECT_EQ(m.requests_completed, 1u);
  EXPECT_EQ(m.cold_boots, 1u);
  EXPECT_EQ(m.warm_starts, 0u);
  // Latency includes the cold boot.
  EXPECT_GT(m.latency_ms.Percentile(50), ToMillis(280 * kMillisecond));
}

TEST(PlatformTest, SecondRequestWarmStarts) {
  Platform platform(SmallPlatform(MemoryMode::kVanilla));
  platform.BeginMeasurement();
  platform.Submit(FindWorkload("sort"), kSecond);
  platform.Submit(FindWorkload("sort"), 10 * kSecond);
  platform.Run();
  const PlatformMetrics& m = platform.FinishMeasurement();
  EXPECT_EQ(m.requests_completed, 2u);
  EXPECT_EQ(m.cold_boots, 1u);
  EXPECT_EQ(m.warm_starts, 1u);
}

TEST(PlatformTest, ChainRunsAllStages) {
  Platform platform(SmallPlatform(MemoryMode::kVanilla));
  platform.BeginMeasurement();
  platform.Submit(FindWorkload("mapreduce"), kSecond);
  platform.Run();
  const PlatformMetrics& m = platform.FinishMeasurement();
  EXPECT_EQ(m.requests_completed, 1u);
  EXPECT_EQ(m.stage_invocations, 2u);
  EXPECT_EQ(m.cold_boots, 2u);  // one container per stage
}

TEST(PlatformTest, ConcurrentRequestsSpawnMultipleInstances) {
  Platform platform(SmallPlatform(MemoryMode::kVanilla));
  platform.BeginMeasurement();
  for (int i = 0; i < 3; ++i) {
    platform.Submit(FindWorkload("sort"), kSecond);
  }
  platform.Run();
  const PlatformMetrics& m = platform.FinishMeasurement();
  EXPECT_EQ(m.requests_completed, 3u);
  EXPECT_EQ(m.cold_boots, 3u);  // all arrive before any instance is warm
}

TEST(PlatformTest, EvictionUnderCachePressure) {
  PlatformConfig config = SmallPlatform(MemoryMode::kVanilla);
  config.cache_capacity_bytes = 96 * kMiB;  // tiny: forces eviction at freeze
  Platform platform(config);
  platform.BeginMeasurement();
  // Boot many distinct functions; their frozen USS cannot all fit.
  const char* names[] = {"sort", "file-hash", "image-resize", "fft", "matrix"};
  SimTime at = kSecond;
  for (const char* name : names) {
    platform.Submit(FindWorkload(name), at);
    at += 5 * kSecond;
  }
  platform.Run();
  const PlatformMetrics& m = platform.FinishMeasurement();
  EXPECT_EQ(m.requests_completed, 5u);
  EXPECT_GT(m.evictions, 0u);
}

TEST(PlatformTest, KeepAliveDestroysIdleInstances) {
  PlatformConfig config = SmallPlatform(MemoryMode::kVanilla);
  config.keep_alive = 30 * kSecond;
  Platform platform(config);
  platform.BeginMeasurement();
  platform.Submit(FindWorkload("sort"), kSecond);
  platform.Run();
  const PlatformMetrics& m = platform.FinishMeasurement();
  EXPECT_EQ(m.keepalive_destroys, 1u);
  EXPECT_EQ(platform.live_instance_count(), 0u);
}

TEST(PlatformTest, KeepAliveResetByReuse) {
  PlatformConfig config = SmallPlatform(MemoryMode::kVanilla);
  config.keep_alive = 30 * kSecond;
  Platform platform(config);
  platform.Submit(FindWorkload("sort"), kSecond);
  // Reused at 20 s: the first keep-alive check must not fire.
  platform.Submit(FindWorkload("sort"), 20 * kSecond);
  platform.RunUntil(40 * kSecond);
  EXPECT_EQ(platform.live_instance_count(), 1u);
  platform.Run();
  EXPECT_EQ(platform.live_instance_count(), 0u);
}

TEST(PlatformTest, EagerModeRunsGcAtExit) {
  Platform vanilla(SmallPlatform(MemoryMode::kVanilla));
  Platform eager(SmallPlatform(MemoryMode::kEager));
  for (Platform* p : {&vanilla, &eager}) {
    p->BeginMeasurement();
    for (int i = 0; i < 10; ++i) {
      p->Submit(FindWorkload("file-hash"), i * 3 * kSecond);
    }
    p->RunUntil(40 * kSecond);
  }
  EXPECT_GT(eager.metrics().eager_gc_cpu_core_s, 0.0);
  EXPECT_DOUBLE_EQ(vanilla.metrics().eager_gc_cpu_core_s, 0.0);
  // Eager's frozen instances are smaller.
  EXPECT_LT(eager.FrozenMemoryBytes(), vanilla.FrozenMemoryBytes());
}

TEST(PlatformTest, TryStartReclaimOnFrozenInstance) {
  Platform platform(SmallPlatform(MemoryMode::kDesiccant));
  platform.BeginMeasurement();
  platform.Submit(FindWorkload("fft"), kSecond);
  platform.RunUntil(30 * kSecond);  // before the keep-alive expiry
  auto frozen = platform.FrozenInstances();
  ASSERT_EQ(frozen.size(), 1u);
  const uint64_t before = platform.FrozenMemoryBytes();
  EXPECT_TRUE(platform.TryStartReclaim(frozen[0], {}, true));
  EXPECT_LT(platform.FrozenMemoryBytes(), before);
  EXPECT_FALSE(platform.TryStartReclaim(frozen[0], {}, true));  // already done
  platform.RunUntil(60 * kSecond);  // drain the reclaim-completion event
  EXPECT_FALSE(frozen[0]->reclaim_in_progress());
}

TEST(PlatformTest, ReclaimObserverGetsProfile) {
  struct Recorder : PlatformObserver {
    void OnReclaimDone(FunctionId function, Instance* instance,
                       const ReclaimResult& result) override {
      functions.push_back(function);
      last = result;
      (void)instance;
    }
    std::vector<FunctionId> functions;
    ReclaimResult last;
  } recorder;
  Platform platform(SmallPlatform(MemoryMode::kDesiccant));
  platform.set_observer(&recorder);
  platform.Submit(FindWorkload("fft"), kSecond);
  platform.RunUntil(20 * kSecond);
  auto frozen = platform.FrozenInstances();
  ASSERT_FALSE(frozen.empty());
  platform.TryStartReclaim(frozen[0], {}, true);
  platform.Run();
  ASSERT_EQ(recorder.functions.size(), 1u);
  EXPECT_EQ(platform.functions().Name(recorder.functions[0]), "fft#0");
  EXPECT_GT(recorder.last.cpu_time, 0u);
}

TEST(PlatformTest, CpuUtilizationPositive) {
  Platform platform(SmallPlatform(MemoryMode::kVanilla));
  platform.BeginMeasurement();
  platform.Submit(FindWorkload("sort"), kSecond);
  platform.RunUntil(30 * kSecond);
  const PlatformMetrics& m = platform.FinishMeasurement();
  EXPECT_GT(m.cpu_busy_core_s, 0.0);
  EXPECT_GT(m.CpuUtilization(4.0), 0.0);
  EXPECT_LT(m.CpuUtilization(4.0), 1.0);
}

TEST(PlatformTest, MeasurementWindowExcludesWarmup) {
  Platform platform(SmallPlatform(MemoryMode::kVanilla));
  platform.Submit(FindWorkload("sort"), kSecond);
  platform.RunUntil(20 * kSecond);  // warm-up: cold boot happens here
  platform.BeginMeasurement();
  platform.Submit(FindWorkload("sort"), 21 * kSecond);
  platform.RunUntil(40 * kSecond);
  const PlatformMetrics& m = platform.FinishMeasurement();
  EXPECT_EQ(m.cold_boots, 0u);
  EXPECT_EQ(m.warm_starts, 1u);
  EXPECT_EQ(m.requests_completed, 1u);
}

TEST(PlatformTest, MemoryChargeReturnsToZero) {
  PlatformConfig config = SmallPlatform(MemoryMode::kVanilla);
  config.keep_alive = 10 * kSecond;
  Platform platform(config);
  for (int i = 0; i < 5; ++i) {
    platform.Submit(FindWorkload("mapreduce"), i * kSecond);
  }
  platform.Run();
  EXPECT_EQ(platform.live_instance_count(), 0u);
  EXPECT_EQ(platform.memory_charged(), 0u);
}

TEST(PlatformTest, SnapStartShortensColdStarts) {
  PlatformConfig slow = SmallPlatform(MemoryMode::kVanilla);
  PlatformConfig fast = SmallPlatform(MemoryMode::kVanilla);
  fast.snapstart_restore = true;
  Platform a(slow);
  Platform b(fast);
  for (Platform* p : {&a, &b}) {
    p->BeginMeasurement();
    p->Submit(FindWorkload("sort"), kSecond);
    p->RunUntil(30 * kSecond);
  }
  // Both cold-start once, but the restore path is much faster.
  EXPECT_EQ(a.metrics().cold_boots, 1u);
  EXPECT_EQ(b.metrics().cold_boots, 1u);
  EXPECT_LT(b.metrics().latency_ms.Percentile(50),
            a.metrics().latency_ms.Percentile(50) - 200.0);
}

TEST(PlatformTest, PrewarmPoolAdoptsInsteadOfBooting) {
  PlatformConfig config = SmallPlatform(MemoryMode::kVanilla);
  config.prewarm_per_language = 1;
  Platform platform(config);
  // First request boots cold (the pool is still empty) and seeds the pool.
  platform.Submit(FindWorkload("sort"), kSecond);
  platform.RunUntil(15 * kSecond);
  platform.BeginMeasurement();
  // A different Java function arrives: no warm instance for it, but the stem
  // cell can be adopted.
  platform.Submit(FindWorkload("file-hash"), 16 * kSecond);
  platform.RunUntil(40 * kSecond);
  const PlatformMetrics& m = platform.FinishMeasurement();
  EXPECT_EQ(m.cold_boots, 0u);
  EXPECT_EQ(m.prewarm_adoptions, 1u);
  EXPECT_EQ(m.requests_completed, 1u);
}

TEST(PlatformTest, PrewarmAdoptionFasterThanColdBoot) {
  PlatformConfig cold_config = SmallPlatform(MemoryMode::kVanilla);
  PlatformConfig warm_config = cold_config;
  warm_config.prewarm_per_language = 1;
  Platform cold(cold_config);
  Platform warm(warm_config);
  // Seed the warm platform's pool.
  warm.Submit(FindWorkload("sort"), kSecond);
  warm.RunUntil(15 * kSecond);
  warm.BeginMeasurement();
  warm.Submit(FindWorkload("file-hash"), 16 * kSecond);
  warm.RunUntil(40 * kSecond);
  cold.BeginMeasurement();
  cold.Submit(FindWorkload("file-hash"), 16 * kSecond);
  cold.RunUntil(40 * kSecond);
  EXPECT_LT(warm.metrics().latency_ms.Percentile(50),
            cold.metrics().latency_ms.Percentile(50));
}

TEST(PlatformTest, ReclaimsArePreemptedByNewWork) {
  // A reclaim holding a big CPU share gives slices back when a request needs
  // them (§4.5.2), stretching its own completion instead of blocking work.
  PlatformConfig config = SmallPlatform(MemoryMode::kDesiccant);
  config.cpu_cores = 0.6;  // reclaim takes min(idle, 1.0) = most of the node
  Platform platform(config);
  platform.Submit(FindWorkload("fft"), kSecond);
  platform.RunUntil(20 * kSecond);
  auto frozen = platform.FrozenInstances();
  ASSERT_EQ(frozen.size(), 1u);
  ASSERT_TRUE(platform.TryStartReclaim(frozen[0], {}, true));
  ASSERT_EQ(platform.active_reclaim_count(), 1u);
  const double idle_during_reclaim = platform.IdleCpu();
  EXPECT_LT(idle_during_reclaim, 0.14);  // not enough left for an invocation

  // A new request arrives while the reclaim holds the CPU: it must not wait
  // for the reclaim to finish.
  platform.Submit(FindWorkload("sort"), platform.clock().Now() + kMillisecond);
  platform.BeginMeasurement();
  platform.RunUntil(platform.clock().Now() + 60 * kSecond);
  EXPECT_EQ(platform.metrics().requests_completed, 1u);
  // And the reclaim still completed eventually.
  EXPECT_EQ(platform.active_reclaim_count(), 0u);
  EXPECT_FALSE(frozen[0]->reclaim_in_progress());
}

TEST(PlatformTest, ProvisionedConcurrencySkipsColdBoots) {
  PlatformConfig config = SmallPlatform(MemoryMode::kVanilla);
  Platform platform(config);
  platform.ProvisionConcurrency(FindWorkload("sort"), 2);
  platform.RunUntil(5 * kSecond);  // provisioning boots complete
  platform.BeginMeasurement();
  platform.Submit(FindWorkload("sort"), 6 * kSecond);
  platform.Submit(FindWorkload("sort"), 6 * kSecond + kMillisecond);
  platform.RunUntil(30 * kSecond);
  const PlatformMetrics& m = platform.FinishMeasurement();
  EXPECT_EQ(m.cold_boots, 0u);
  EXPECT_EQ(m.warm_starts, 2u);
}

TEST(PlatformTest, ProvisionedInstancesSurviveKeepAlive) {
  PlatformConfig config = SmallPlatform(MemoryMode::kVanilla);
  config.keep_alive = 10 * kSecond;
  Platform platform(config);
  platform.ProvisionConcurrency(FindWorkload("sort"), 1);
  platform.Run();  // drains: keep-alive fires and must not destroy it
  EXPECT_EQ(platform.live_instance_count(), 1u);
  EXPECT_EQ(platform.FrozenInstances().size(), 1u);
}

TEST(PlatformTest, ProvisionedInstancesNeverEvicted) {
  PlatformConfig config = SmallPlatform(MemoryMode::kVanilla);
  config.cache_capacity_bytes = 96 * kMiB;
  Platform platform(config);
  platform.ProvisionConcurrency(FindWorkload("sort"), 1);
  platform.RunUntil(5 * kSecond);
  ASSERT_EQ(platform.FrozenInstances().size(), 1u);
  const uint64_t provisioned_id = platform.FrozenInstances()[0]->id();
  // Pressure from other functions evicts the unprovisioned ones only.
  platform.Submit(FindWorkload("fft"), 6 * kSecond);
  platform.Submit(FindWorkload("matrix"), 9 * kSecond);
  platform.Submit(FindWorkload("image-resize"), 12 * kSecond);
  platform.RunUntil(60 * kSecond);
  bool provisioned_alive = false;
  for (Instance* frozen : platform.FrozenInstances()) {
    if (frozen->id() == provisioned_id) {
      provisioned_alive = true;
    }
  }
  EXPECT_TRUE(provisioned_alive);
}

TEST(PlatformTest, FreezeGraceDelaysFreezing) {
  PlatformConfig config = SmallPlatform(MemoryMode::kVanilla);
  config.freeze_grace = 100 * kMillisecond;
  Platform platform(config);
  platform.Submit(FindWorkload("time"), kSecond);
  // Run until just after the completion event: the instance must still be
  // running (the grace window), then frozen once the grace elapses.
  platform.RunUntil(2 * kSecond);
  // Find the completion by scanning activations.
  const auto records = platform.RecentActivations();
  ASSERT_EQ(records.size(), 1u);
  const SimTime completion = records[0].completion;
  EXPECT_TRUE(platform.FrozenInstances().empty() ||
              platform.FrozenInstances()[0]->frozen_since() >=
                  completion + config.freeze_grace);
  platform.RunUntil(completion + 2 * config.freeze_grace);
  ASSERT_EQ(platform.FrozenInstances().size(), 1u);
  EXPECT_EQ(platform.FrozenInstances()[0]->frozen_since(), completion + config.freeze_grace);
}

TEST(PlatformTest, ActivationRecordsLogged) {
  Platform platform(SmallPlatform(MemoryMode::kVanilla));
  platform.Submit(FindWorkload("mapreduce"), kSecond);
  platform.Submit(FindWorkload("mapreduce"), 20 * kSecond);
  platform.RunUntil(60 * kSecond);
  const auto records = platform.RecentActivations();
  ASSERT_EQ(records.size(), 4u);  // 2 requests x 2 stages
  EXPECT_EQ(records[0].function_key, "mapreduce#0");
  EXPECT_EQ(records[0].start, ActivationRecord::Start::kCold);
  EXPECT_EQ(records[1].function_key, "mapreduce#1");
  // The second request reused both instances.
  EXPECT_EQ(records[2].start, ActivationRecord::Start::kWarm);
  EXPECT_EQ(records[3].start, ActivationRecord::Start::kWarm);
  EXPECT_LT(records[0].arrival, records[0].completion);
}

TEST(PlatformTest, SwapModeSwapsInsteadOfEvicting) {
  PlatformConfig config = SmallPlatform(MemoryMode::kSwap);
  config.cache_capacity_bytes = 96 * kMiB;  // tight: pressure at every freeze
  Platform platform(config);
  platform.BeginMeasurement();
  const char* names[] = {"sort", "file-hash", "image-resize", "fft", "matrix"};
  SimTime at = kSecond;
  for (const char* name : names) {
    platform.Submit(FindWorkload(name), at);
    at += 5 * kSecond;
  }
  platform.RunUntil(at + 20 * kSecond);
  const PlatformMetrics& m = platform.metrics();
  EXPECT_EQ(m.requests_completed, 5u);
  EXPECT_GT(m.swap_outs, 0u);
  // Swapping kept instances alive that vanilla would have evicted.
  PlatformConfig vanilla_config = config;
  vanilla_config.mode = MemoryMode::kVanilla;
  Platform vanilla(vanilla_config);
  vanilla.BeginMeasurement();
  at = kSecond;
  for (const char* name : names) {
    vanilla.Submit(FindWorkload(name), at);
    at += 5 * kSecond;
  }
  vanilla.RunUntil(at + 20 * kSecond);
  EXPECT_GT(platform.live_instance_count(), vanilla.live_instance_count());
  EXPECT_GT(vanilla.metrics().evictions, m.evictions);
}

TEST(PlatformTest, SwappedInstancePaysSwapInsOnReuse) {
  PlatformConfig config = SmallPlatform(MemoryMode::kSwap);
  // Big enough to admit each instance, too small for both: the first one
  // gets partially swapped when the second freezes.
  config.cache_capacity_bytes = 100 * kMiB;
  Platform platform(config);
  platform.Submit(FindWorkload("fft"), kSecond);
  platform.Submit(FindWorkload("sort"), 6 * kSecond);   // pressures fft out
  platform.Submit(FindWorkload("fft"), 12 * kSecond);   // reuse: swap-ins
  platform.BeginMeasurement();
  platform.RunUntil(60 * kSecond);
  EXPECT_GE(platform.metrics().warm_starts, 1u);
}

TEST(PlatformTest, G1CollectorSelectable) {
  PlatformConfig config = SmallPlatform(MemoryMode::kVanilla);
  config.java_collector = JavaCollector::kG1;
  Platform platform(config);
  platform.BeginMeasurement();
  platform.Submit(FindWorkload("sort"), kSecond);
  platform.RunUntil(30 * kSecond);
  EXPECT_EQ(platform.metrics().requests_completed, 1u);
  auto frozen = platform.FrozenInstances();
  ASSERT_EQ(frozen.size(), 1u);
  // It really is a different heap: G1 stats report region-quantized capacity.
  EXPECT_EQ(frozen[0]->runtime().GetHeapStats().committed_bytes % kMiB, 0u);
  // And Desiccant's reclaim works against it.
  const uint64_t before = frozen[0]->CachedUss();
  frozen[0]->Reclaim({}, true);
  EXPECT_LT(frozen[0]->CachedUss(), before);
}

TEST(ChainStudyTest, G1StudyRunsAndReclaims) {
  StudyConfig config;
  config.java_collector = JavaCollector::kG1;
  ChainStudy study(*FindWorkload("file-hash"), config);
  ChainSample sample;
  for (int i = 0; i < 30; ++i) {
    sample = study.Step();
  }
  const uint64_t vanilla = sample.uss;
  study.ReclaimAll();
  EXPECT_LT(study.Sample().uss, vanilla);
}

TEST(PlatformTest, ModeNames) {
  EXPECT_STREQ(MemoryModeName(MemoryMode::kVanilla), "vanilla");
  EXPECT_STREQ(MemoryModeName(MemoryMode::kEager), "eager");
  EXPECT_STREQ(MemoryModeName(MemoryMode::kDesiccant), "desiccant");
  EXPECT_STREQ(MemoryModeName(MemoryMode::kSwap), "swap");
}

}  // namespace
}  // namespace desiccant
