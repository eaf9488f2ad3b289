// Edge-case battery: scenarios that previously exposed bugs, boundary
// conditions the main suites don't reach, and the newer observability
// surfaces (GC logs, adaptive tenuring, freeze grace), plus the golden
// simulation fingerprints the exactness-preserving refactors are pinned to.
#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/core/desiccant_manager.h"
#include "src/faas/cluster.h"
#include "src/faas/platform.h"
#include "src/faas/single_study.h"
#include "src/hotspot/hotspot_runtime.h"
#include "src/v8/v8_runtime.h"

namespace desiccant {
namespace {

// ---------------------------------------------------------------------------
// GC log

TEST(GcLogTest, RecordsYoungFullAndReclaim) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  HotSpotRuntime runtime(&vas, &clock, HotSpotConfig::ForInstanceBudget(256 * kMiB),
                         &registry);
  const uint64_t eden = runtime.eden().capacity();
  for (uint64_t allocated = 0; allocated <= eden; allocated += 32 * kKiB) {
    runtime.AllocateObject(32 * kKiB);
  }
  runtime.CollectGarbage(false);
  runtime.Reclaim({});
  const auto& log = runtime.gc_log();
  ASSERT_GE(log.size(), 3u);
  EXPECT_EQ(log.front().kind, GcLogEntry::Kind::kYoung);
  EXPECT_EQ(log.back().kind, GcLogEntry::Kind::kReclaim);
  EXPECT_GT(log.back().released_pages, 0u);
  for (const GcLogEntry& entry : log) {
    EXPECT_GT(entry.pause, 0u);
    EXPECT_LE(entry.live_bytes, entry.committed_bytes);
  }
}

TEST(GcLogTest, RingIsBounded) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  V8Config config = V8Config::ForInstanceBudget(256 * kMiB);
  V8Runtime runtime(&vas, &clock, config, &registry);
  for (int i = 0; i < 600; ++i) {
    runtime.CollectGarbage(false);
    clock.AdvanceBy(kMillisecond);
  }
  EXPECT_LE(runtime.gc_log().size(), 512u);
}

TEST(GcLogTest, KindNames) {
  EXPECT_STREQ(GcLogKindName(GcLogEntry::Kind::kYoung), "young");
  EXPECT_STREQ(GcLogKindName(GcLogEntry::Kind::kFull), "full");
  EXPECT_STREQ(GcLogKindName(GcLogEntry::Kind::kReclaim), "reclaim");
}

// ---------------------------------------------------------------------------
// Adaptive tenuring

TEST(AdaptiveTenuringTest, ThresholdDropsWhenSurvivorsCrowd) {
  HotSpotConfig config = HotSpotConfig::ForInstanceBudget(256 * kMiB);
  config.adaptive_tenuring = true;
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  HotSpotRuntime runtime(&vas, &clock, config, &registry);
  EXPECT_EQ(runtime.effective_tenuring(), config.tenuring_threshold);

  // A live window close to the survivor capacity crowds the survivors.
  std::vector<RootTable::Handle> window;
  const uint64_t survivor = runtime.from_space().capacity();
  uint64_t rooted = 0;
  while (rooted < survivor * 3 / 4) {
    SimObject* obj = runtime.AllocateObject(64 * kKiB);
    window.push_back(runtime.strong_roots().Create(obj));
    rooted += obj->size;
  }
  const uint64_t eden = runtime.eden().capacity();
  for (int round = 0; round < 4; ++round) {
    for (uint64_t allocated = 0; allocated <= eden; allocated += 64 * kKiB) {
      runtime.AllocateObject(64 * kKiB);
    }
  }
  EXPECT_LT(runtime.effective_tenuring(), config.tenuring_threshold);
}

TEST(AdaptiveTenuringTest, DisabledKeepsThresholdFixed) {
  HotSpotConfig config = HotSpotConfig::ForInstanceBudget(256 * kMiB);
  config.adaptive_tenuring = false;
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  HotSpotRuntime runtime(&vas, &clock, config, &registry);
  const uint64_t eden = runtime.eden().capacity();
  for (int round = 0; round < 4; ++round) {
    for (uint64_t allocated = 0; allocated <= eden; allocated += 64 * kKiB) {
      runtime.AllocateObject(64 * kKiB);
    }
  }
  EXPECT_EQ(runtime.effective_tenuring(), config.tenuring_threshold);
}

// ---------------------------------------------------------------------------
// Boundary conditions

TEST(BoundaryTest, TinyObjectsAndHugeObjectsCoexist) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  V8Runtime runtime(&vas, &clock, V8Config::ForInstanceBudget(256 * kMiB), &registry);
  SimObject* tiny = runtime.AllocateObject(16);
  SimObject* huge = runtime.AllocateObject(2 * kMiB);
  runtime.strong_roots().Create(tiny);
  runtime.strong_roots().Create(huge);
  runtime.CollectGarbage(false);
  EXPECT_EQ(runtime.ExactLiveBytes(), 16u + 2 * kMiB);
}

TEST(BoundaryTest, ReclaimOnFreshRuntimeIsHarmless) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  HotSpotRuntime runtime(&vas, &clock, HotSpotConfig::ForInstanceBudget(256 * kMiB),
                         &registry);
  const ReclaimResult result = runtime.Reclaim({});
  EXPECT_EQ(result.live_bytes_after, 0u);
  // A freshly booted runtime has nothing resident in the heap yet.
  EXPECT_EQ(runtime.HeapResidentBytes(), 0u);
}

TEST(BoundaryTest, BackToBackReclaimsAreIdempotent) {
  StudyConfig config;
  ChainStudy study(*FindWorkload("fft"), config);
  for (int i = 0; i < 20; ++i) {
    study.Step();
  }
  study.ReclaimAll();
  const uint64_t first = study.Sample().uss;
  study.ReclaimAll();
  EXPECT_EQ(study.Sample().uss, first);
}

TEST(BoundaryTest, ZeroLengthWindowWorkload) {
  // A workload whose window is smaller than one object still runs (the
  // interpreter clamps to one slot).
  WorkloadSpec w;
  w.name = "degenerate";
  w.language = Language::kJavaScript;
  StageSpec stage;
  stage.alloc_bytes = 256 * kKiB;
  stage.object_size = 4 * kKiB;
  stage.window_bytes = 1;
  stage.persistent_bytes = 16 * kKiB;
  stage.exec_ms = 1.0;
  w.stages.push_back(stage);
  StudyConfig config;
  ChainStudy study(w, config);
  const ChainSample sample = study.Step();
  EXPECT_GT(sample.uss, 0u);
}

TEST(BoundaryTest, EightStageChainCarriesThrough) {
  // alexa has 8 stages; every intermediate stage must consume its upstream.
  StudyConfig config;
  ChainStudy study(*FindWorkload("alexa"), config);
  for (int i = 0; i < 5; ++i) {
    study.Step();
  }
  // Within one pass each downstream stage consumed its upstream's carry
  // before executing, so at the end of the pass no stage still holds one
  // (the next pass regenerates them just before consumption).
  for (size_t stage = 0; stage < study.instances().size(); ++stage) {
    if (stage + 1 < study.instances().size()) {
      EXPECT_FALSE(study.instances()[stage]->program().has_carry())
          << "stage " << stage << " carry should have been consumed downstream";
    }
  }
  EXPECT_FALSE(study.instances().back()->program().has_carry());
}

// ---------------------------------------------------------------------------
// Combined-feature platform scenarios

TEST(CombinedTest, SwapAndDesiccantFlagsAreExclusiveButBothRun) {
  for (const MemoryMode mode : {MemoryMode::kSwap, MemoryMode::kDesiccant}) {
    PlatformConfig config;
    config.mode = mode;
    config.cache_capacity_bytes = 256 * kMiB;
    Platform platform(config);
    std::unique_ptr<DesiccantManager> manager;
    if (mode == MemoryMode::kDesiccant) {
      manager = std::make_unique<DesiccantManager>(&platform, DesiccantConfig{});
    }
    platform.BeginMeasurement();
    for (int i = 0; i < 4; ++i) {
      platform.Submit(FindWorkload("fft"), (1 + 3 * i) * kSecond);
      platform.Submit(FindWorkload("sort"), (2 + 3 * i) * kSecond);
    }
    platform.RunUntil(60 * kSecond);
    EXPECT_EQ(platform.metrics().requests_completed, 8u) << MemoryModeName(mode);
  }
}

TEST(CombinedTest, PythonWorkloadThroughThePlatform) {
  PlatformConfig config;
  Platform platform(config);
  platform.BeginMeasurement();
  platform.Submit(&PythonExtensionSuite()[2], kSecond);  // py-etl: a 2-chain
  platform.RunUntil(30 * kSecond);
  EXPECT_EQ(platform.metrics().requests_completed, 1u);
  EXPECT_EQ(platform.metrics().stage_invocations, 2u);
}

TEST(CombinedTest, ClusterWithPrewarmAndDesiccant) {
  ClusterConfig config;
  config.node_count = 2;
  config.routing = RoutingPolicy::kAffinity;
  config.node.mode = MemoryMode::kDesiccant;
  config.node.prewarm_per_language = 1;
  config.node.cache_capacity_bytes = 512 * kMiB;
  Cluster cluster(config);
  std::vector<std::unique_ptr<DesiccantManager>> managers;
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    managers.push_back(std::make_unique<DesiccantManager>(&cluster.node(i),
                                                          DesiccantConfig{}));
  }
  cluster.BeginMeasurement();
  for (int i = 0; i < 6; ++i) {
    cluster.Submit(FindWorkload("sort"), (1 + 2 * i) * kSecond);
    cluster.Submit(FindWorkload("fft"), (2 + 2 * i) * kSecond);
  }
  cluster.RunUntil(60 * kSecond);
  const PlatformMetrics m = cluster.AggregateMetrics();
  EXPECT_EQ(m.requests_completed, 12u);
}

TEST(CombinedTest, GraceWindowPlusEagerGc) {
  PlatformConfig config;
  config.mode = MemoryMode::kEager;
  config.freeze_grace = 50 * kMillisecond;
  Platform platform(config);
  platform.BeginMeasurement();
  platform.Submit(FindWorkload("sort"), kSecond);
  platform.Submit(FindWorkload("sort"), 10 * kSecond);
  platform.RunUntil(40 * kSecond);
  // Eager GC runs at exit and the instance still freezes (grace applies only
  // to the non-eager path; eager's GC occupancy already delays the freeze).
  EXPECT_EQ(platform.metrics().requests_completed, 2u);
  EXPECT_EQ(platform.metrics().warm_starts, 1u);
  EXPECT_GT(platform.metrics().eager_gc_cpu_core_s, 0.0);
}

// ---------------------------------------------------------------------------
// Golden fingerprints: one small fig04-style chain cell and one small
// fig09-style replay cell pinned to recorded constants. The heap and platform
// inner loops are rebuilt PR over PR under a byte-exactness contract; any
// change that perturbs simulation state (an extra RNG draw, a reordered GC,
// a fault charged differently) shows up here as a changed constant.

TEST(GoldenFingerprintTest, SingleFunctionCellIsStable) {
  const WorkloadSpec* workload = FindWorkload("sort");
  ASSERT_NE(workload, nullptr);
  const SingleFunctionResult result =
      RunSingleFunction(*workload, /*budget=*/256 * kMiB, /*iterations=*/20);
  EXPECT_EQ(result.vanilla.uss, 40009728u);
  EXPECT_EQ(result.vanilla.ideal_uss, 17305600u);
  EXPECT_EQ(result.vanilla.duration, 18000000u);
  EXPECT_EQ(result.eager.uss, 26918912u);
  EXPECT_EQ(result.desiccant.uss, 17305600u);
}

TEST(GoldenFingerprintTest, InstanceGcLogCountsAreStable) {
  SharedFileRegistry registry;
  Instance instance(1, FindWorkload("mapreduce"), /*stage=*/0, 256 * kMiB, &registry,
                    /*seed=*/1);
  for (int i = 0; i < 25; ++i) {
    instance.Execute();
    // The downstream stage reads the carry after every invocation, as the
    // platform would; otherwise carries pile up until a simulated OOM.
    instance.program().ConsumeCarry(instance.runtime());
  }
  size_t young = 0;
  size_t full = 0;
  for (const GcLogEntry& entry : instance.runtime().gc_log()) {
    young += entry.kind == GcLogEntry::Kind::kYoung;
    full += entry.kind == GcLogEntry::Kind::kFull;
  }
  EXPECT_EQ(young, 62u);
  EXPECT_EQ(full, 15u);
}

// Churn-loop exactness pin: per-invocation outcomes, GC-log counts and final
// USS of one instance per runtime over 25 invocations, on heaps small enough
// that collections fire in the middle of the program's 32-object clock
// batches. Any change to the churn loop's RNG draw order, allocation order,
// link order or fault charging moves these constants.
struct ChurnPin {
  uint64_t outcomes = 0;  // FNV-1a over every InvocationOutcome field
  size_t young = 0;
  size_t full = 0;
  uint64_t uss = 0;
};

uint64_t FoldFnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FoldOutcome(uint64_t h, const InvocationOutcome& o) {
  h = FoldFnv(h, o.duration);
  h = FoldFnv(h, o.mutator.allocated_bytes);
  h = FoldFnv(h, o.mutator.allocated_objects);
  h = FoldFnv(h, o.mutator.gc_time);
  h = FoldFnv(h, o.mutator.fault_time);
  h = FoldFnv(h, o.mutator.minor_faults);
  h = FoldFnv(h, o.mutator.swap_ins);
  h = FoldFnv(h, o.mutator.direct_reclaim_pages);
  h = FoldFnv(h, static_cast<uint64_t>(o.exec_multiplier * 1e6));
  return FoldFnv(h, o.oom_killed ? 1 : 0);
}

ChurnPin PinInstance(Instance& instance, uint64_t h) {
  ChurnPin pin;
  for (const GcLogEntry& entry : instance.runtime().gc_log()) {
    pin.young += entry.kind == GcLogEntry::Kind::kYoung;
    pin.full += entry.kind == GcLogEntry::Kind::kFull;
  }
  pin.outcomes = h;
  pin.uss = instance.Usage().uss;
  return pin;
}

ChurnPin RunChurnPin(const WorkloadSpec* workload, JavaCollector collector,
                     uint64_t budget) {
  SharedFileRegistry registry;
  Instance instance(1, workload, /*stage=*/0, budget, &registry, /*seed=*/7, collector);
  uint64_t h = 14695981039346656037ull;
  for (int i = 0; i < 25; ++i) {
    h = FoldOutcome(h, instance.Execute());
    instance.program().ConsumeCarry(instance.runtime());
  }
  return PinInstance(instance, h);
}

const WorkloadSpec* FindPythonWorkload(const std::string& name) {
  for (const WorkloadSpec& w : PythonExtensionSuite()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

void ExpectPin(const ChurnPin& pin, uint64_t outcomes, size_t young, size_t full,
               uint64_t uss) {
  EXPECT_EQ(pin.outcomes, outcomes);
  EXPECT_EQ(pin.young, young);
  EXPECT_EQ(pin.full, full);
  EXPECT_EQ(pin.uss, uss);
}

TEST(GoldenFingerprintTest, ChurnLoopOutcomesAreStable) {
  ExpectPin(RunChurnPin(FindWorkload("sort"), JavaCollector::kSerial, 32 * kMiB),
            6233958923443855527u, 24, 0, 83677184u);
  ExpectPin(RunChurnPin(FindWorkload("file-hash"), JavaCollector::kG1, 32 * kMiB),
            7682921030883039692u, 16, 0, 80527360u);
  ExpectPin(RunChurnPin(FindWorkload("dynamic-html"), JavaCollector::kSerial, 32 * kMiB),
            8241783695304873213u, 80, 0, 78864384u);
  ExpectPin(RunChurnPin(FindPythonWorkload("py-json-transform"), JavaCollector::kSerial,
                        32 * kMiB),
            2379650336610842639u, 0, 39, 29097984u);
}

// The same pin with the pressure model on: two instances share a node too
// small for both, so commits run the reclaim ladder mid-invocation.
TEST(GoldenFingerprintTest, ChurnLoopUnderPressureIsStable) {
  PhysicalMemory node(PhysicalMemoryConfig::ForBytes(96 * kMiB, 16 * kMiB));
  SharedFileRegistry registry;
  Instance java(1, FindWorkload("sort"), /*stage=*/0, 64 * kMiB, &registry, /*seed=*/7,
                JavaCollector::kSerial, &node);
  Instance js(2, FindWorkload("web-server"), /*stage=*/0, 64 * kMiB, &registry, /*seed=*/8,
              JavaCollector::kSerial, &node);
  uint64_t hj = 14695981039346656037ull;
  uint64_t hv = hj;
  for (int i = 0; i < 25; ++i) {
    hj = FoldOutcome(hj, java.Execute());
    hv = FoldOutcome(hv, js.Execute());
  }
  ExpectPin(PinInstance(java, hj), 2908609231810114848u, 13, 0, 37359616u);
  ExpectPin(PinInstance(js, hv), 7407377657757434664u, 56, 0, 52056064u);
  EXPECT_EQ(node.stats().direct_reclaim_pages + node.stats().kswapd_pages, 17289u);
  EXPECT_EQ(node.stats().commit_failures, 0u);
}

// Constants re-pinned when the Platform hot maps moved to IdSlotMap: frozen
// reclaim candidates are now canonically ordered by instance id (boot order)
// instead of inheriting unordered_map iteration order, which re-breaks
// selection-policy ties among identically-scored instances. The simulation is
// equally valid either way; what matters is that the order is now a
// documented rule rather than a container artifact (asserted by the debug
// iteration-order shuffle in IdSlotMap).
TEST(GoldenFingerprintTest, ReplayCellFingerprintIsStable) {
  ReplayConfig config;
  config.mode = MemoryMode::kDesiccant;
  config.scale_factor = 8.0;
  config.warmup_seconds = 20.0;
  config.measure_seconds = 60.0;
  const ReplayResult result = RunReplay(config);
  EXPECT_EQ(result.metrics.Fingerprint(), 1930493127956158652u);
  EXPECT_EQ(result.metrics.requests_completed, 566u);
  EXPECT_EQ(result.metrics.cold_boots, 42u);
  EXPECT_EQ(result.desiccant_reclaim_requests, 510u);
}

// The byte-exactness contract for the pressure model: compiled in but
// disabled (the default zero page budget), it must not perturb the
// simulation at all — no RNG draw, no extra fault, no counter in the
// fingerprint. The constants here are the exact same ones pinned above.
TEST(GoldenFingerprintTest, DisabledPressureModelIsByteIdentical) {
  ReplayConfig config;
  config.mode = MemoryMode::kDesiccant;
  config.scale_factor = 8.0;
  config.warmup_seconds = 20.0;
  config.measure_seconds = 60.0;
  config.node_budget_mib = 0;  // explicit: pressure model disabled
  config.swap_mib = 0;
  const ReplayResult result = RunReplay(config);
  EXPECT_EQ(result.metrics.Fingerprint(), 1930493127956158652u);
  EXPECT_EQ(result.metrics.requests_completed, 566u);
  EXPECT_EQ(result.metrics.cold_boots, 42u);
  EXPECT_EQ(result.desiccant_reclaim_requests, 510u);
  // A zero budget means no PhysicalMemory is ever constructed and no
  // pressure counter can move.
  EXPECT_EQ(result.pressure.kswapd_runs, 0u);
  EXPECT_EQ(result.pressure.direct_reclaim_events, 0u);
  EXPECT_EQ(result.pressure.swap_out_pages, 0u);
  EXPECT_EQ(result.pressure.commit_failures, 0u);
  EXPECT_EQ(result.node_pressure_activations, 0u);
}

}  // namespace
}  // namespace desiccant
