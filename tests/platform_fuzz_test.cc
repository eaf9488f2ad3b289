// Randomized end-to-end platform runs checking global invariants: requests
// never get lost, the memory charge matches the frozen population exactly,
// CPU accounting never goes negative, and Desiccant never breaks any of it.
//
// Two layers:
//   * PlatformFuzzTest — faultless random traffic; every request completes.
//   * ChaosFuzzTest / ClusterChaosFuzzTest — random workloads x random
//     FaultPlans (timeouts, boot failures, OOM kills, reclaim aborts, node
//     crashes). Requests may fail or drop, but conservation must hold:
//     completed + failed + dropped == submitted, no counter underflows, and
//     the per-event accounting invariants stay green throughout.
#include <gtest/gtest.h>

#include <type_traits>

#include "src/base/rng.h"
#include "src/core/desiccant_manager.h"
#include "src/faas/cluster.h"
#include "src/faas/platform.h"
#include "src/workloads/function_spec.h"

namespace desiccant {
namespace {

// gtest prints a parameter struct without a PrintTo as its raw bytes, and
// those bytes name the case (and its ctest entry). The parameter structs
// therefore carry no padding: uninitialised padding bytes would give the same
// case a different name in every process.
struct FuzzParams {
  uint64_t seed;
  uint64_t cache_mib;
  uint64_t prewarm;
  MemoryMode mode;
  bool snapstart;
  uint8_t zero_tail[6] = {};
};
static_assert(std::has_unique_object_representations_v<FuzzParams>);

class PlatformFuzzTest : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(PlatformFuzzTest, InvariantsHoldUnderRandomTraffic) {
  const FuzzParams params = GetParam();
  PlatformConfig config;
  config.mode = params.mode;
  config.cache_capacity_bytes = params.cache_mib * kMiB;
  config.cpu_cores = 3.0;
  config.keep_alive = 90 * kSecond;
  config.prewarm_per_language = static_cast<uint32_t>(params.prewarm);
  config.snapstart_restore = params.snapstart;
  config.seed = params.seed;
  Platform platform(config);
  // Re-count the cache charge, the committed-memory counter, and the CPU pool
  // after every event (aborts on the first discrepancy).
  platform.set_check_invariants(true);

  std::unique_ptr<DesiccantManager> manager;
  if (params.mode == MemoryMode::kDesiccant) {
    DesiccantConfig desiccant_config;
    desiccant_config.selection.freeze_timeout = 200 * kMillisecond;
    manager = std::make_unique<DesiccantManager>(&platform, desiccant_config);
  }

  // Random submissions over 60 simulated seconds.
  Rng rng(params.seed);
  const auto& suite = WorkloadSuite();
  uint64_t submitted = 0;
  double t = 0.5;
  while (t < 60.0) {
    const WorkloadSpec& w = suite[rng.UniformU64(0, suite.size() - 1)];
    platform.Submit(&w, FromSeconds(t));
    ++submitted;
    t += rng.Exponential(0.7);
  }

  platform.BeginMeasurement();
  // Interleave event processing with invariant checks.
  for (double checkpoint = 10.0; checkpoint <= 400.0; checkpoint += 10.0) {
    platform.RunUntil(FromSeconds(checkpoint));
    // The cache charge equals the sum of frozen charges — no leaks, no
    // double counting (prewarm stem cells and running instances are free).
    EXPECT_EQ(platform.memory_charged(), platform.FrozenMemoryBytes());
    EXPECT_LE(platform.memory_charged(), config.cache_capacity_bytes);
    // CPU stays within the pool.
    EXPECT_GE(platform.IdleCpu(), -1e-9);
    EXPECT_LE(platform.IdleCpu(), config.cpu_cores + 1e-9);
  }
  platform.Run();  // drain everything (keep-alive events included)
  const PlatformMetrics& m = platform.FinishMeasurement();

  // Every submitted request completed (no request is ever dropped).
  EXPECT_EQ(m.requests_completed, submitted);
  // The fault layer is off: every failure counter stays zero.
  EXPECT_EQ(m.requests_failed, 0u);
  EXPECT_EQ(m.requests_dropped, 0u);
  EXPECT_EQ(m.retries, 0u);
  EXPECT_EQ(m.oom_kills, 0u);
  // Every stage start is accounted as exactly one start type.
  EXPECT_EQ(m.cold_boots + m.warm_starts + m.prewarm_adoptions, m.stage_invocations);
  // After the drain, everything idles out.
  EXPECT_EQ(platform.FrozenMemoryBytes(), platform.memory_charged());
  EXPECT_GE(platform.IdleCpu(), config.cpu_cores - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PlatformFuzzTest,
    ::testing::Values(FuzzParams{1, 1024, 0, MemoryMode::kVanilla, false},
                      FuzzParams{2, 1024, 0, MemoryMode::kEager, false},
                      FuzzParams{3, 1024, 0, MemoryMode::kDesiccant, false},
                      FuzzParams{4, 512, 0, MemoryMode::kDesiccant, false},
                      FuzzParams{5, 512, 2, MemoryMode::kVanilla, false},
                      FuzzParams{6, 512, 2, MemoryMode::kDesiccant, false},
                      FuzzParams{7, 1024, 0, MemoryMode::kVanilla, true},
                      FuzzParams{8, 256, 1, MemoryMode::kDesiccant, true},
                      FuzzParams{9, 256, 0, MemoryMode::kEager, false},
                      FuzzParams{10, 2048, 3, MemoryMode::kDesiccant, false}));

// ---------------------------------------------------------------------------
// Chaos layer: random FaultPlans on top of random traffic.
// ---------------------------------------------------------------------------

// Derives a random-but-reproducible FaultPlan from the scenario generator.
// Each knob is enabled independently so the corpus covers single faults and
// fault combinations alike.
FaultPlan ChaosPlan(Rng& rng) {
  FaultPlan plan;
  plan.seed = rng.NextU64();
  if (rng.Chance(0.7)) {
    plan.invocation_timeout = FromSeconds(rng.Uniform(0.5, 3.0));
  }
  plan.max_invocation_retries = static_cast<uint32_t>(rng.UniformU64(0, 3));
  if (rng.Chance(0.7)) {
    plan.boot_failure_prob = rng.Uniform(0.0, 0.25);
  }
  if (rng.Chance(0.5)) {
    plan.restore_failure_prob = rng.Uniform(0.0, 0.25);
  }
  plan.max_boot_retries = static_cast<uint32_t>(rng.UniformU64(0, 3));
  if (rng.Chance(0.6)) {
    // Sometimes generous, sometimes brutally tight (a fraction of one budget).
    plan.node_memory_bytes = rng.UniformU64(600, 4000) * kMiB;
  }
  if (rng.Chance(0.6)) {
    plan.reclaim_abort_prob = rng.Uniform(0.0, 0.5);
  }
  plan.retry_backoff_base = 20 * kMillisecond;
  return plan;
}

struct ChaosParams {
  uint64_t seed;
  MemoryMode mode;
  uint8_t zero_tail[7] = {};  // explicit, zeroed padding (see FuzzParams)
};
static_assert(std::has_unique_object_representations_v<ChaosParams>);

class ChaosFuzzTest : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ChaosFuzzTest, ConservationHoldsUnderFaults) {
  const ChaosParams params = GetParam();
  Rng scenario(params.seed);

  PlatformConfig config;
  config.mode = params.mode;
  config.cache_capacity_bytes = scenario.UniformU64(512, 2048) * kMiB;
  config.cpu_cores = 3.0;
  config.keep_alive = 60 * kSecond;
  config.prewarm_per_language = static_cast<uint32_t>(scenario.UniformU64(0, 2));
  config.snapstart_restore = scenario.Chance(0.3);
  config.seed = params.seed;
  config.faults = ChaosPlan(scenario);
  Platform platform(config);
  platform.set_check_invariants(true);

  std::unique_ptr<DesiccantManager> manager;
  if (params.mode == MemoryMode::kDesiccant) {
    DesiccantConfig desiccant_config;
    desiccant_config.selection.freeze_timeout = 200 * kMillisecond;
    manager = std::make_unique<DesiccantManager>(&platform, desiccant_config);
  }

  const auto& suite = WorkloadSuite();
  uint64_t submitted = 0;
  double t = 0.5;
  while (t < 45.0) {
    const WorkloadSpec& w = suite[scenario.UniformU64(0, suite.size() - 1)];
    platform.Submit(&w, FromSeconds(t));
    ++submitted;
    t += scenario.Exponential(0.6);
  }

  platform.BeginMeasurement();
  for (double checkpoint = 10.0; checkpoint <= 300.0; checkpoint += 10.0) {
    platform.RunUntil(FromSeconds(checkpoint));
    EXPECT_EQ(platform.memory_charged(), platform.FrozenMemoryBytes());
    EXPECT_LE(platform.memory_charged(), config.cache_capacity_bytes);
    if (config.faults.node_memory_bytes > 0) {
      // The OOM killer settles before the event completes: committed memory
      // never rests above the node's capacity.
      EXPECT_LE(platform.committed_bytes(), config.faults.node_memory_bytes);
    }
    EXPECT_GE(platform.IdleCpu(), -1e-9);
    EXPECT_LE(platform.IdleCpu(), config.cpu_cores + 1e-9);
  }
  platform.Run();
  const PlatformMetrics& m = platform.FinishMeasurement();

  // Conservation: every submission terminates exactly once.
  EXPECT_EQ(m.requests_completed + m.requests_failed + m.requests_dropped, submitted);
  // No counter underflow (all uint64): retried-ok is a subset of completed,
  // the OOM split adds up, and goodput can never exceed throughput.
  EXPECT_LE(m.requests_retried_ok, m.requests_completed);
  EXPECT_EQ(m.oom_kills, m.oom_kills_frozen + m.oom_kills_running);
  EXPECT_LE(m.GoodputRps(), m.ThroughputRps() + 1e-9);
  EXPECT_GE(m.SuccessFraction(), 0.0);
  EXPECT_LE(m.SuccessFraction(), 1.0);
  // After the drain the node is quiescent.
  EXPECT_GE(platform.IdleCpu(), config.cpu_cores - 1e-9);
  EXPECT_EQ(platform.memory_charged(), platform.FrozenMemoryBytes());
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ChaosFuzzTest,
    ::testing::Values(ChaosParams{101, MemoryMode::kVanilla},
                      ChaosParams{101, MemoryMode::kEager},
                      ChaosParams{101, MemoryMode::kDesiccant},
                      ChaosParams{101, MemoryMode::kSwap},
                      ChaosParams{102, MemoryMode::kVanilla},
                      ChaosParams{102, MemoryMode::kEager},
                      ChaosParams{102, MemoryMode::kDesiccant},
                      ChaosParams{102, MemoryMode::kSwap},
                      ChaosParams{103, MemoryMode::kVanilla},
                      ChaosParams{103, MemoryMode::kEager},
                      ChaosParams{103, MemoryMode::kDesiccant},
                      ChaosParams{103, MemoryMode::kSwap}));

// ---------------------------------------------------------------------------
// Pressure chaos: random node page budgets and swap capacities on top of the
// random FaultPlans. Tight budgets drive the whole reclaim ladder — kswapd,
// direct reclaim, emergency GCs, commit failures, pressure OOM kills — while
// set_check_invariants() re-verifies the node's residency accounting against
// every attached address space after each event.
// ---------------------------------------------------------------------------

class PressureChaosFuzzTest : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(PressureChaosFuzzTest, ResidencyAndConservationHoldUnderPressure) {
  const ChaosParams params = GetParam();
  Rng scenario(params.seed ^ 0x9E55ull);

  PlatformConfig config;
  config.mode = params.mode;
  config.cache_capacity_bytes = scenario.UniformU64(512, 2048) * kMiB;
  config.cpu_cores = 3.0;
  config.keep_alive = 60 * kSecond;
  config.prewarm_per_language = static_cast<uint32_t>(scenario.UniformU64(0, 2));
  config.seed = params.seed;
  config.faults = ChaosPlan(scenario);
  // The pressure model proper: sometimes ample, sometimes brutally tight, and
  // sometimes swapless so anonymous pressure fails fast.
  config.pressure = PhysicalMemoryConfig::ForBytes(
      scenario.UniformU64(1200, 4096) * kMiB,
      scenario.Chance(0.3) ? 0 : scenario.UniformU64(128, 2048) * kMiB);
  Platform platform(config);
  platform.set_check_invariants(true);  // includes PhysicalMemory::VerifyAccounting
  ASSERT_NE(platform.physical_memory(), nullptr);

  std::unique_ptr<DesiccantManager> manager;
  if (params.mode == MemoryMode::kDesiccant) {
    DesiccantConfig desiccant_config;
    desiccant_config.selection.freeze_timeout = 200 * kMillisecond;
    manager = std::make_unique<DesiccantManager>(&platform, desiccant_config);
  }

  const auto& suite = WorkloadSuite();
  uint64_t submitted = 0;
  double t = 0.5;
  while (t < 45.0) {
    const WorkloadSpec& w = suite[scenario.UniformU64(0, suite.size() - 1)];
    platform.Submit(&w, FromSeconds(t));
    ++submitted;
    t += scenario.Exponential(0.6);
  }

  platform.BeginMeasurement();
  for (double checkpoint = 10.0; checkpoint <= 300.0; checkpoint += 10.0) {
    platform.RunUntil(FromSeconds(checkpoint));
    const PhysicalMemory* node = platform.physical_memory();
    // Residency invariant: commits only succeed within the budget, so the
    // node can never rest above it, and the aggregate must equal the sum of
    // the attached spaces' counters.
    EXPECT_LE(node->total_resident_pages(), node->config().page_budget);
    EXPECT_LE(node->swap().used_pages, node->swap().capacity_pages);
    node->VerifyAccounting();
    EXPECT_EQ(platform.memory_charged(), platform.FrozenMemoryBytes());
    EXPECT_GE(platform.IdleCpu(), -1e-9);
  }
  platform.Run();
  const PlatformMetrics& m = platform.FinishMeasurement();

  // Conservation: every submission terminates exactly once, even the ones
  // that ended as pressure OOM kills.
  EXPECT_EQ(m.requests_completed + m.requests_failed + m.requests_dropped, submitted);
  EXPECT_EQ(m.oom_kills, m.oom_kills_frozen + m.oom_kills_running);
  EXPECT_LE(m.requests_retried_ok, m.requests_completed);
  EXPECT_LE(m.GoodputRps(), m.ThroughputRps() + 1e-9);
  // After the drain the node is quiescent and the accounting still closes.
  const PhysicalMemory* node = platform.physical_memory();
  EXPECT_LE(node->total_resident_pages(), node->config().page_budget);
  node->VerifyAccounting();
  EXPECT_GE(platform.IdleCpu(), config.cpu_cores - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PressureChaosFuzzTest,
    ::testing::Values(ChaosParams{201, MemoryMode::kVanilla},
                      ChaosParams{201, MemoryMode::kDesiccant},
                      ChaosParams{202, MemoryMode::kVanilla},
                      ChaosParams{202, MemoryMode::kDesiccant},
                      ChaosParams{203, MemoryMode::kEager},
                      ChaosParams{203, MemoryMode::kDesiccant},
                      ChaosParams{204, MemoryMode::kSwap},
                      ChaosParams{204, MemoryMode::kDesiccant}));

class ClusterChaosFuzzTest : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ClusterChaosFuzzTest, ConservationHoldsAcrossNodeCrashes) {
  const ChaosParams params = GetParam();
  Rng scenario(params.seed ^ 0xC1A5ull);

  ClusterConfig config;
  config.node_count = 3;
  config.routing = static_cast<RoutingPolicy>(scenario.UniformU64(0, 2));
  config.node.mode = params.mode;
  config.node.cache_capacity_bytes = scenario.UniformU64(512, 1536) * kMiB;
  config.node.cpu_cores = 2.0;
  config.node.keep_alive = 60 * kSecond;
  config.node.seed = params.seed;
  config.node.faults = ChaosPlan(scenario);
  // Crashes on top: mean 30 s per node, horizon well past the traffic window
  // so crashes hit both loaded and draining phases.
  config.node.faults.node_crash_mtbf_seconds = 30.0;
  config.node.faults.node_crash_horizon = 120 * kSecond;
  config.node.faults.node_restart_delay = 3 * kSecond;
  Cluster cluster(config);
  cluster.set_check_invariants(true);

  std::vector<std::unique_ptr<DesiccantManager>> managers;
  if (params.mode == MemoryMode::kDesiccant) {
    for (size_t i = 0; i < cluster.node_count(); ++i) {
      DesiccantConfig desiccant_config;
      desiccant_config.selection.freeze_timeout = 200 * kMillisecond;
      managers.push_back(
          std::make_unique<DesiccantManager>(&cluster.node(i), desiccant_config));
    }
  }

  const auto& suite = WorkloadSuite();
  uint64_t submitted = 0;
  double t = 0.5;
  while (t < 45.0) {
    const WorkloadSpec& w = suite[scenario.UniformU64(0, suite.size() - 1)];
    cluster.Submit(&w, FromSeconds(t));
    ++submitted;
    t += scenario.Exponential(0.5);
  }

  cluster.BeginMeasurement();
  cluster.Run();
  const PlatformMetrics m = cluster.AggregateMetrics();

  // Conservation across the whole cluster, crashes and failovers included.
  EXPECT_EQ(m.requests_completed + m.requests_failed + m.requests_dropped, submitted);
  EXPECT_LE(m.requests_retried_ok, m.requests_completed);
  EXPECT_EQ(m.oom_kills, m.oom_kills_frozen + m.oom_kills_running);
  // Nothing stays parked once the last restart has flushed the queue.
  EXPECT_EQ(cluster.pending_count(), 0u);
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    EXPECT_FALSE(cluster.node(i).node_down());
    EXPECT_GE(cluster.node(i).IdleCpu(), config.node.cpu_cores - 1e-9);
    EXPECT_EQ(cluster.node(i).memory_charged(), cluster.node(i).FrozenMemoryBytes());
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ClusterChaosFuzzTest,
                         ::testing::Values(ChaosParams{101, MemoryMode::kVanilla},
                                           ChaosParams{102, MemoryMode::kDesiccant},
                                           ChaosParams{103, MemoryMode::kEager},
                                           ChaosParams{104, MemoryMode::kSwap}));

// ---------------------------------------------------------------------------
// Snapshot chaos: random tier hierarchies x random snapshot fault rates
// (fetch failures, corrupt images, a mid-run local-tier loss) on top of the
// base FaultPlan, with set_check_invariants() re-verifying the per-tier byte
// accounting after every event. Conservation must hold even when restores
// retry across tiers or degrade to full cold boots.
// ---------------------------------------------------------------------------

// Random-but-reproducible snapshot hierarchy. Tier capacities are sometimes
// squeezed hard so LRU eviction and oversize drops actually fire.
SnapshotConfig ChaosSnapshotConfig(Rng& rng) {
  SnapshotConfig snap =
      rng.Chance(0.3) ? SnapshotConfig::RemoteOnly() : SnapshotConfig::ThreeTier();
  snap.enabled = true;
  snap.reap_prefetch = rng.Chance(0.5);
  snap.promote_on_fetch = rng.Chance(0.7);
  if (rng.Chance(0.5)) {
    // Starve the fastest tier: a handful of images at most.
    snap.tiers.front().capacity_bytes = rng.UniformU64(64, 512) * kMiB;
  }
  snap.flush_delay = FromMillis(static_cast<double>(rng.UniformU64(10, 500)));
  return snap;
}

// The base ChaosPlan plus the snapshot fault knobs. Kept separate so the
// existing chaos corpora replay the exact scenario streams they always did.
FaultPlan SnapshotChaosPlan(Rng& rng) {
  FaultPlan plan = ChaosPlan(rng);
  if (rng.Chance(0.7)) {
    plan.snapshot_fetch_failure_prob = rng.Uniform(0.0, 0.4);
  }
  if (rng.Chance(0.5)) {
    plan.snapshot_corruption_prob = rng.Uniform(0.0, 0.2);
  }
  if (rng.Chance(0.5)) {
    // Lose the node-local tier somewhere in or just after the traffic window.
    plan.snapshot_local_tier_fail_at = FromSeconds(rng.Uniform(5.0, 60.0));
  }
  return plan;
}

class SnapshotChaosFuzzTest : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(SnapshotChaosFuzzTest, ConservationAndByteAccountingHoldUnderSnapshotFaults) {
  const ChaosParams params = GetParam();
  Rng scenario(params.seed ^ 0x5A45ull);

  PlatformConfig config;
  config.mode = params.mode;
  config.cache_capacity_bytes = scenario.UniformU64(512, 2048) * kMiB;
  config.cpu_cores = 3.0;
  config.keep_alive = 60 * kSecond;
  config.prewarm_per_language = static_cast<uint32_t>(scenario.UniformU64(0, 2));
  config.snapstart_restore = true;  // restores exercise the tier walk
  config.seed = params.seed;
  config.snapshot = ChaosSnapshotConfig(scenario);
  config.faults = SnapshotChaosPlan(scenario);
  Platform platform(config);
  platform.set_check_invariants(true);  // includes SnapshotStore::CheckInvariants

  std::unique_ptr<DesiccantManager> manager;
  if (params.mode == MemoryMode::kDesiccant) {
    DesiccantConfig desiccant_config;
    desiccant_config.selection.freeze_timeout = 200 * kMillisecond;
    manager = std::make_unique<DesiccantManager>(&platform, desiccant_config);
  }

  const auto& suite = WorkloadSuite();
  uint64_t submitted = 0;
  double t = 0.5;
  while (t < 45.0) {
    const WorkloadSpec& w = suite[scenario.UniformU64(0, suite.size() - 1)];
    platform.Submit(&w, FromSeconds(t));
    ++submitted;
    t += scenario.Exponential(0.6);
  }

  platform.BeginMeasurement();
  for (double checkpoint = 10.0; checkpoint <= 300.0; checkpoint += 10.0) {
    platform.RunUntil(FromSeconds(checkpoint));
    EXPECT_EQ(platform.memory_charged(), platform.FrozenMemoryBytes());
    EXPECT_GE(platform.IdleCpu(), -1e-9);
  }
  platform.Run();
  const PlatformMetrics& m = platform.FinishMeasurement();

  // Conservation: every submission terminates exactly once, restore failures
  // and snapshot fallbacks included.
  EXPECT_EQ(m.requests_completed + m.requests_failed + m.requests_dropped, submitted);
  EXPECT_LE(m.requests_retried_ok, m.requests_completed);

  // Snapshot-byte accounting closes. Every planned restore resolved as
  // exactly one tier hit or one fallback cold boot, and the flush ledger
  // never loses a write-back without recording it.
  ASSERT_NE(platform.snapshot_store(), nullptr);
  const SnapshotStats& s = platform.snapshot_store()->stats();
  uint64_t hits = 0;
  for (const uint64_t h : s.tier_hits) {
    hits += h;
  }
  EXPECT_EQ(hits + s.fallback_cold_boots, s.restores_planned);
  EXPECT_LE(s.flushes_completed + s.flushes_lost, s.flushes_started);
  EXPECT_LE(s.ws_pages_resident, s.ws_pages_recorded);
  if (config.faults.snapshot_local_tier_fail_at > 0) {
    EXPECT_TRUE(platform.snapshot_store()->local_tier_failed());
  }
  // The final per-tier recount (capacity + byte-sum agreement) aborts on
  // violation rather than failing an expectation.
  platform.snapshot_store()->CheckInvariants();

  // After the drain the node is quiescent.
  EXPECT_GE(platform.IdleCpu(), config.cpu_cores - 1e-9);
  EXPECT_EQ(platform.memory_charged(), platform.FrozenMemoryBytes());
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SnapshotChaosFuzzTest,
    ::testing::Values(ChaosParams{301, MemoryMode::kVanilla},
                      ChaosParams{301, MemoryMode::kDesiccant},
                      ChaosParams{302, MemoryMode::kVanilla},
                      ChaosParams{302, MemoryMode::kDesiccant},
                      ChaosParams{303, MemoryMode::kEager},
                      ChaosParams{303, MemoryMode::kDesiccant},
                      ChaosParams{304, MemoryMode::kSwap},
                      ChaosParams{304, MemoryMode::kDesiccant}));

// Invoker crashes on top: every node runs its own tier hierarchy, crashes
// wipe the node-local tier plus in-flight flushes, and restores afterwards
// must degrade through the surviving durable tiers without losing requests.
class SnapshotClusterChaosFuzzTest : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(SnapshotClusterChaosFuzzTest, ConservationHoldsAcrossCrashesAndTierLoss) {
  const ChaosParams params = GetParam();
  Rng scenario(params.seed ^ 0x5AC1ull);

  ClusterConfig config;
  config.node_count = 3;
  config.routing = static_cast<RoutingPolicy>(scenario.UniformU64(0, 2));
  config.node.mode = params.mode;
  config.node.cache_capacity_bytes = scenario.UniformU64(512, 1536) * kMiB;
  config.node.cpu_cores = 2.0;
  config.node.keep_alive = 60 * kSecond;
  config.node.seed = params.seed;
  config.node.snapstart_restore = true;
  config.node.snapshot = ChaosSnapshotConfig(scenario);
  config.node.faults = SnapshotChaosPlan(scenario);
  config.node.faults.node_crash_mtbf_seconds = 30.0;
  config.node.faults.node_crash_horizon = 120 * kSecond;
  config.node.faults.node_restart_delay = 3 * kSecond;
  Cluster cluster(config);
  cluster.set_check_invariants(true);

  const auto& suite = WorkloadSuite();
  uint64_t submitted = 0;
  double t = 0.5;
  while (t < 45.0) {
    const WorkloadSpec& w = suite[scenario.UniformU64(0, suite.size() - 1)];
    cluster.Submit(&w, FromSeconds(t));
    ++submitted;
    t += scenario.Exponential(0.5);
  }

  cluster.BeginMeasurement();
  cluster.Run();
  const PlatformMetrics m = cluster.AggregateMetrics();

  // Conservation across the cluster: crashes, wiped tiers, lost flushes and
  // degraded restores never lose or duplicate a request.
  EXPECT_EQ(m.requests_completed + m.requests_failed + m.requests_dropped, submitted);
  EXPECT_LE(m.requests_retried_ok, m.requests_completed);
  EXPECT_EQ(cluster.pending_count(), 0u);
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    EXPECT_FALSE(cluster.node(i).node_down());
    ASSERT_NE(cluster.node(i).snapshot_store(), nullptr);
    const SnapshotStats& s = cluster.node(i).snapshot_store()->stats();
    uint64_t hits = 0;
    for (const uint64_t h : s.tier_hits) {
      hits += h;
    }
    EXPECT_EQ(hits + s.fallback_cold_boots, s.restores_planned);
    EXPECT_LE(s.flushes_completed + s.flushes_lost, s.flushes_started);
    cluster.node(i).snapshot_store()->CheckInvariants();
    EXPECT_EQ(cluster.node(i).memory_charged(), cluster.node(i).FrozenMemoryBytes());
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, SnapshotClusterChaosFuzzTest,
                         ::testing::Values(ChaosParams{401, MemoryMode::kVanilla},
                                           ChaosParams{402, MemoryMode::kDesiccant},
                                           ChaosParams{403, MemoryMode::kEager},
                                           ChaosParams{404, MemoryMode::kSwap}));

// ---------------------------------------------------------------------------
// Fabric chaos: random fabric topologies (racks x replication factors) x
// random brown-out / partition / tier-loss windows x crash plans, with the
// fabric's per-(tier, rack) byte recount re-verified at every settlement via
// set_check_invariants. Conservation and the restore ledger must hold no
// matter how degraded the shared tiers get.
// ---------------------------------------------------------------------------

std::vector<FabricFault> ChaosFabricFaults(Rng& rng, size_t tiers, size_t racks) {
  std::vector<FabricFault> faults;
  const uint64_t windows = rng.UniformU64(0, 3);
  for (uint64_t i = 0; i < windows; ++i) {
    FabricFault fault;
    fault.at = FromSeconds(rng.Uniform(5.0, 90.0));
    fault.duration = FromSeconds(rng.Uniform(1.0, 30.0));
    fault.tier = 1 + rng.UniformU64(0, tiers - 2);  // any shared tier
    switch (rng.UniformU64(0, 2)) {
      case 0:
        fault.kind = FabricFaultKind::kBrownout;
        fault.slow_factor = rng.Uniform(1.5, 16.0);
        break;
      case 1:
        fault.kind = FabricFaultKind::kRackPartition;
        fault.rack = rng.UniformU64(0, racks - 1);
        break;
      default:
        fault.kind = FabricFaultKind::kTierLoss;
        break;
    }
    faults.push_back(fault);
  }
  return faults;
}

class SnapshotFabricChaosFuzzTest : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(SnapshotFabricChaosFuzzTest, ConservationHoldsUnderDegradedFabrics) {
  const ChaosParams params = GetParam();
  Rng scenario(params.seed ^ 0x5AFBull);

  ClusterConfig config;
  config.node_count = 2 + scenario.UniformU64(0, 3);
  config.routing = static_cast<RoutingPolicy>(scenario.UniformU64(0, 2));
  config.node.mode = params.mode;
  config.node.cache_capacity_bytes = scenario.UniformU64(512, 1536) * kMiB;
  config.node.cpu_cores = 2.0;
  config.node.keep_alive = 60 * kSecond;
  config.node.seed = params.seed;
  config.node.snapstart_restore = true;
  config.node.snapshot = ChaosSnapshotConfig(scenario);
  if (config.node.snapshot.tiers.size() < 2) {
    config.node.snapshot = SnapshotConfig::ThreeTier();  // fabric needs a shared tier
  }
  config.node.snapshot.fabric.enabled = true;
  config.node.snapshot.fabric.rack_count = 1 + scenario.UniformU64(0, 3);
  config.node.snapshot.fabric.replication_factor = 1 + scenario.UniformU64(0, 3);
  config.node.snapshot.fabric.replication_delay =
      FromMillis(static_cast<double>(scenario.UniformU64(50, 500)));
  if (scenario.Chance(0.5)) {
    config.node.snapshot.fetch_backoff_base = FromMillis(static_cast<double>(
        scenario.UniformU64(5, 50)));
  }
  if (scenario.Chance(0.5)) {
    config.node.snapshot.hedge_budget = FromMillis(static_cast<double>(
        scenario.UniformU64(5, 200)));
  }
  if (scenario.Chance(0.5)) {
    config.node.snapshot.delta_refresh = true;
    config.node.snapshot.max_delta_chain =
        static_cast<uint32_t>(1 + scenario.UniformU64(0, 5));
  }
  config.node.faults = SnapshotChaosPlan(scenario);
  config.node.faults.fabric_faults = ChaosFabricFaults(
      scenario, config.node.snapshot.tiers.size(), config.node.snapshot.fabric.rack_count);
  if (scenario.Chance(0.7)) {
    config.node.faults.node_crash_mtbf_seconds = 30.0;
    config.node.faults.node_crash_horizon = 120 * kSecond;
    config.node.faults.node_restart_delay = 3 * kSecond;
  }
  Cluster cluster(config);
  cluster.set_check_invariants(true);  // fabric byte recount at every settlement

  const auto& suite = WorkloadSuite();
  uint64_t submitted = 0;
  double t = 0.5;
  while (t < 45.0) {
    const WorkloadSpec& w = suite[scenario.UniformU64(0, suite.size() - 1)];
    cluster.Submit(&w, FromSeconds(t));
    ++submitted;
    t += scenario.Exponential(0.5);
  }

  cluster.BeginMeasurement();
  cluster.Run();
  const PlatformMetrics m = cluster.AggregateMetrics();

  EXPECT_EQ(m.requests_completed + m.requests_failed + m.requests_dropped, submitted);
  EXPECT_LE(m.requests_retried_ok, m.requests_completed);
  EXPECT_EQ(cluster.pending_count(), 0u);
  for (size_t i = 0; i < cluster.node_count(); ++i) {
    EXPECT_FALSE(cluster.node(i).node_down());
    ASSERT_NE(cluster.node(i).snapshot_store(), nullptr);
    const SnapshotStats& s = cluster.node(i).snapshot_store()->stats();
    uint64_t hits = 0;
    for (const uint64_t h : s.tier_hits) {
      hits += h;
    }
    EXPECT_EQ(hits + s.fallback_cold_boots, s.restores_planned);
    EXPECT_LE(s.flushes_completed + s.flushes_lost, s.flushes_started);
    EXPECT_LE(s.hedge_wins, s.hedged_fetches);
    cluster.node(i).snapshot_store()->CheckInvariants();
    EXPECT_EQ(cluster.node(i).memory_charged(), cluster.node(i).FrozenMemoryBytes());
  }
  ASSERT_NE(cluster.fabric(), nullptr);
  cluster.fabric()->CheckInvariants();
  const FabricStats& fs = cluster.fabric()->stats();
  // Live entries can only come from applied publishes.
  uint64_t entries = 0;
  for (size_t tier = 1; tier < config.node.snapshot.tiers.size(); ++tier) {
    entries += cluster.fabric()->TierEntryCount(tier);
  }
  EXPECT_LE(entries, fs.publishes);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, SnapshotFabricChaosFuzzTest,
                         ::testing::Values(ChaosParams{501, MemoryMode::kVanilla},
                                           ChaosParams{502, MemoryMode::kDesiccant},
                                           ChaosParams{503, MemoryMode::kEager},
                                           ChaosParams{504, MemoryMode::kSwap},
                                           ChaosParams{505, MemoryMode::kVanilla},
                                           ChaosParams{506, MemoryMode::kDesiccant}));

}  // namespace
}  // namespace desiccant
