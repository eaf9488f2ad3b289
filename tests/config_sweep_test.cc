// Configuration-space property sweeps: across generation sizings, survivor
// ratios, semispace caps and GC thresholds, the collectors must preserve
// liveness, keep residency above the live set, and reclaim must stay sound.
#include <gtest/gtest.h>

#include <type_traits>

#include "src/base/rng.h"
#include "src/base/sim_clock.h"
#include "src/cpython/cpython_runtime.h"
#include "src/hotspot/g1_runtime.h"
#include "src/hotspot/hotspot_runtime.h"
#include "src/v8/v8_runtime.h"

namespace desiccant {
namespace {

// Drives a runtime with a mixed rooted/garbage load and checks invariants.
template <typename RuntimeT>
void ExerciseRuntime(RuntimeT& runtime, SimClock& clock, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<RootTable::Handle, uint32_t>> rooted;
  uint64_t rooted_bytes = 0;
  for (int step = 0; step < 1500; ++step) {
    clock.AdvanceBy(5 * kMicrosecond);
    if (rng.NextDouble() < 0.75 || rooted_bytes > 8 * kMiB) {
      runtime.AllocateObject(static_cast<uint32_t>(rng.UniformU64(64, 24 * kKiB)));
    } else {
      const auto size = static_cast<uint32_t>(rng.UniformU64(64, 24 * kKiB));
      SimObject* obj = runtime.AllocateObject(size);
      rooted.emplace_back(runtime.strong_roots().Create(obj), size);
      rooted_bytes += size;
    }
    if (!rooted.empty() && rng.Chance(0.1)) {
      const size_t i = rng.UniformU64(0, rooted.size() - 1);
      runtime.strong_roots().Destroy(rooted[i].first);
      rooted_bytes -= rooted[i].second;
      rooted[i] = rooted.back();
      rooted.pop_back();
    }
  }
  // Invariants at the end of the run.
  EXPECT_EQ(runtime.ExactLiveBytes(), rooted_bytes);
  runtime.CollectGarbage(false);
  EXPECT_EQ(runtime.EstimateLiveBytes(), rooted_bytes);
  EXPECT_GE(runtime.GetHeapStats().committed_bytes, rooted_bytes);
  const ReclaimResult result = runtime.Reclaim({});
  EXPECT_EQ(runtime.ExactLiveBytes(), rooted_bytes);
  EXPECT_EQ(result.live_bytes_after, rooted_bytes);
  // Residency after reclaim: at least the live set, at most live + a modest
  // page/metadata margin.
  EXPECT_GE(runtime.HeapResidentBytes() + kPageSize, PageAlignDown(rooted_bytes));
}

// ----- HotSpot: NewRatio x SurvivorRatio x initial sizes -----

// gtest prints a parameter struct without a PrintTo as its raw bytes, and
// those bytes name the case (and its ctest entry). The parameter structs
// therefore carry no padding: uninitialised padding bytes would give the same
// case a different name in every process. That is why the tenuring
// thresholds are wider here than in the configs they feed.
struct HotSpotSweepParams {
  uint32_t new_ratio;
  uint32_t survivor_ratio;
  uint64_t initial_young_mib;
  uint64_t tenuring;
};
static_assert(std::has_unique_object_representations_v<HotSpotSweepParams>);

class HotSpotSweepTest : public ::testing::TestWithParam<HotSpotSweepParams> {};

TEST_P(HotSpotSweepTest, InvariantsHold) {
  const HotSpotSweepParams p = GetParam();
  HotSpotConfig config = HotSpotConfig::ForInstanceBudget(256 * kMiB);
  config.new_ratio = p.new_ratio;
  config.survivor_ratio = p.survivor_ratio;
  config.initial_young_bytes = p.initial_young_mib * kMiB;
  config.tenuring_threshold = static_cast<uint8_t>(p.tenuring);
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  HotSpotRuntime runtime(&vas, &clock, config, &registry);
  ExerciseRuntime(runtime, clock, 1000 + p.new_ratio * 10 + p.survivor_ratio);
}

INSTANTIATE_TEST_SUITE_P(Configs, HotSpotSweepTest,
                         ::testing::Values(HotSpotSweepParams{1, 4, 8, 2},
                                           HotSpotSweepParams{2, 6, 16, 6},
                                           HotSpotSweepParams{2, 8, 24, 15},
                                           HotSpotSweepParams{3, 6, 12, 1},
                                           HotSpotSweepParams{4, 10, 32, 4},
                                           HotSpotSweepParams{2, 2, 8, 0}));

// ----- V8: semispace sizing x growth thresholds -----

struct V8SweepParams {
  uint64_t initial_semispace_kib;
  uint64_t max_semispace_mib;
  double shrink_rate_mib_per_s;
};
static_assert(sizeof(V8SweepParams) == 3 * sizeof(uint64_t));  // no padding

class V8SweepTest : public ::testing::TestWithParam<V8SweepParams> {};

TEST_P(V8SweepTest, InvariantsHold) {
  const V8SweepParams p = GetParam();
  V8Config config = V8Config::ForInstanceBudget(256 * kMiB);
  config.initial_semispace_bytes = p.initial_semispace_kib * kKiB;
  config.max_semispace_bytes = p.max_semispace_mib * kMiB;
  config.shrink_alloc_rate_bytes_per_s = p.shrink_rate_mib_per_s * static_cast<double>(kMiB);
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  V8Runtime runtime(&vas, &clock, config, &registry);
  ExerciseRuntime(runtime, clock, 2000 + p.initial_semispace_kib);
}

INSTANTIATE_TEST_SUITE_P(Configs, V8SweepTest,
                         ::testing::Values(V8SweepParams{512, 4, 64.0},
                                           V8SweepParams{512, 16, 8.0},
                                           V8SweepParams{1024, 8, 512.0},
                                           V8SweepParams{2048, 32, 64.0},
                                           V8SweepParams{512, 1, 64.0}));

// ----- G1: region target x tenuring x threads -----

struct G1SweepParams {
  uint32_t young_target;
  uint32_t tenuring;
  uint32_t threads;
};
static_assert(std::has_unique_object_representations_v<G1SweepParams>);

class G1SweepTest : public ::testing::TestWithParam<G1SweepParams> {};

TEST_P(G1SweepTest, InvariantsHold) {
  const G1SweepParams p = GetParam();
  G1Config config = G1Config::ForInstanceBudget(256 * kMiB);
  config.young_target_regions = p.young_target;
  config.tenuring_threshold = static_cast<uint8_t>(p.tenuring);
  config.gc_threads = p.threads;
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  G1Runtime runtime(&vas, &clock, config, &registry);
  ExerciseRuntime(runtime, clock, 3000 + p.young_target);
}

INSTANTIATE_TEST_SUITE_P(Configs, G1SweepTest,
                         ::testing::Values(G1SweepParams{4, 2, 1}, G1SweepParams{8, 4, 2},
                                           G1SweepParams{16, 8, 4}, G1SweepParams{2, 1, 8},
                                           G1SweepParams{12, 0, 1}));

// ----- CPython: GC thresholds -----

class CPythonSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CPythonSweepTest, InvariantsHold) {
  CPythonConfig config = CPythonConfig::ForInstanceBudget(256 * kMiB);
  config.gc_threshold_bytes = GetParam() * kKiB;
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  CPythonRuntime runtime(&vas, &clock, config, &registry);
  ExerciseRuntime(runtime, clock, 4000 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CPythonSweepTest,
                         ::testing::Values(256, 1024, 4096, 16384));

// ----- Budget sweep: every runtime honours its budget across sizes -----

class BudgetSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BudgetSweepTest, AllRuntimesFitTheirBudget) {
  const uint64_t budget = GetParam() * kMiB;
  {
    SharedFileRegistry registry;
    SimClock clock;
    VirtualAddressSpace vas(&registry);
    HotSpotRuntime runtime(&vas, &clock, HotSpotConfig::ForInstanceBudget(budget), &registry);
    ExerciseRuntime(runtime, clock, budget);
    EXPECT_LE(runtime.GetHeapStats().committed_bytes, budget);
  }
  {
    SharedFileRegistry registry;
    SimClock clock;
    VirtualAddressSpace vas(&registry);
    V8Runtime runtime(&vas, &clock, V8Config::ForInstanceBudget(budget), &registry);
    ExerciseRuntime(runtime, clock, budget + 1);
    EXPECT_LE(runtime.GetHeapStats().committed_bytes, budget);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BudgetSweepTest, ::testing::Values(128, 256, 512, 1024));

}  // namespace
}  // namespace desiccant
