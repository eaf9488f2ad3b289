// Microbenchmarks of the heap-simulator inner loops (real wall-clock timing,
// like micro_simulator/micro_os): the steady-state young-GC cycle, the
// batched cluster-allocation fast path, warm invocations of Table 1
// functions, and one fig09 replay cell end to end.
//
// The Legacy/Epoch pair rebuilds the pre-epoch collector inner loop from the
// same public primitives (bool-style marking with an end-of-GC unmark sweep,
// per-collection vector allocations, one page touch per object) so the two
// can be compared inside one binary on identical simulation work.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/sim_clock.h"
#include "src/faas/instance.h"
#include "src/heap/contiguous_space.h"
#include "src/heap/object.h"
#include "src/heap/roots.h"
#include "src/hotspot/hotspot_runtime.h"
#include "src/v8/v8_runtime.h"

// Counting global allocator so the zero-allocation claims are asserted, not
// inferred from timing (same device as micro_simulator).
std::atomic<uint64_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

// GCC pairs `new` expressions elsewhere in the TU with these overloads and
// flags the free() as mismatched; it isn't — the matching operator new above
// allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace {

using namespace desiccant;

// ---------------------------------------------------------------------------
// Steady-state young-GC cycle: a nursery fills with 256-byte objects (a
// 32-slot rooted window stays live, everything else dies young), then a
// serial copying collection runs. One benchmark iteration = one full cycle.

constexpr uint64_t kNurseryBytes = 64 * kKiB;
constexpr uint32_t kObjectSize = 256;
constexpr size_t kWindowSlots = 32;
constexpr size_t kClusterSize = 8;

struct Nursery {
  Nursery()
      : vas(nullptr),
        region(vas.MapAnonymous("nursery", 8 * kMiB)),
        eden("eden", &vas, region) {
    eden.SetBounds(0, kNurseryBytes);
    for (size_t i = 0; i < kWindowSlots; ++i) {
      window.push_back(roots.Create(nullptr));
    }
  }

  VirtualAddressSpace vas;
  RegionId region;
  ObjectPool pool;
  ContiguousSpace eden;
  RootTable roots;
  std::vector<RootTable::Handle> window;
  size_t cursor = 0;

  void Root(SimObject* obj) {
    roots.Set(window[cursor], obj);
    cursor = (cursor + 1) % kWindowSlots;
  }
};

// The pre-PR shape: one page touch per object, bool-style marking (epoch used
// as a 0/1 flag), per-collection vectors, and the end-of-GC unmark sweep.
void YoungCycleLegacy(Nursery& n) {
  TouchResult faults;
  while (n.eden.CanAllocate(kObjectSize)) {
    SimObject* obj = n.pool.New(kObjectSize);
    n.eden.Allocate(obj, &faults);
    n.Root(obj);
  }
  std::vector<SimObject*> stack;  // allocated per collection
  n.roots.ForEach([&stack](SimObject* obj) {
    if (obj->mark_epoch == 0) {
      obj->mark_epoch = 1;
      stack.push_back(obj);
    }
  });
  while (!stack.empty()) {
    SimObject* obj = stack.back();
    stack.pop_back();
    for (int i = 0; i < obj->ref_count; ++i) {
      SimObject* ref = obj->refs[i];
      if (ref != nullptr && ref->mark_epoch == 0) {
        ref->mark_epoch = 1;
        stack.push_back(ref);
      }
    }
  }
  std::vector<SimObject*> survivors;  // allocated per collection
  for (SimObject* obj : n.eden.objects()) {
    if (obj->mark_epoch == 1) {
      survivors.push_back(obj);
    } else {
      n.pool.Free(obj);
    }
  }
  n.eden.Reset();
  for (SimObject* obj : survivors) {
    n.eden.Allocate(obj, &faults);
  }
  for (SimObject* obj : survivors) {
    obj->mark_epoch = 0;  // the unmark sweep
  }
}

// The post-PR shape: batched span allocation, epoch marking, reused scratch.
struct EpochScratch {
  std::vector<SimObject*> stack;
  std::vector<SimObject*> survivors;
  uint32_t epoch = 0;
};

void YoungCycleEpoch(Nursery& n, EpochScratch& s) {
  TouchResult faults;
  SimObject* cluster[kClusterSize];
  constexpr uint64_t kClusterBytes = kClusterSize * kObjectSize;
  while (n.eden.CanAllocateSpan(kClusterBytes)) {
    for (auto& obj : cluster) {
      obj = n.pool.New(kObjectSize);
    }
    n.eden.AllocateSpan(cluster, kClusterSize, kClusterBytes, &faults);
    for (SimObject* obj : cluster) {
      n.Root(obj);
    }
  }
  while (n.eden.CanAllocate(kObjectSize)) {  // tail the cluster gate refused
    SimObject* obj = n.pool.New(kObjectSize);
    n.eden.Allocate(obj, &faults);
    n.Root(obj);
  }
  const uint32_t epoch = ++s.epoch;
  s.stack.clear();
  n.roots.ForEach([&s, epoch](SimObject* obj) {
    if (obj->mark_epoch != epoch) {
      obj->mark_epoch = epoch;
      s.stack.push_back(obj);
    }
  });
  while (!s.stack.empty()) {
    SimObject* obj = s.stack.back();
    s.stack.pop_back();
    for (int i = 0; i < obj->ref_count; ++i) {
      SimObject* ref = obj->refs[i];
      if (ref != nullptr && ref->mark_epoch != epoch) {
        ref->mark_epoch = epoch;
        s.stack.push_back(ref);
      }
    }
  }
  s.survivors.clear();
  for (SimObject* obj : n.eden.objects()) {
    if (obj->mark_epoch == epoch) {
      s.survivors.push_back(obj);
    } else {
      n.pool.Free(obj);
    }
  }
  n.eden.Reset();
  for (SimObject* obj : s.survivors) {
    n.eden.Allocate(obj, &faults);
  }
  // No unmark sweep: the next cycle draws a fresh epoch.
}

void BM_YoungGcCycleLegacy(benchmark::State& state) {
  Nursery n;
  for (auto _ : state) {
    YoungCycleLegacy(n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kNurseryBytes / kObjectSize));
}
BENCHMARK(BM_YoungGcCycleLegacy);

void BM_YoungGcCycleEpoch(benchmark::State& state) {
  Nursery n;
  EpochScratch scratch;
  YoungCycleEpoch(n, scratch);  // warm the scratch to steady-state capacity
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    YoungCycleEpoch(n, scratch);
  }
  const uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["heap_allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kNurseryBytes / kObjectSize));
}
BENCHMARK(BM_YoungGcCycleEpoch);

// ---------------------------------------------------------------------------
// The full HotSpot runtime under steady-state churn: a rooted rolling window
// drives periodic young collections. After warmup, one op (256 allocations
// plus its amortized share of collections) must perform zero host-heap
// allocations — this is the counter the CI smoke job asserts on.

void BM_HotSpotSteadyStateYoungChurn(benchmark::State& state) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  HotSpotRuntime runtime(&vas, &clock, HotSpotConfig::ForInstanceBudget(256 * kMiB),
                         &registry);
  RootTable& strong = runtime.strong_roots();
  std::vector<RootTable::Handle> window;
  for (int i = 0; i < 64; ++i) {
    window.push_back(strong.Create(nullptr));
  }
  size_t cursor = 0;
  const auto churn = [&](int objects) {
    for (int i = 0; i < objects; ++i) {
      strong.Set(window[cursor], runtime.AllocateObject(1024));
      cursor = (cursor + 1) % window.size();
    }
  };
  // Warm until several young collections have run, so every pool, space
  // vector and GC scratch buffer has reached its steady-state capacity.
  while (runtime.gc_log().size() < 8) {
    churn(4096);
  }
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    churn(256);
  }
  const uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["heap_allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_HotSpotSteadyStateYoungChurn);

void BM_V8SteadyStateScavengeChurn(benchmark::State& state) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  V8Runtime runtime(&vas, &clock, V8Config::ForInstanceBudget(256 * kMiB), &registry);
  RootTable& strong = runtime.strong_roots();
  std::vector<RootTable::Handle> window;
  for (int i = 0; i < 64; ++i) {
    window.push_back(strong.Create(nullptr));
  }
  size_t cursor = 0;
  const auto churn = [&](int objects) {
    for (int i = 0; i < objects; ++i) {
      strong.Set(window[cursor], runtime.AllocateObject(1024));
      cursor = (cursor + 1) % window.size();
      clock.AdvanceBy(kMicrosecond);
    }
  };
  while (runtime.gc_log().size() < 8) {
    churn(4096);
  }
  for (auto _ : state) {
    churn(256);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_V8SteadyStateScavengeChurn);

// ---------------------------------------------------------------------------
// The mutator fast path on the real runtime: one 8-object cluster per op,
// per-object AllocateObject vs batched AllocateCluster. The two produce
// bit-identical simulation state; only the host cost differs.

void BM_HotSpotClusterPerObject(benchmark::State& state) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  HotSpotRuntime runtime(&vas, &clock, HotSpotConfig::ForInstanceBudget(256 * kMiB),
                         &registry);
  for (auto _ : state) {
    SimObject* parent = runtime.AllocateObject(512);
    benchmark::DoNotOptimize(parent);
    for (int i = 1; i < static_cast<int>(kClusterSize); ++i) {
      SimObject* child = runtime.AllocateObject(512);
      parent->AddRef(child);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kClusterSize * 512);
}
BENCHMARK(BM_HotSpotClusterPerObject);

void BM_HotSpotClusterBatched(benchmark::State& state) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  HotSpotRuntime runtime(&vas, &clock, HotSpotConfig::ForInstanceBudget(256 * kMiB),
                         &registry);
  uint32_t sizes[kClusterSize];
  for (auto& s : sizes) {
    s = 512;
  }
  SimObject* cluster[kClusterSize];
  for (auto _ : state) {
    if (!runtime.AllocateCluster(sizes, kClusterSize, cluster)) {
      // Eden boundary: take the slow path exactly as the workload does.
      cluster[0] = runtime.AllocateObject(512);
      for (size_t i = 1; i < kClusterSize; ++i) {
        cluster[i] = runtime.AllocateObject(512);
      }
    }
    for (size_t i = 1; i < kClusterSize; ++i) {
      cluster[0]->AddRef(cluster[i]);
    }
    benchmark::DoNotOptimize(cluster[0]);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kClusterSize * 512);
}
BENCHMARK(BM_HotSpotClusterBatched);

// ---------------------------------------------------------------------------
// One warm invocation of a Table 1 function through Instance::Execute: the
// program's batched churn loop, the runtime's allocation paths and
// collections, and the heap→OS touch watermark together. After warmup a
// HotSpot invocation performs zero host-heap allocations (asserted in CI). A
// V8 invocation nearly does: unmapped chunks and region slots are parked and
// reused, but a reused chunk's object list still doubles the first time the
// chunk holds more objects than it ever did (about 0.014 per dynamic-html
// invocation). CI therefore bounds V8 below one allocation per invocation, a
// bound that per-invocation scratch in the churn loop would break.

void WarmInvoke(benchmark::State& state, const char* workload) {
  SharedFileRegistry registry;
  Instance instance(1, FindWorkload(workload), /*stage=*/0, 256 * kMiB, &registry,
                    /*seed=*/1);
  // Warm past JIT warmup and several collections, so every pool, space and
  // scratch buffer has reached its steady-state capacity.
  for (int i = 0; i < 40; ++i) {
    instance.Execute();
  }
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance.Execute());
  }
  const uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["heap_allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}

void BM_WarmInvokeHotSpot(benchmark::State& state) { WarmInvoke(state, "sort"); }
BENCHMARK(BM_WarmInvokeHotSpot)->Unit(benchmark::kMicrosecond);

void BM_WarmInvokeV8(benchmark::State& state) { WarmInvoke(state, "dynamic-html"); }
BENCHMARK(BM_WarmInvokeV8)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// One small fig09 replay cell end to end (desiccant mode), the macro view of
// the same inner loops. Tracked PR over PR via BENCH_heap.json.

void BM_Fig09CellSmall(benchmark::State& state) {
  for (auto _ : state) {
    ReplayConfig config;
    config.mode = MemoryMode::kDesiccant;
    config.scale_factor = 8.0;
    config.warmup_seconds = 20.0;
    config.measure_seconds = 60.0;
    benchmark::DoNotOptimize(RunReplay(config));
  }
}
BENCHMARK(BM_Fig09CellSmall)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
