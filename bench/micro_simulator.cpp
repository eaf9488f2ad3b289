// Microbenchmarks of the simulator itself (real wall-clock timing, unlike the
// figure benches which measure *simulated* quantities). Useful to keep the
// substrate fast enough for trace replay: allocation, collection, residency
// accounting and reclaim paths.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/id_slot_map.h"
#include "src/base/sim_clock.h"
#include "src/faas/event_queue.h"
#include "src/faas/function_registry.h"
#include "src/faas/instance.h"
#include "src/hotspot/hotspot_runtime.h"
#include "src/v8/v8_runtime.h"
#include "src/workloads/function_spec.h"

// Counting global allocator so benches can assert heap behavior (e.g. that
// steady-state EventQueue traffic performs zero allocations) rather than
// infer it from timing.
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

void BM_HotSpotAllocation(benchmark::State& state) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  HotSpotRuntime runtime(&vas, &clock, HotSpotConfig::ForInstanceBudget(256 * kMiB),
                         &registry);
  const auto size = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.AllocateObject(size));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * size);
}
BENCHMARK(BM_HotSpotAllocation)->Arg(256)->Arg(4096)->Arg(65536);

void BM_V8Allocation(benchmark::State& state) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  V8Runtime runtime(&vas, &clock, V8Config::ForInstanceBudget(256 * kMiB), &registry);
  const auto size = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime.AllocateObject(size));
    clock.AdvanceBy(kMicrosecond);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * size);
}
BENCHMARK(BM_V8Allocation)->Arg(256)->Arg(4096)->Arg(65536);

void BM_FullGcWithLiveSet(benchmark::State& state) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  HotSpotRuntime runtime(&vas, &clock, HotSpotConfig::ForInstanceBudget(256 * kMiB),
                         &registry);
  // Build a live set of `range` objects.
  for (int64_t i = 0; i < state.range(0); ++i) {
    runtime.strong_roots().Create(runtime.AllocateObject(1024));
  }
  for (auto _ : state) {
    runtime.CollectGarbage(false);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullGcWithLiveSet)->Arg(1000)->Arg(10000);

void BM_UsageAccounting(benchmark::State& state) {
  SharedFileRegistry registry;
  SimClock clock;
  VirtualAddressSpace vas(&registry);
  HotSpotRuntime runtime(&vas, &clock, HotSpotConfig::ForInstanceBudget(256 * kMiB),
                         &registry);
  for (int i = 0; i < 5000; ++i) {
    runtime.AllocateObject(4096);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vas.Usage());
  }
}
BENCHMARK(BM_UsageAccounting);

void BM_InstanceInvocation(benchmark::State& state) {
  SharedFileRegistry registry;
  Instance instance(1, FindWorkload("sort"), 0, 256 * kMiB, &registry, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(instance.Execute());
  }
}
BENCHMARK(BM_InstanceInvocation);

void BM_ReclaimCycle(benchmark::State& state) {
  SharedFileRegistry registry;
  Instance instance(1, FindWorkload("fft"), 0, 256 * kMiB, &registry, 3);
  for (auto _ : state) {
    for (int i = 0; i < 5; ++i) {
      instance.Execute();
    }
    instance.Freeze(instance.exec_clock().Now());
    benchmark::DoNotOptimize(instance.Reclaim({}, true));
    instance.Thaw();
  }
}
BENCHMARK(BM_ReclaimCycle);

// Steady-state discrete-event traffic: one Schedule + one RunNext per
// iteration with a Request-sized capture, against a pre-grown queue. The
// `heap_allocs_per_op` counter must read 0: closures never allocate (that
// is the point of the InlineClosure representation), and the queue's event
// vector is reserved up front and never grows past its standing size.
void BM_EventQueueScheduleRunNext(benchmark::State& state) {
  EventQueue queue;
  SimClock clock;
  queue.Reserve(1024);
  struct Payload {
    uint64_t words[8] = {};  // 64 bytes: the size class of a captured Request
  };
  uint64_t sink = 0;
  for (uint64_t i = 0; i < 512; ++i) {
    Payload p;
    p.words[0] = i;
    queue.Schedule(clock.Now() + (i + 1) * kMicrosecond,
                   [p, &sink] { sink += p.words[0]; });
  }
  uint64_t t = 512;
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    Payload p;
    p.words[0] = t++;
    queue.Schedule(clock.Now() + 1000 * kMicrosecond,
                   [p, &sink] { sink += p.words[0]; });
    queue.RunNext(&clock);
  }
  const uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["heap_allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleRunNext);

// The Platform hot-map access pattern: dense monotonically allocated ids,
// erase-oldest churn, point lookups. IdSlotMap (open addressing, inline
// entries, backward-shift erase) vs the std::unordered_map it replaced
// (node allocation per insert, bucket-chain chase per lookup).
template <typename Map>
void MapChurn(benchmark::State& state) {
  Map map;
  const uint64_t live = static_cast<uint64_t>(state.range(0));
  uint64_t next_id = 1;
  for (uint64_t i = 0; i < live; ++i) {
    map[next_id] = next_id;
    ++next_id;
  }
  uint64_t probe = 0;
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    map[next_id] = next_id;
    ++next_id;
    map.erase(next_id - live - 1);
    benchmark::DoNotOptimize(map.count(next_id - 1 - (probe++ % live)));
  }
  const uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["heap_allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}

void BM_IdSlotMapChurn(benchmark::State& state) { MapChurn<IdSlotMap<uint64_t>>(state); }
BENCHMARK(BM_IdSlotMapChurn)->Arg(1024)->Arg(65536);

void BM_UnorderedMapChurn(benchmark::State& state) {
  MapChurn<std::unordered_map<uint64_t, uint64_t>>(state);
}
BENCHMARK(BM_UnorderedMapChurn)->Arg(1024)->Arg(65536);

// The warm-pool lookup the platform performs per request, before and after
// interning. Legacy: build "<workload>#<stage>" and hash it into an
// unordered_map. Interned: resolve the (pointer, stage) site to a dense
// FunctionId and index a flat vector — no string is ever materialized.
void BM_WarmPoolLookupLegacyString(benchmark::State& state) {
  const std::vector<WorkloadSpec>& suite = WorkloadSuite();
  std::unordered_map<std::string, std::vector<int>> pool;
  for (const WorkloadSpec& w : suite) {
    for (size_t stage = 0; stage < w.chain_length(); ++stage) {
      pool[w.name + "#" + std::to_string(stage)].push_back(1);
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    const WorkloadSpec& w = suite[i % suite.size()];
    const size_t stage = i % w.chain_length();
    benchmark::DoNotOptimize(pool.find(w.name + "#" + std::to_string(stage)));
    ++i;
  }
}
BENCHMARK(BM_WarmPoolLookupLegacyString);

void BM_WarmPoolLookupInterned(benchmark::State& state) {
  const std::vector<WorkloadSpec>& suite = WorkloadSuite();
  FunctionRegistry registry;
  for (const WorkloadSpec& w : suite) {
    for (size_t stage = 0; stage < w.chain_length(); ++stage) {
      registry.Intern(&w, stage);
    }
  }
  std::vector<std::vector<int>> pool(registry.size(), std::vector<int>(1, 1));
  size_t i = 0;
  const uint64_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    const WorkloadSpec& w = suite[i % suite.size()];
    const size_t stage = i % w.chain_length();
    const FunctionId id = registry.Intern(&w, stage);
    benchmark::DoNotOptimize(pool[id].data());
    ++i;
  }
  const uint64_t allocs = g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  state.counters["heap_allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_WarmPoolLookupInterned);

}  // namespace

// Hand-rolled main (vs BENCHMARK_MAIN) so a DESICCANT_EVENT_PROFILE=1 run
// ends with the per-event-kind cost table for whatever the benches dispatched.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (desiccant::EventProfile::Enabled()) {
    desiccant::EventProfile::PrintTable(stdout);
  }
  return 0;
}
