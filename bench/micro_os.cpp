// Microbenchmarks of the OS page-state model in src/os (real wall-clock
// timing). These are the hot paths of every simulated GC cycle, freeze,
// reclaim pass, and platform sample tick: Touch/Release over large ranges,
// Usage()/Smaps() queries, resident-page probes, and swap-out scans. The
// numbers are tracked across PRs via scripts/bench_os.sh -> BENCH_os.json.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/base/units.h"
#include "src/os/shared_file_registry.h"
#include "src/os/virtual_memory.h"

namespace {

using namespace desiccant;

constexpr uint64_t kHeapBytes = 256 * kMiB;

// Commit + decommit of a 256 MiB heap: the cost of faulting a large
// allocation in and giving it back (GC release of free pages).
void BM_TouchRelease256MiB(benchmark::State& state) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kHeapBytes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vas.Touch(r, 0, kHeapBytes, /*write=*/true));
    benchmark::DoNotOptimize(vas.Release(r, 0, kHeapBytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kHeapBytes));
}
BENCHMARK(BM_TouchRelease256MiB);

// Re-touch of already-resident pages: the no-transition fast path taken by
// every allocation into warm heap pages.
void BM_TouchResident256MiB(benchmark::State& state) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", kHeapBytes);
  vas.Touch(r, 0, kHeapBytes, /*write=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vas.Touch(r, 0, kHeapBytes, /*write=*/true));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kHeapBytes));
}
BENCHMARK(BM_TouchResident256MiB);

// A realistic instance-shaped address space: a big heap region plus many
// chunked-space regions plus a shared runtime image, partially resident.
struct InstanceShapedSpace {
  SharedFileRegistry registry;
  VirtualAddressSpace vas{&registry};
  VirtualAddressSpace sharer{&registry};
  RegionId heap = kInvalidRegionId;

  InstanceShapedSpace() {
    heap = vas.MapAnonymous("java heap", kHeapBytes);
    vas.Touch(heap, 0, kHeapBytes / 2, /*write=*/true);
    for (int i = 0; i < 64; ++i) {
      const RegionId chunk = vas.MapAnonymous("chunk" + std::to_string(i), kChunkSize);
      vas.Touch(chunk, 0, kChunkSize / 2, /*write=*/true);
    }
    const FileId image = registry.RegisterFile("libjvm.so", 16 * kMiB);
    const RegionId img1 = vas.MapFile("libjvm.so", image);
    const RegionId img2 = sharer.MapFile("libjvm.so", image);
    vas.Touch(img1, 0, 12 * kMiB, /*write=*/false);
    sharer.Touch(img2, 0, 8 * kMiB, /*write=*/false);
  }
};

// USS/RSS/PSS query: fired at every freeze, reclaim and study sample. RSS
// and swap are O(1); the shared-page terms are derived by walking the
// image's clean words.
void BM_Usage(benchmark::State& state) {
  InstanceShapedSpace space;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.vas.Usage());
  }
}
BENCHMARK(BM_Usage);

// smaps-style per-region breakdown (library-unmap scans read this).
void BM_Smaps(benchmark::State& state) {
  InstanceShapedSpace space;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.vas.Smaps());
  }
}
BENCHMARK(BM_Smaps);

// Heap-space residency probe over a half-resident 256 MiB range.
void BM_ResidentPagesInRange(benchmark::State& state) {
  InstanceShapedSpace space;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.vas.ResidentPagesInRange(space.heap, 0, kHeapBytes));
  }
}
BENCHMARK(BM_ResidentPagesInRange);

// Swap-out scan (the semantics-blind §5.6 baseline) + swap-in re-touch.
void BM_SwapOutCycle(benchmark::State& state) {
  VirtualAddressSpace vas(nullptr);
  const RegionId r = vas.MapAnonymous("heap", 64 * kMiB);
  vas.Touch(r, 0, 64 * kMiB, /*write=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vas.SwapOutPages(BytesToPages(64 * kMiB)));
    benchmark::DoNotOptimize(vas.Touch(r, 0, 64 * kMiB, /*write=*/true));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(64 * kMiB));
}
BENCHMARK(BM_SwapOutCycle);

// Shared-file page churn: one process read-faults and releases a file
// mapping while `state.range(0)` other processes keep every page mapped.
// The refcount work is the churning process's own; the other mappers derive
// their shared-page terms when queried, so ns/op must not grow with their
// number.
void BM_SharedFileChurn(benchmark::State& state) {
  SharedFileRegistry registry;
  const FileId file = registry.RegisterFile("node", 32 * kMiB);
  VirtualAddressSpace p1(&registry);
  std::vector<std::unique_ptr<VirtualAddressSpace>> sharers;
  for (int64_t i = 0; i < state.range(0); ++i) {
    sharers.push_back(std::make_unique<VirtualAddressSpace>(&registry));
    const RegionId r = sharers.back()->MapFile("node", file);
    sharers.back()->Touch(r, 0, 32 * kMiB, /*write=*/false);
  }
  const RegionId r1 = p1.MapFile("node", file);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p1.Touch(r1, 0, 32 * kMiB, /*write=*/false));
    benchmark::DoNotOptimize(p1.Release(r1, 0, 32 * kMiB));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(32 * kMiB));
}
BENCHMARK(BM_SharedFileChurn)->Arg(1)->Arg(8)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
