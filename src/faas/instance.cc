#include "src/faas/instance.h"

#include <algorithm>
#include <cassert>

#include "src/cpython/cpython_runtime.h"
#include "src/hotspot/g1_runtime.h"
#include "src/hotspot/hotspot_runtime.h"
#include "src/v8/v8_runtime.h"

namespace desiccant {

std::unique_ptr<ManagedRuntime> CreateRuntime(Language language, uint64_t memory_budget,
                                              VirtualAddressSpace* vas, const SimClock* clock,
                                              SharedFileRegistry* registry) {
  switch (language) {
    case Language::kJava:
      return std::make_unique<HotSpotRuntime>(vas, clock,
                                              HotSpotConfig::ForInstanceBudget(memory_budget),
                                              registry);
    case Language::kJavaScript: {
      return std::make_unique<V8Runtime>(vas, clock, V8Config::ForInstanceBudget(memory_budget),
                                         registry);
    }
    case Language::kPython:
      return std::make_unique<CPythonRuntime>(
          vas, clock, CPythonConfig::ForInstanceBudget(memory_budget), registry);
  }
  return nullptr;
}

namespace {

V8Config V8ConfigForStage(const WorkloadSpec& workload, size_t stage, uint64_t budget) {
  V8Config config = V8Config::ForInstanceBudget(budget);
  const StageSpec& spec = workload.stages[stage];
  if (spec.weak_deopt_factor > 1.0) {
    config.weak_deopt_factor = spec.weak_deopt_factor;
  }
  return config;
}

}  // namespace

Instance::Instance(uint64_t id, const WorkloadSpec* workload, size_t stage,
                   uint64_t memory_budget, SharedFileRegistry* registry, uint64_t seed,
                   JavaCollector collector, PhysicalMemory* node)
    : id_(id),
      workload_(workload),
      stage_(stage),
      private_registry_(registry == nullptr ? std::make_unique<SharedFileRegistry>() : nullptr),
      vas_(registry != nullptr ? registry : private_registry_.get(), node),
      program_(std::make_unique<FunctionProgram>(workload->stages[stage], seed)) {
  assert(stage < workload->chain_length());
  SharedFileRegistry* effective =
      registry != nullptr ? registry : private_registry_.get();
  if (workload->language == Language::kJavaScript) {
    runtime_ = std::make_unique<V8Runtime>(&vas_, &exec_clock_,
                                           V8ConfigForStage(*workload, stage, memory_budget),
                                           effective);
  } else if (workload->language == Language::kJava && collector == JavaCollector::kG1) {
    runtime_ = std::make_unique<G1Runtime>(&vas_, &exec_clock_,
                                           G1Config::ForInstanceBudget(memory_budget),
                                           effective);
  } else {
    runtime_ = CreateRuntime(workload->language, memory_budget, &vas_, &exec_clock_, effective);
  }
  RefreshUss();
}

Instance::Instance(uint64_t id, Language language, uint64_t memory_budget,
                   SharedFileRegistry* registry, JavaCollector collector,
                   PhysicalMemory* node)
    : id_(id),
      workload_(nullptr),
      stage_(0),
      private_registry_(registry == nullptr ? std::make_unique<SharedFileRegistry>() : nullptr),
      vas_(registry != nullptr ? registry : private_registry_.get(), node) {
  SharedFileRegistry* effective =
      registry != nullptr ? registry : private_registry_.get();
  if (language == Language::kJava && collector == JavaCollector::kG1) {
    runtime_ = std::make_unique<G1Runtime>(&vas_, &exec_clock_,
                                           G1Config::ForInstanceBudget(memory_budget),
                                           effective);
  } else {
    runtime_ = CreateRuntime(language, memory_budget, &vas_, &exec_clock_, effective);
  }
  RefreshUss();
}

void Instance::Bind(const WorkloadSpec* workload, size_t stage, uint64_t seed) {
  assert(!bound());
  assert(workload->language == runtime_->language());
  assert(stage < workload->chain_length());
  workload_ = workload;
  stage_ = stage;
  program_ = std::make_unique<FunctionProgram>(workload->stages[stage], seed);
}

InvocationOutcome Instance::Execute() {
  assert(state_ != InstanceState::kFrozen);
  assert(bound());
  state_ = InstanceState::kRunning;
  InvocationOutcome outcome = program_->Invoke(*runtime_, exec_clock_);
  return outcome;
}

SimTime Instance::EagerGc() {
  // V8's exposed global.gc is an aggressive, thorough collection; HotSpot's
  // System.gc is not (§4.7).
  const bool aggressive = runtime_->language() == Language::kJavaScript;
  return runtime_->CollectGarbage(aggressive);
}

ReclaimResult Instance::Reclaim(const ReclaimOptions& options, bool unmap_idle_libraries) {
  const uint64_t uss_before = vas_.UssBytes();
  ReclaimResult result = runtime_->Reclaim(options);
  if (unmap_idle_libraries) {
    const uint64_t pages = UnmapIdleLibraries();
    result.cpu_time += pages * (300 * kNanosecond);
  }
  ++reclaim_count_;
  reclaimed_since_freeze_ = true;
  RefreshUss();
  // Report what the whole reclamation (GC + resize decommits + free-page
  // release + library unmap) actually gave back: the process USS delta.
  const uint64_t uss_after = cached_uss_;
  result.released_pages = uss_before > uss_after ? (uss_before - uss_after) / kPageSize : 0;
  return result;
}

void Instance::Freeze(SimTime now) {
  assert(state_ != InstanceState::kFrozen);
  state_ = InstanceState::kFrozen;
  frozen_since_ = now;
  reclaimed_since_freeze_ = false;
  RefreshUss();
}

SimTime Instance::Thaw() {
  assert(state_ == InstanceState::kFrozen);
  state_ = InstanceState::kRunning;
  SimTime cost = 0;
  if (libraries_unmapped_) {
    // Re-fault the unmapped image working set (read faults from page cache).
    const RegionId image = runtime_->image_region();
    if (image != kInvalidRegionId) {
      const uint64_t bytes = vas_.RegionSizeBytes(image) * 2 / 5;
      const TouchResult touch = vas_.Touch(image, 0, bytes, /*write=*/false);
      cost += fault_costs_.CostOf(touch);
    }
    libraries_unmapped_ = false;
  }
  return cost;
}

uint64_t Instance::IdealUssBytes() {
  const uint64_t uss = vas_.UssBytes();
  const uint64_t heap_resident = runtime_->HeapResidentBytes();
  const uint64_t non_heap = uss > heap_resident ? uss - heap_resident : 0;
  return non_heap + PageAlignUp(runtime_->ExactLiveBytes());
}

uint64_t Instance::UnmapIdleLibraries() {
  const uint64_t released = vas_.ReleaseUnsharedFileRegions();
  if (released > 0) {
    libraries_unmapped_ = true;
  }
  return released;
}

uint64_t Instance::SwapOut(uint64_t max_pages) {
  const uint64_t pages = vas_.SwapOutPages(max_pages);
  RefreshUss();
  return pages;
}

SimTime Instance::RebuildCost(SimTime container_create_cost) const {
  return container_create_cost + runtime_->BootCost() +
         fault_costs_.RebuildCost(vas_.resident_pages(), vas_.swapped_pages());
}

std::string Instance::FunctionKey() const {
  assert(bound());
  return workload_->name + "#" + std::to_string(stage_);
}

void Instance::BeginWorkingSetRecording() {
  assert(ws_armed_);
  ws_armed_ = false;
  ws_recorder_ = std::make_unique<WorkingSetRecorder>();
  vas_.set_touch_listener(ws_recorder_.get());
}

WorkingSet Instance::FinishWorkingSetRecording() {
  assert(ws_recorder_ != nullptr);
  vas_.set_touch_listener(nullptr);
  WorkingSet ws = ws_recorder_->Finish();
  ws_recorder_.reset();
  return ws;
}

uint64_t Instance::ResidentPagesIn(const WorkingSet& ws) const {
  uint64_t resident = 0;
  for (const WorkingSetRun& run : ws.runs) {
    if (!vas_.RegionLive(run.region)) {
      continue;
    }
    const uint64_t region_pages = BytesToPages(vas_.RegionSizeBytes(run.region));
    if (run.first_page >= region_pages) {
      continue;
    }
    const uint64_t pages = std::min(run.pages, region_pages - run.first_page);
    resident += vas_.ResidentPagesInRange(run.region, PagesToBytes(run.first_page),
                                          PagesToBytes(pages));
  }
  return resident;
}

}  // namespace desiccant
