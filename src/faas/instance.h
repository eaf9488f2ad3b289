// A FaaS instance: one container running one function stage.
//
// Owns the process's virtual address space, the language runtime, the
// function program, and the RUNNING/FROZEN state machine the freeze semantics
// revolve around (§2.1): a frozen instance executes nothing — in particular
// its runtime gets no opportunity to collect garbage.
#ifndef DESICCANT_SRC_FAAS_INSTANCE_H_
#define DESICCANT_SRC_FAAS_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/base/sim_clock.h"
#include "src/os/shared_file_registry.h"
#include "src/os/virtual_memory.h"
#include "src/runtime/managed_runtime.h"
#include "src/snapshot/working_set.h"
#include "src/workloads/function_program.h"
#include "src/workloads/function_spec.h"

namespace desiccant {

enum class InstanceState : uint8_t { kBooting, kRunning, kFrozen };

// Which collector Java instances run (§5.4 discussion / §7: Desiccant works
// with both; Lambda pins the serial GC).
enum class JavaCollector : uint8_t { kSerial, kG1 };

// Creates the language runtime for `language` sized to `memory_budget`.
std::unique_ptr<ManagedRuntime> CreateRuntime(Language language, uint64_t memory_budget,
                                              VirtualAddressSpace* vas, const SimClock* clock,
                                              SharedFileRegistry* registry);

class Instance {
 public:
  // `registry` is the node-wide shared-file registry. When null (the Lambda
  // mode of §5.4: no cross-instance sharing) the instance gets a private one,
  // so its runtime image pages always count toward USS. `node` is the node's
  // physical memory; null (or a zero budget) means infinite memory.
  Instance(uint64_t id, const WorkloadSpec* workload, size_t stage, uint64_t memory_budget,
           SharedFileRegistry* registry, uint64_t seed,
           JavaCollector collector = JavaCollector::kSerial,
           PhysicalMemory* node = nullptr);

  // A prewarmed "stem cell": the runtime is booted but no function is bound
  // yet. Bind() assigns one (and the program seed) before the first Execute().
  Instance(uint64_t id, Language language, uint64_t memory_budget,
           SharedFileRegistry* registry,
           JavaCollector collector = JavaCollector::kSerial,
           PhysicalMemory* node = nullptr);
  void Bind(const WorkloadSpec* workload, size_t stage, uint64_t seed);
  bool bound() const { return workload_ != nullptr; }

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // Runs one invocation of the stage's program. The instance must not be
  // frozen. Includes the refault cost of anything a prior reclaim released.
  InvocationOutcome Execute();

  // The eager baseline: a runtime GC right after the function exits.
  SimTime EagerGc();

  // Desiccant's reclaim interface (per-runtime GC + release), optionally
  // followed by the §4.6 library unmap. Refreshes the cached USS.
  ReclaimResult Reclaim(const ReclaimOptions& options, bool unmap_idle_libraries);

  void Freeze(SimTime now);
  SimTime Thaw();  // returns the thaw cost (unpause + any image refault)

  MemoryUsage Usage() const { return vas_.Usage(); }
  // USS snapshot refreshed at freeze/reclaim; what the platform charges
  // against the instance cache while the instance is frozen.
  uint64_t CachedUss() const { return cached_uss_; }
  void RefreshUss() { cached_uss_ = vas_.UssBytes(); }

  // The "ideal" metric of §3.1: only useful contents (live objects plus the
  // runtime's non-heap private memory) are charged.
  uint64_t IdealUssBytes();

  // §4.6: unmaps file-backed, never-written regions whose pages are mapped by
  // no other process. Returns pages released.
  uint64_t UnmapIdleLibraries();

  // The semantics-blind OS baseline of §5.6: pushes up to `max_pages`
  // resident pages to the swap device with no knowledge of which hold live
  // data. Returns pages swapped out.
  uint64_t SwapOut(uint64_t max_pages);

  // What losing this instance costs to rebuild from scratch: container
  // creation + runtime boot + re-faulting the current working set. The OOM
  // killer evicts the cheapest-to-rebuild frozen instance first.
  SimTime RebuildCost(SimTime container_create_cost) const;

  uint64_t id() const { return id_; }
  const WorkloadSpec* workload() const { return workload_; }
  size_t stage() const { return stage_; }
  std::string FunctionKey() const;
  // Dense id of FunctionKey() in the owning platform's FunctionRegistry; set
  // by the platform at creation/Bind (kInvalidFunctionId for unbound cells).
  uint32_t function_id() const { return function_id_; }
  void set_function_id(uint32_t id) { function_id_ = id; }
  InstanceState state() const { return state_; }
  void set_state(InstanceState s) { state_ = s; }
  SimTime frozen_since() const { return frozen_since_; }

  SimTime BootCost() const { return runtime_->BootCost(); }
  const VirtualAddressSpace& vas() const { return vas_; }
  ManagedRuntime& runtime() { return *runtime_; }
  FunctionProgram& program() { return *program_; }
  SimClock& exec_clock() { return exec_clock_; }
  Language language() const { return runtime_->language(); }

  bool reclaim_in_progress() const { return reclaim_in_progress_; }
  void set_reclaim_in_progress(bool v) { reclaim_in_progress_ = v; }
  uint64_t reclaim_count() const { return reclaim_count_; }
  // True once this freeze period has been reclaimed (no point doing it twice).
  bool reclaimed_since_freeze() const { return reclaimed_since_freeze_; }

  // REAP working-set recording (src/snapshot/). The platform arms recording
  // on a full cold boot, BeginWorkingSetRecording() attaches the recorder to
  // the address space just before Execute(), and FinishWorkingSetRecording()
  // at freeze time yields the merged page-access set for snapshot capture.
  void ArmWorkingSetRecording() { ws_armed_ = true; }
  bool working_set_armed() const { return ws_armed_; }
  void BeginWorkingSetRecording();
  bool recording_working_set() const { return ws_recorder_ != nullptr; }
  WorkingSet FinishWorkingSetRecording();

  // Pages of `ws` still resident in this address space. Defensively skips
  // runs whose region has since been unmapped and clamps runs to the region's
  // current size — recorded ids are only meaningful for this instance.
  uint64_t ResidentPagesIn(const WorkingSet& ws) const;

 private:
  uint64_t id_;
  const WorkloadSpec* workload_;
  size_t stage_;
  uint32_t function_id_ = static_cast<uint32_t>(-1);  // kInvalidFunctionId
  std::unique_ptr<SharedFileRegistry> private_registry_;  // Lambda mode only
  VirtualAddressSpace vas_;
  SimClock exec_clock_;
  std::unique_ptr<ManagedRuntime> runtime_;
  std::unique_ptr<FunctionProgram> program_;

  InstanceState state_ = InstanceState::kBooting;
  SimTime frozen_since_ = 0;
  uint64_t cached_uss_ = 0;
  bool libraries_unmapped_ = false;
  bool reclaim_in_progress_ = false;
  bool reclaimed_since_freeze_ = false;
  uint64_t reclaim_count_ = 0;
  FaultCostModel fault_costs_;
  bool ws_armed_ = false;
  std::unique_ptr<WorkingSetRecorder> ws_recorder_;
};

}  // namespace desiccant

#endif  // DESICCANT_SRC_FAAS_INSTANCE_H_
