#include "src/workloads/function_program.h"

#include <algorithm>
#include <cassert>

#include "src/os/physical_memory.h"

namespace desiccant {

namespace {
// Compute progress is turned into clock advances in batches this large so the
// runtime's allocation-rate tracking sees intra-invocation time.
constexpr uint64_t kClockBatchObjects = 32;
}  // namespace

FunctionProgram::FunctionProgram(const StageSpec& spec, uint64_t seed)
    : spec_(spec), rng_(seed) {}

uint32_t FunctionProgram::SampleObjectSize() {
  const uint32_t size = spec_.object_size;
  const uint32_t jitter = size / 4;
  if (jitter == 0) {
    return std::max<uint32_t>(size, 16);
  }
  return std::max<uint32_t>(
      16, static_cast<uint32_t>(rng_.UniformU64(size - jitter, size + jitter)));
}

void FunctionProgram::AllocateGraph(ManagedRuntime& runtime, RootTable& table,
                                    uint64_t total_bytes,
                                    std::vector<RootTable::Handle>* handles) {
  uint64_t allocated = 0;
  uint32_t sizes[1 + SimObject::kMaxRefs];
  SimObject* cluster[1 + SimObject::kMaxRefs];
  while (allocated < total_bytes) {
    // One cluster: a rooted parent with up to kMaxRefs children. All sizes
    // are drawn up front — the runtime never touches this generator, so the
    // draw sequence is identical to the old interleaved form, and the whole
    // span can go through the runtime's batched fast path.
    sizes[0] = SampleObjectSize();
    uint64_t cluster_bytes = sizes[0];
    const int children = static_cast<int>(rng_.UniformU64(0, SimObject::kMaxRefs));
    size_t count = 1;
    for (int i = 0; i < children && allocated + cluster_bytes < total_bytes; ++i) {
      sizes[count] = SampleObjectSize();
      cluster_bytes += sizes[count];
      ++count;
    }
    if (runtime.AllocateCluster(sizes, count, cluster)) {
      handles->push_back(table.Create(cluster[0]));
      for (size_t i = 1; i < count; ++i) {
        cluster[0]->AddRef(cluster[i]);
        runtime.WriteBarrier(cluster[0], cluster[i]);
      }
    } else {
      // Slow path: a GC or policy decision could fire mid-span, so replay
      // the original one-object-at-a-time sequence exactly.
      SimObject* parent = runtime.AllocateObject(sizes[0]);
      handles->push_back(table.Create(parent));
      for (size_t i = 1; i < count; ++i) {
        SimObject* child = runtime.AllocateObject(sizes[i]);
        parent->AddRef(child);
        runtime.WriteBarrier(parent, child);
      }
    }
    allocated += cluster_bytes;
  }
}

InvocationOutcome FunctionProgram::Invoke(ManagedRuntime& runtime, SimClock& clock) {
  runtime.BeginInvocation();
  InvocationOutcome outcome;
  outcome.exec_multiplier = runtime.ExecMultiplier();
  const double exec_ms = spec_.exec_ms * outcome.exec_multiplier;
  const SimTime compute_time = FromMillis(exec_ms);

  // 1. First-invocation initialization (module load, model parse, ...). The
  // init working set is rooted for the whole first invocation and dropped at
  // its exit — it tenures into the old generation and then becomes garbage.
  std::vector<RootTable::Handle> init_roots;
  const bool first_invocation = !initialized_;
  if (first_invocation) {
    AllocateGraph(runtime, runtime.strong_roots(), spec_.persistent_bytes, &persistent_roots_);
    if (spec_.init_churn_bytes > 0) {
      AllocateGraph(runtime, runtime.strong_roots(), spec_.init_churn_bytes, &init_roots);
    }
    initialized_ = true;
  }

  // 2. Rebuild the weak set if an aggressive collection dropped it.
  if (spec_.weak_bytes > 0 && !runtime.weak_roots().AnyNonNull()) {
    weak_roots_.clear();
    AllocateGraph(runtime, runtime.weak_roots(), spec_.weak_bytes, &weak_roots_);
  }

  // 3. Churn with a rolling live window.
  const uint64_t window_slots =
      std::max<uint64_t>(1, spec_.window_bytes / std::max<uint32_t>(1, spec_.object_size));
  RootTable& strong = runtime.strong_roots();
  while (window_roots_.size() < window_slots) {
    window_roots_.push_back(strong.Create(nullptr));
  }
  uint64_t allocated = 0;
  size_t cursor = 0;
  SimTime compute_charged = 0;
  // Occasionally links the new object to the previous occupant of its window
  // slot, so the live graph has real edges for the tracer to chase, then
  // roots it in that slot.
  auto place = [&](SimObject* obj, bool link) {
    const RootTable::Handle slot = window_roots_[cursor];
    if (link) {
      SimObject* prev = strong.Get(slot);
      obj->AddRef(prev);
      runtime.WriteBarrier(obj, prev);
    }
    strong.Set(slot, obj);
    cursor = (cursor + 1) % window_roots_.size();
  };
  // Turns compute progress into a clock advance after every
  // kClockBatchObjects objects.
  auto tick = [&] {
    const SimTime target = static_cast<SimTime>(
        static_cast<double>(compute_time) * static_cast<double>(allocated) /
        static_cast<double>(std::max<uint64_t>(1, spec_.alloc_bytes)));
    if (target > compute_charged) {
      clock.AdvanceBy(target - compute_charged);
      compute_charged = target;
    }
  };
  // Node pressure can deny a commit for good mid-invocation (phase 1/2 above
  // or any churn allocation); the doomed program stops allocating there —
  // the platform kills it as soon as the outcome surfaces.
  bool oomed = runtime.pressure_oom();
  // Without an enabled pressure model no commit can fail, so a run of churn
  // objects between two clock ticks can be allocated as one span: no
  // per-object OOM check can fire inside it.
  const PhysicalMemory* node = runtime.address_space().node();
  if (node == nullptr || !node->enabled()) {
    uint32_t sizes[kClockBatchObjects];
    bool links[kClockBatchObjects];
    SimObject* objs[kClockBatchObjects];
    const size_t window = window_roots_.size();
    while (!oomed && allocated < spec_.alloc_bytes) {
      // Draw the run's sizes and link coins up front, in the per-object
      // order (size, then a coin only when the slot holds an object). The
      // runtime never touches this generator. Object k's slot holds object
      // k - window of this run, or whatever it held before the run.
      size_t n = 0;
      while (n < kClockBatchObjects && allocated < spec_.alloc_bytes) {
        sizes[n] = SampleObjectSize();
        allocated += sizes[n];
        const bool occupied =
            n >= window || strong.Get(window_roots_[(cursor + n) % window]) != nullptr;
        links[n] = occupied && rng_.Chance(0.25);
        ++n;
      }
      if (runtime.AllocateCluster(sizes, n, objs)) {
        for (size_t k = 0; k < n; ++k) {
          place(objs[k], links[k]);
        }
      } else {
        // A collection could fire mid-run: replay the per-object sequence,
        // rooting each object before the next allocation.
        for (size_t k = 0; k < n; ++k) {
          place(runtime.AllocateObject(sizes[k]), links[k]);
        }
      }
      if (n == kClockBatchObjects) {
        tick();
      }
    }
  } else {
    uint64_t objects_since_tick = 0;
    while (!oomed && allocated < spec_.alloc_bytes) {
      if (runtime.pressure_oom()) {
        oomed = true;
        break;
      }
      SimObject* obj = runtime.AllocateObject(SampleObjectSize());
      allocated += obj->size;
      place(obj, strong.Get(window_roots_[cursor]) != nullptr && rng_.Chance(0.25));
      if (++objects_since_tick >= kClockBatchObjects) {
        objects_since_tick = 0;
        tick();
      }
    }
  }
  if (!oomed && compute_time > compute_charged) {
    clock.AdvanceBy(compute_time - compute_charged);
    compute_charged = compute_time;
  }

  // 4. Chain-carry output stays rooted until the downstream stage reads it.
  if (spec_.carry_bytes > 0 && !oomed) {
    AllocateGraph(runtime, strong, spec_.carry_bytes, &carry_roots_);
  }

  // 5. Exit point: locals (and the init working set) die.
  for (RootTable::Handle h : window_roots_) {
    strong.Set(h, nullptr);
  }
  for (RootTable::Handle h : init_roots) {
    strong.Destroy(h);
  }

  outcome.mutator = runtime.EndInvocation();
  const SimTime overhead = outcome.mutator.gc_time + outcome.mutator.fault_time;
  clock.AdvanceBy(overhead);
  // A pressure-OOMed invocation dies where it stopped computing.
  outcome.duration = (oomed ? compute_charged : compute_time) + overhead;
  outcome.exec_multiplier = runtime.ExecMultiplier();
  outcome.oom_killed = runtime.ConsumePressureOom();
  return outcome;
}

void FunctionProgram::ConsumeCarry(ManagedRuntime& runtime) {
  RootTable& strong = runtime.strong_roots();
  for (RootTable::Handle h : carry_roots_) {
    strong.Destroy(h);
  }
  carry_roots_.clear();
}

}  // namespace desiccant
