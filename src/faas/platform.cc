#include "src/faas/platform.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace desiccant {

namespace {
constexpr double kMinReclaimShare = 0.1;
constexpr double kMaxReclaimShare = 1.0;
// Preempted reclamations keep at least this much CPU so they always finish.
constexpr double kReclaimShareFloor = 0.05;
}  // namespace

const char* MemoryModeName(MemoryMode mode) {
  switch (mode) {
    case MemoryMode::kVanilla:
      return "vanilla";
    case MemoryMode::kEager:
      return "eager";
    case MemoryMode::kDesiccant:
      return "desiccant";
    case MemoryMode::kSwap:
      return "swap";
  }
  return "unknown";
}

const char* OutcomeName(ActivationRecord::Outcome outcome) {
  switch (outcome) {
    case ActivationRecord::Outcome::kOk:
      return "ok";
    case ActivationRecord::Outcome::kRetriedThenOk:
      return "retried-then-ok";
    case ActivationRecord::Outcome::kTimedOut:
      return "timed-out";
    case ActivationRecord::Outcome::kOomKilled:
      return "oom-killed";
    case ActivationRecord::Outcome::kNodeLost:
      return "node-lost";
    case ActivationRecord::Outcome::kDropped:
      return "dropped";
  }
  return "unknown";
}

uint64_t PlatformMetrics::Fingerprint() const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(requests_completed);
  mix(stage_invocations);
  mix(cold_boots);
  mix(prewarm_adoptions);
  mix(warm_starts);
  mix(evictions);
  mix(keepalive_destroys);
  mix(reclaims);
  mix(swap_outs);
  mix(requests_failed);
  mix(requests_dropped);
  mix(requests_retried_ok);
  mix(invocation_timeouts);
  mix(boot_failures);
  mix(oom_kills);
  mix(oom_kills_frozen);
  mix(oom_kills_running);
  mix(node_crashes);
  mix(failovers);
  mix(retries);
  mix(reclaim_aborts);
  mix(latency_ms.Fingerprint());
  mix(queue_ms.Fingerprint());
  mix(boot_ms.Fingerprint());
  mix(exec_ms.Fingerprint());
  mix_double(cpu_busy_core_s);
  mix_double(boot_cpu_core_s);
  mix_double(eager_gc_cpu_core_s);
  mix_double(reclaim_cpu_core_s);
  mix(window_start);
  mix(window_end);
  // Counters added after the golden fingerprints were pinned only contribute
  // when non-zero, each behind a unique tag: a run that never exercises the
  // snapshot subsystem hashes exactly as it did before the subsystem existed.
  const auto mix_tagged = [&mix](uint64_t tag, uint64_t v) {
    if (v != 0) {
      mix(tag);
      mix(v);
    }
  };
  mix_tagged(0x7265'7374'6f72'65ull, restore_failures);   // "restore"
  mix_tagged(0x736e'6170'7265'73ull, snapshot_restores);  // "snapres"
  mix_tagged(0x736e'6170'666c'62ull, snapshot_fallback_boots);
  mix_tagged(0x736e'6170'6361'70ull, snapshot_captures);
  return h;
}

void PlatformMetrics::Accumulate(const PlatformMetrics& other) {
  requests_completed += other.requests_completed;
  stage_invocations += other.stage_invocations;
  cold_boots += other.cold_boots;
  prewarm_adoptions += other.prewarm_adoptions;
  warm_starts += other.warm_starts;
  evictions += other.evictions;
  keepalive_destroys += other.keepalive_destroys;
  reclaims += other.reclaims;
  swap_outs += other.swap_outs;
  requests_failed += other.requests_failed;
  requests_dropped += other.requests_dropped;
  requests_retried_ok += other.requests_retried_ok;
  invocation_timeouts += other.invocation_timeouts;
  boot_failures += other.boot_failures;
  restore_failures += other.restore_failures;
  snapshot_restores += other.snapshot_restores;
  snapshot_fallback_boots += other.snapshot_fallback_boots;
  snapshot_captures += other.snapshot_captures;
  oom_kills += other.oom_kills;
  oom_kills_frozen += other.oom_kills_frozen;
  oom_kills_running += other.oom_kills_running;
  node_crashes += other.node_crashes;
  failovers += other.failovers;
  retries += other.retries;
  reclaim_aborts += other.reclaim_aborts;
  cpu_busy_core_s += other.cpu_busy_core_s;
  boot_cpu_core_s += other.boot_cpu_core_s;
  eager_gc_cpu_core_s += other.eager_gc_cpu_core_s;
  reclaim_cpu_core_s += other.reclaim_cpu_core_s;
  window_start = std::min(window_start, other.window_start);
  window_end = std::max(window_end, other.window_end);
  other.latency_ms.ForEachSample([this](double sample) { latency_ms.Add(sample); });
  other.queue_ms.ForEachSample([this](double sample) { queue_ms.Add(sample); });
  other.boot_ms.ForEachSample([this](double sample) { boot_ms.Add(sample); });
  other.exec_ms.ForEachSample([this](double sample) { exec_ms.Add(sample); });
}

Platform::Platform(const PlatformConfig& config, SimContext* context)
    : config_(config), rng_(config.seed), injector_(config.faults, config.seed) {
  if (context != nullptr) {
    context_ = context;
  } else {
    owned_context_ = std::make_unique<SimContext>();
    context_ = owned_context_.get();
  }
  // Only materialize the node's physical memory when the pressure model is
  // on: with physical_ null every address space runs unattached, exactly as
  // before the model existed.
  if (config_.pressure.page_budget != 0) {
    physical_ = std::make_unique<PhysicalMemory>(config_.pressure);
  }
  // Same pattern for the snapshot store: only constructed when enabled, so a
  // disabled config cannot perturb the event stream.
  ValidateSnapshotConfig(config_.snapshot);
  if (config_.snapshot.enabled) {
    snapshot_store_ = std::make_unique<SnapshotStore>(config_.snapshot, &injector_);
    if (config_.faults.snapshot_local_tier_fail_at > 0) {
      ScheduleNode(config_.faults.snapshot_local_tier_fail_at, EventKind::kSnapshot, [this]() {
        const uint64_t lost = snapshot_store_->FailLocalTier();
        RecordFault(FaultKind::kSnapshotTierLost, 0, "", lost);
      });
    }
  }
}

void Platform::ScheduleNode(SimTime time, EventQueue::Closure fn, EventKind kind) {
  // The epoch guard lives in the event itself (not a wrapper closure): a
  // wrapper would nest the closure and push every node event past the inline
  // capacity onto the heap. A stale event still advances the clock and ticks,
  // exactly as the old no-op wrapper did.
  context_->events.ScheduleGuarded(time, &epoch_, epoch_, std::move(fn), kind);
}

std::vector<Instance*>& Platform::WarmPool(FunctionId function) {
  if (warm_pool_.size() <= function) {
    warm_pool_.resize(function + 1);
  }
  return warm_pool_[function];
}

const std::string& Platform::FunctionName(const Instance& instance) const {
  static const std::string kStemcell = "stemcell";
  return instance.bound() ? functions_.Name(instance.function_id()) : kStemcell;
}

void Platform::Submit(const WorkloadSpec* workload, SimTime arrival) {
  Request request;
  request.id = next_request_id_++;
  request.workload = workload;
  request.stage = 0;
  request.arrival = arrival;
  // Arrivals are deliberately NOT epoch-scoped: a request that lands on a
  // crashed node must fail over, not vanish.
  context_->events.Schedule(
      arrival,
      [this, request]() {
        if (down_ && failover_handler_) {
          failover_handler_(request);
          return;
        }
        if (!TryRun(request)) {
          waiting_.push_back(request);
        }
      },
      EventKind::kArrival);
}

void Platform::Run() {
  while (!context_->events.empty()) {
    context_->events.RunNext(&context_->clock);
    if (observer_ != nullptr) {
      observer_->OnTick();
    }
    if (check_invariants_) {
      CheckAccounting();
    }
  }
}

void Platform::RunUntil(SimTime deadline) {
  while (!context_->events.empty() && context_->events.next_time() <= deadline) {
    context_->events.RunNext(&context_->clock);
    if (observer_ != nullptr) {
      observer_->OnTick();
    }
    if (check_invariants_) {
      CheckAccounting();
    }
  }
  context_->clock.AdvanceTo(std::max(context_->clock.Now(), deadline));
}

void Platform::BeginMeasurement() {
  UpdateCpuIntegral();
  metrics_ = PlatformMetrics{};
  metrics_.window_start = context_->clock.Now();
  metrics_.window_end = context_->clock.Now();
}

const PlatformMetrics& Platform::FinishMeasurement() {
  UpdateCpuIntegral();
  metrics_.window_end = context_->clock.Now();
  return metrics_;
}

uint64_t Platform::FrozenMemoryBytes() const {
  uint64_t total = 0;
  for (const Instance* instance : frozen_by_id_) {
    total += FrozenCharge(*instance);
  }
  return total;
}

uint64_t Platform::FrozenCharge(const Instance& instance) const {
  return std::min(instance.CachedUss(), config_.instance_memory_budget);
}

void Platform::AddFrozen(Instance* instance) {
  const auto it =
      std::lower_bound(frozen_by_id_.begin(), frozen_by_id_.end(), instance,
                       [](const Instance* a, const Instance* b) { return a->id() < b->id(); });
  assert(it == frozen_by_id_.end() || *it != instance);
  frozen_by_id_.insert(it, instance);
}

void Platform::RemoveFrozen(Instance* instance) {
  const auto it =
      std::lower_bound(frozen_by_id_.begin(), frozen_by_id_.end(), instance,
                       [](const Instance* a, const Instance* b) { return a->id() < b->id(); });
  assert(it != frozen_by_id_.end() && *it == instance);
  frozen_by_id_.erase(it);
}

std::vector<Instance*> Platform::FrozenInstances() const {
  // Selection policies stable_sort this list, so ties must see a canonical
  // order: ascending id (boot order), which frozen_by_id_ maintains across
  // the freeze/thaw/destroy/crash transitions.
#ifndef NDEBUG
  // Cross-check the incremental list against the ground truth. A mismatch
  // means a state transition forgot its Add/RemoveFrozen hook.
  std::vector<Instance*> scan;
  for (const auto& [id, instance] : instances_) {
    if (instance->state() == InstanceState::kFrozen) {
      scan.push_back(instance.get());
    }
  }
  std::sort(scan.begin(), scan.end(),
            [](const Instance* a, const Instance* b) { return a->id() < b->id(); });
  assert(scan == frozen_by_id_);
#endif
  return frozen_by_id_;
}

bool Platform::TryRun(const Request& request) {
  const FunctionId function = functions_.Intern(request.workload, request.stage);
  Instance* warm = FindWarmInstance(function);
  if (warm != nullptr) {
    if (cpu_in_use_ + config_.instance_cpu_share > config_.cpu_cores) {
      PreemptReclaims(cpu_in_use_ + config_.instance_cpu_share - config_.cpu_cores);
      if (cpu_in_use_ + config_.instance_cpu_share > config_.cpu_cores) {
        return false;
      }
    }
    warm_pool_[function].pop_back();  // FindWarmInstance returned the most recently frozen
    // The instance leaves the frozen cache while it runs.
    memory_charged_ -= FrozenCharge(*warm);
    running_committed_ += config_.instance_memory_budget;
    AcquireCpu(config_.instance_cpu_share);
    RemoveFrozen(warm);
    const SimTime thaw_refault = warm->Thaw();
    if (InWindow()) {
      ++metrics_.warm_starts;
    }
    Request started = request;
    started.start = ActivationRecord::Start::kWarm;
    StartOnInstance(warm, started, config_.thaw_cost + thaw_refault);
    MaybeOomKill();
    return true;
  }

  // Prewarmed stem cell (OpenWhisk-style): adopt a generic booted container.
  if (config_.prewarm_per_language > 0) {
    Instance* prewarmed = TakePrewarmed(request.workload->language);
    if (prewarmed != nullptr) {
      if (cpu_in_use_ + config_.instance_cpu_share > config_.cpu_cores) {
        // Put it back; the request waits for CPU.
        prewarm_ready_[static_cast<uint8_t>(request.workload->language)].push_back(
            prewarmed->id());
        return false;
      }
      prewarmed->Bind(request.workload, request.stage, rng_.NextU64());
      prewarmed->set_function_id(function);
      prewarmed->set_state(InstanceState::kRunning);
      AcquireCpu(config_.instance_cpu_share);
      if (InWindow()) {
        ++metrics_.prewarm_adoptions;
      }
      Request started = request;
      started.start = ActivationRecord::Start::kPrewarm;
      StartOnInstance(prewarmed, started, config_.prewarm_adopt_cost);
      MaintainPrewarmPool(request.workload->language);
      return true;
    }
    MaintainPrewarmPool(request.workload->language);
  }

  // Cold boot (or SnapStart-style snapshot restore).
  if (cpu_in_use_ + config_.boot_cpu_share > config_.cpu_cores) {
    PreemptReclaims(cpu_in_use_ + config_.boot_cpu_share - config_.cpu_cores);
    if (cpu_in_use_ + config_.boot_cpu_share > config_.cpu_cores) {
      return false;
    }
  }
  AcquireCpu(config_.boot_cpu_share);

  const uint64_t id = next_instance_id_++;
  auto instance = std::make_unique<Instance>(
      id, request.workload, request.stage, config_.instance_memory_budget, &registry_,
      rng_.NextU64(), config_.java_collector, physical_.get());
  instance->set_function_id(function);

  // Boot cost: a plain cold boot, the legacy flat-cost SnapStart restore, or
  // a tiered restore planned by the snapshot store (REAP prefetch or lazy
  // demand-faulting, tier-by-tier fallback, full boot as last resort).
  bool restore_attempt = false;
  SimTime demand_cost = 0;
  SimTime boot_wall = config_.container_create_cost + instance->BootCost();
  if (config_.snapstart_restore) {
    if (snapshot_store_ == nullptr) {
      boot_wall = config_.snapstart_restore_cost;
      restore_attempt = true;
    } else if (snapshot_store_->HasCopy(function, context_->clock.Now()) ||
               request.snapshot_stranded) {
      const SnapshotStore::RestoreOutcome plan =
          snapshot_store_->PlanRestore(function, context_->clock.Now());
      if (plan.fetch_failures > 0) {
        RecordFault(FaultKind::kSnapshotFetchFailure, id, functions_.Name(function),
                    plan.fetch_failures);
      }
      if (plan.corruptions > 0) {
        RecordFault(FaultKind::kSnapshotCorrupt, id, functions_.Name(function),
                    plan.corruptions);
      }
      if (plan.hit) {
        boot_wall = config_.snapshot.restore_base_cost + plan.fetch_wall;
        demand_cost = plan.demand_cost;
        restore_attempt = true;
        if (InWindow()) {
          ++metrics_.snapshot_restores;
        }
      } else {
        // Every copy timed out or was corrupt: full cold boot, plus the time
        // burned discovering that; re-arm recording so the next freeze
        // re-captures a fresh image.
        boot_wall += plan.fetch_wall;
        instance->ArmWorkingSetRecording();
        if (InWindow()) {
          ++metrics_.snapshot_fallback_boots;
        }
      }
    } else {
      // First boot of this function: record its working set for REAP.
      instance->ArmWorkingSetRecording();
    }
  } else if (snapshot_store_ != nullptr) {
    instance->ArmWorkingSetRecording();
  }

  instances_.emplace(id, std::move(instance));
  running_committed_ += config_.instance_memory_budget;
  if (InWindow()) {
    ++metrics_.cold_boots;
    metrics_.boot_cpu_core_s += config_.boot_cpu_share * ToSeconds(boot_wall);
  }

  // Injected cold-boot / restore failure, decided up front (the injector's
  // generator is private, so the draw is deterministic per boot attempt).
  const bool boot_fails = restore_attempt ? injector_.RestoreFails() : injector_.BootFails();

  Request started = request;
  started.start = ActivationRecord::Start::kCold;
  started.boot_time += boot_wall;
  booting_.emplace(id, started);
  ScheduleNode(context_->clock.Now() + boot_wall, EventKind::kBootComplete,
               [this, id, boot_fails, restore_attempt, demand_cost]() {
    auto bit = booting_.find(id);
    if (bit == booting_.end()) {
      return;  // killed (OOM) while booting
    }
    Request booting = std::move(bit->second);
    booting_.erase(bit);
    Instance* booted = LookUp(id);
    assert(booted != nullptr);
    if (boot_fails) {
      // The boot burned its full cost, then the container died: tear it
      // down and retry the boot (bounded), paying backoff in between.
      running_committed_ -= config_.instance_memory_budget;
      if (InWindow()) {
        if (restore_attempt) {
          ++metrics_.restore_failures;
        } else {
          ++metrics_.boot_failures;
        }
      }
      RecordFault(FaultKind::kBootFailure, id, FunctionName(*booted));
      if (observer_ != nullptr) {
        observer_->OnInstanceDestroyed(booted);
      }
      instances_.erase(id);
      if (booting.boot_attempts < injector_.plan().max_boot_retries) {
        ++booting.boot_attempts;
        booting.retried = true;
        if (InWindow()) {
          ++metrics_.retries;
        }
        const SimTime delay = injector_.RetryBackoff(booting.boot_attempts);
        ScheduleNode(context_->clock.Now() + delay, EventKind::kBootComplete, [this, booting]() {
          if (!TryRun(booting)) {
            waiting_.push_back(booting);
          }
        });
      } else {
        FailRequest(booting, ActivationRecord::Outcome::kDropped, /*dropped=*/true);
      }
      ReleaseCpu(config_.boot_cpu_share);
      return;
    }
    // Swap the boot share for the (smaller) invocation share atomically so a
    // queued request cannot steal the CPU in between.
    UpdateCpuIntegral();
    cpu_in_use_ += config_.instance_cpu_share - config_.boot_cpu_share;
    booted->set_state(InstanceState::kRunning);
    // demand_cost: a lazy (non-REAP) restore pays its working-set demand
    // faults during the first invocation, not during the restore itself.
    StartOnInstance(booted, booting, demand_cost);
    PumpWaiting();
  });
  MaybeOomKill();
  return true;
}

// Pre-condition: the caller has already acquired the invocation CPU share.
void Platform::StartOnInstance(Instance* instance, const Request& request,
                               SimTime extra_start_cost) {
  // The downstream stage reads its input now: the upstream instance's carry
  // becomes garbage (collectible at its next GC or reclaim). The upstream may
  // be gone (node crash / OOM) or already consumed (a retried stage).
  if (request.upstream_id != 0) {
    Instance* upstream = LookUp(request.upstream_id);
    if (upstream != nullptr && upstream->program().has_carry()) {
      upstream->program().ConsumeCarry(upstream->runtime());
    }
  }

  if (instance->working_set_armed()) {
    instance->BeginWorkingSetRecording();
  }
  const InvocationOutcome outcome = instance->Execute();
  if (InWindow()) {
    ++metrics_.stage_invocations;
  }
  const SimTime wall =
      extra_start_cost +
      static_cast<SimTime>(static_cast<double>(outcome.duration) / config_.instance_cpu_share);
  const uint64_t id = instance->id();

  // Controller-side invocation timeout: the deadline is known up front, so a
  // stage that would overrun is killed at the deadline instead of completing.
  const SimTime timeout = injector_.plan().invocation_timeout;
  if (timeout > 0 && wall > timeout) {
    Request timed = request;
    timed.exec_time += timeout;
    inflight_.emplace(id, timed);
    ScheduleNode(context_->clock.Now() + timeout, EventKind::kKill, [this, id]() { TimeoutKill(id); });
    return;
  }

  // Node-pressure OOM: a page commit was denied for good during this
  // invocation (swap full, emergency relief insufficient). The program
  // stopped allocating at that point, so `wall` already reflects the
  // truncated compute; the kernel kills the instance when it surfaces.
  if (outcome.oom_killed) {
    Request doomed = request;
    doomed.exec_time += wall;
    inflight_.emplace(id, doomed);
    ScheduleNode(context_->clock.Now() + wall, EventKind::kKill,
                 [this, id]() { PressureOomKill(id); });
    return;
  }

  Request completed = request;
  completed.exec_time += wall;
  inflight_.emplace(id, completed);
  ScheduleNode(context_->clock.Now() + wall, EventKind::kStageComplete, [this, id]() {
    auto it = inflight_.find(id);
    if (it == inflight_.end()) {
      return;  // killed (OOM) before completing
    }
    Request finished = std::move(it->second);
    inflight_.erase(it);
    Instance* done = LookUp(id);
    assert(done != nullptr);
    OnStageComplete(done, finished);
  });
}

void Platform::LogActivation(const Request& request, uint64_t instance_id,
                             const std::string& function_key,
                             ActivationRecord::Outcome outcome) {
  if (config_.log_retention == PlatformConfig::LogRetention::kCountersOnly) {
    // Counters-only retention: every metric was already updated by the
    // caller; skip materializing a record (one string copy per activation —
    // real money on the 1M-arrival tiers) that nobody will read.
    return;
  }
  ActivationRecord record;
  record.request_id = request.id;
  record.function_key = function_key;
  record.arrival = request.arrival;
  record.completion = context_->clock.Now();
  record.start = request.start;
  record.outcome = outcome;
  record.attempts = request.attempts + request.boot_attempts;
  record.instance_id = instance_id;
  activation_log_.push_back(std::move(record));
  if (activation_log_.size() > kActivationLogCapacity) {
    activation_log_.pop_front();
  }
}

std::vector<ActivationRecord> Platform::RecentActivations() const {
  return {activation_log_.begin(), activation_log_.end()};
}

std::vector<FaultEvent> Platform::RecentFaults() const {
  return {fault_log_.begin(), fault_log_.end()};
}

void Platform::RecordFault(FaultKind kind, uint64_t instance_id, std::string function_key,
                           uint64_t detail) {
  FaultEvent event;
  event.at = context_->clock.Now();
  event.kind = kind;
  event.instance_id = instance_id;
  event.function_key = std::move(function_key);
  event.detail = detail;
  if (observer_ != nullptr) {
    observer_->OnFault(event);
  }
  if (config_.log_retention == PlatformConfig::LogRetention::kCountersOnly) {
    return;  // observer + metrics already saw the fault; keep no record
  }
  fault_log_.push_back(std::move(event));
  if (fault_log_.size() > kFaultLogCapacity) {
    fault_log_.pop_front();
  }
}

void Platform::FailRequest(const Request& request, ActivationRecord::Outcome outcome,
                           bool dropped) {
  if (InWindow()) {
    if (dropped) {
      ++metrics_.requests_dropped;
    } else {
      ++metrics_.requests_failed;
    }
  }
  LogActivation(request, 0,
                functions_.Name(functions_.Intern(request.workload, request.stage)), outcome);
}

void Platform::RetryOrFail(Request request, bool dropped_on_exhaust) {
  if (request.attempts < injector_.plan().max_invocation_retries) {
    ++request.attempts;
    request.retried = true;
    if (InWindow()) {
      ++metrics_.retries;
    }
    const SimTime delay = injector_.RetryBackoff(request.attempts);
    ScheduleNode(context_->clock.Now() + delay, EventKind::kArrival, [this, request]() {
      if (!TryRun(request)) {
        waiting_.push_back(request);
      }
    });
  } else {
    FailRequest(request, ActivationRecord::Outcome::kDropped, dropped_on_exhaust);
  }
}

void Platform::KillNonFrozen(Instance* instance, ActivationRecord::Outcome outcome) {
  const uint64_t id = instance->id();
  const std::string key = FunctionName(*instance);
  running_committed_ -= config_.instance_memory_budget;

  const auto destroy = [this, id, instance]() {
    if (observer_ != nullptr) {
      observer_->OnInstanceDestroyed(instance);
    }
    provisioned_.erase(id);
    instances_.erase(id);
  };

  auto bit = booting_.find(id);
  if (bit != booting_.end()) {
    // Cold boot in flight: the boot share dies with the container.
    Request request = std::move(bit->second);
    booting_.erase(bit);
    ReleaseCpuNoPump(config_.boot_cpu_share);
    LogActivation(request, id, key, outcome);
    destroy();
    RetryOrFail(std::move(request), /*dropped_on_exhaust=*/false);
    return;
  }
  auto pb = prewarm_booting_.find(id);
  if (pb != prewarm_booting_.end()) {
    // Stem cell still booting: release the share, shrink the in-flight count.
    --prewarm_inflight_.at(pb->second);
    prewarm_booting_.erase(pb);
    ReleaseCpuNoPump(config_.boot_cpu_share);
    destroy();
    return;
  }
  auto it = inflight_.find(id);
  if (it != inflight_.end()) {
    Request request = std::move(it->second);
    inflight_.erase(it);
    ReleaseCpuNoPump(config_.instance_cpu_share);
    LogActivation(request, id, key, outcome);
    destroy();
    RetryOrFail(std::move(request), /*dropped_on_exhaust=*/false);
    return;
  }
  // Remaining cases: a ready stem cell or a provisioned boot (no CPU held,
  // state kBooting), or a post-completion instance inside its eager-GC /
  // freeze-grace window (still holding the invocation share, state kRunning).
  if (instance->state() == InstanceState::kRunning) {
    ReleaseCpuNoPump(config_.instance_cpu_share);
  }
  destroy();
}

void Platform::PressureOomKill(uint64_t instance_id) {
  auto it = inflight_.find(instance_id);
  if (it == inflight_.end()) {
    return;  // already torn down by another kill path
  }
  Instance* victim = LookUp(instance_id);
  assert(victim != nullptr);
  if (InWindow()) {
    ++metrics_.oom_kills;
    ++metrics_.oom_kills_running;
  }
  RecordFault(FaultKind::kOomKill, instance_id, FunctionName(*victim),
              config_.instance_memory_budget);
  KillNonFrozen(victim, ActivationRecord::Outcome::kOomKilled);
  PumpWaiting();
}

void Platform::TimeoutKill(uint64_t instance_id) {
  auto it = inflight_.find(instance_id);
  if (it == inflight_.end()) {
    return;  // already torn down by an OOM kill
  }
  Instance* victim = LookUp(instance_id);
  assert(victim != nullptr);
  if (InWindow()) {
    ++metrics_.invocation_timeouts;
  }
  RecordFault(FaultKind::kInvocationTimeout, instance_id, FunctionName(*victim));
  KillNonFrozen(victim, ActivationRecord::Outcome::kTimedOut);
  PumpWaiting();
}

Instance* Platform::CheapestToRebuildFrozen() const {
  Instance* cheapest = nullptr;
  SimTime cheapest_cost = 0;
  for (Instance* instance : frozen_by_id_) {
    const SimTime cost = instance->RebuildCost(config_.container_create_cost);
    if (cheapest == nullptr || cost < cheapest_cost ||
        (cost == cheapest_cost && instance->id() < cheapest->id())) {
      cheapest = instance;
      cheapest_cost = cost;
    }
  }
  return cheapest;
}

void Platform::MaybeOomKill() {
  const uint64_t capacity = injector_.plan().node_memory_bytes;
  if (capacity == 0) {
    return;
  }
  // With the pressure model on, the OOM killer watches what is actually
  // resident on the node rather than the platform's charged bytes — the same
  // quantity the commit gate and kswapd see.
  const auto used_bytes = [this]() {
    return physical_ != nullptr ? physical_->ResidentBytes() : committed_bytes();
  };
  bool killed = false;
  while (used_bytes() > capacity) {
    // Kill order: cheapest-to-rebuild frozen instance first (losing it costs
    // one cold boot), then the youngest running/booting instance (losing it
    // aborts an invocation). Provisioned capacity is not exempt — the OOM
    // killer sits below platform policy.
    if (Instance* frozen = CheapestToRebuildFrozen()) {
      const uint64_t freed = FrozenCharge(*frozen);
      if (InWindow()) {
        ++metrics_.oom_kills;
        ++metrics_.oom_kills_frozen;
      }
      RecordFault(FaultKind::kOomKill, frozen->id(), FunctionName(*frozen), freed);
      DestroyInstance(frozen, /*evicted=*/true);
      killed = true;
      continue;
    }
    Instance* victim = nullptr;
    for (const auto& [id, instance] : instances_) {
      if (instance->state() == InstanceState::kFrozen) {
        continue;
      }
      if (victim == nullptr || instance->id() > victim->id()) {
        victim = instance.get();
      }
    }
    if (victim == nullptr) {
      break;  // nothing left to kill; capacity is simply too small
    }
    if (InWindow()) {
      ++metrics_.oom_kills;
      ++metrics_.oom_kills_running;
    }
    RecordFault(FaultKind::kOomKill, victim->id(), FunctionName(*victim),
                config_.instance_memory_budget);
    KillNonFrozen(victim, ActivationRecord::Outcome::kOomKilled);
    killed = true;
  }
  if (killed) {
    PumpWaiting();
  }
}

void Platform::OnStageComplete(Instance* instance, const Request& request) {
  const ActivationRecord::Outcome outcome = request.retried
                                                ? ActivationRecord::Outcome::kRetriedThenOk
                                                : ActivationRecord::Outcome::kOk;
  LogActivation(request, instance->id(), FunctionName(*instance), outcome);
  // Chain orchestration: fire the next stage (the response to the user only
  // happens after the last stage).
  if (request.stage + 1 < request.workload->chain_length()) {
    Request next = request;
    next.stage = request.stage + 1;
    next.upstream_id = instance->id();
    if (!TryRun(next)) {
      waiting_.push_back(next);
    }
  } else {
    if (InWindow()) {
      ++metrics_.requests_completed;
      if (request.retried) {
        ++metrics_.requests_retried_ok;
      }
      const SimTime latency = context_->clock.Now() - request.arrival;
      metrics_.latency_ms.Add(ToMillis(latency));
      metrics_.boot_ms.Add(ToMillis(request.boot_time));
      metrics_.exec_ms.Add(ToMillis(request.exec_time));
      const SimTime accounted = request.boot_time + request.exec_time;
      metrics_.queue_ms.Add(ToMillis(latency > accounted ? latency - accounted : 0));
    }
  }

  const double share = config_.instance_cpu_share;
  if (config_.mode == MemoryMode::kEager) {
    // Eager baseline: GC right after the function exits, before freezing. The
    // instance keeps its CPU share while collecting.
    const SimTime gc_time = instance->EagerGc();
    if (InWindow()) {
      metrics_.eager_gc_cpu_core_s += ToSeconds(gc_time);
    }
    const uint64_t id = instance->id();
    ScheduleNode(
        context_->clock.Now() + static_cast<SimTime>(static_cast<double>(gc_time) / share),
        EventKind::kFreezeKeepAlive,
        [this, id, share]() {
          Instance* done = LookUp(id);
          if (done == nullptr) {
            return;  // OOM-killed during the collection; the kill released the share
          }
          ReleaseCpu(share);
          FreezeInstance(done);
        });
    return;
  }
  if (config_.freeze_grace > 0) {
    // §2.1: background threads keep running (and holding the CPU share) for a
    // short window after the function returns; then the platform pauses the
    // container.
    const uint64_t id = instance->id();
    ScheduleNode(context_->clock.Now() + config_.freeze_grace, EventKind::kFreezeKeepAlive,
                 [this, id, share]() {
                   Instance* done = LookUp(id);
                   if (done == nullptr) {
                     return;  // OOM-killed during the grace window
                   }
                   ReleaseCpu(share);
                   FreezeInstance(done);
                 });
    return;
  }
  ReleaseCpu(share);
  FreezeInstance(instance);
}

void Platform::FreezeInstance(Instance* instance) {
  instance->Freeze(context_->clock.Now());
  AddFrozen(instance);
  running_committed_ -= config_.instance_memory_budget;
  // Snapshot capture happens at freeze time — the image is the paused
  // container — whether or not the instance is then admitted to the cache.
  MaybeCaptureSnapshot(instance);
  // Admitting the instance into the frozen cache: evict LRU instances until
  // its USS fits (OpenWhisk destroys idle instances when free memory is not
  // enough, §4.2).
  const uint64_t charge = FrozenCharge(*instance);
  if (!EnsureMemory(charge, instance)) {
    // Never admitted to the cache: pre-charge so DestroyInstance's uncharge
    // balances instead of underflowing the cache counter.
    memory_charged_ += charge;
    DestroyInstance(instance, /*evicted=*/true);
    return;
  }
  memory_charged_ += charge;
  WarmPool(instance->function_id()).push_back(instance);
  if (observer_ != nullptr) {
    observer_->OnInstanceFrozen(instance);
  }

  // Keep-alive expiry.
  const uint64_t id = instance->id();
  const SimTime frozen_at = instance->frozen_since();
  ScheduleNode(context_->clock.Now() + config_.keep_alive, EventKind::kFreezeKeepAlive,
               [this, id, frozen_at]() {
    Instance* idle = LookUp(id);
    if (idle != nullptr && idle->state() == InstanceState::kFrozen &&
        provisioned_.count(id) == 0 && idle->frozen_since() == frozen_at) {
      if (InWindow()) {
        ++metrics_.keepalive_destroys;
      }
      DestroyInstance(idle, /*evicted=*/false);
    }
  });

  PumpWaiting();
}

void Platform::DestroyInstance(Instance* instance, bool evicted) {
  assert(instance->state() == InstanceState::kFrozen);
  if (injector_.enabled() && instance->reclaim_in_progress()) {
    // Fault runs abort the in-flight reclaim right now (releasing its CPU
    // lease) instead of letting a stale completion event discover the death
    // later. Gated on the fault layer so a zero-plan run keeps the legacy
    // event stream bit-for-bit.
    AbortReclaimsFor(instance->id());
  }
  memory_charged_ -= FrozenCharge(*instance);
  auto& pool = WarmPool(instance->function_id());
  pool.erase(std::remove(pool.begin(), pool.end(), instance), pool.end());
  provisioned_.erase(instance->id());
  if (observer_ != nullptr) {
    if (evicted) {
      observer_->OnInstanceEvicted(instance);
    }
    observer_->OnInstanceDestroyed(instance);
  }
  RemoveFrozen(instance);
  instances_.erase(instance->id());
}

Instance* Platform::FindWarmInstance(FunctionId function) {
  if (function >= warm_pool_.size() || warm_pool_[function].empty()) {
    return nullptr;
  }
  return warm_pool_[function].back();
}

Instance* Platform::OldestFrozen(const Instance* exclude) const {
  Instance* oldest = nullptr;
  for (Instance* instance : frozen_by_id_) {
    if (instance == exclude) {
      continue;
    }
    if (provisioned_.count(instance->id()) != 0) {
      continue;  // provisioned capacity is never evicted
    }
    if (oldest == nullptr || instance->frozen_since() < oldest->frozen_since() ||
        (instance->frozen_since() == oldest->frozen_since() && instance->id() < oldest->id())) {
      oldest = instance;
    }
  }
  return oldest;
}

bool Platform::EnsureMemory(uint64_t delta, const Instance* exclude) {
  while (memory_charged_ + delta > config_.cache_capacity_bytes) {
    Instance* victim = OldestFrozen(exclude);
    if (victim == nullptr) {
      return false;
    }
    if (config_.mode == MemoryMode::kSwap) {
      // Swap the victim's pages out instead of destroying it: the charge
      // drops (swapped pages leave the USS) and the instance stays reusable —
      // at the price of swap-ins when it thaws (§5.6).
      const uint64_t needed_pages =
          BytesToPages(memory_charged_ + delta - config_.cache_capacity_bytes) + 1;
      const uint64_t charge_before = FrozenCharge(*victim);
      const uint64_t swapped = victim->SwapOut(needed_pages);
      if (swapped > 0) {
        memory_charged_ -= charge_before;
        memory_charged_ += FrozenCharge(*victim);
        if (InWindow()) {
          ++metrics_.swap_outs;
        }
        continue;
      }
      // Fully swapped already: fall through to eviction.
    }
    if (InWindow()) {
      ++metrics_.evictions;
    }
    ++lifetime_evictions_;
    DestroyInstance(victim, /*evicted=*/true);
  }
  return true;
}

Instance* Platform::LookUp(uint64_t id) const {
  auto it = instances_.find(id);
  return it == instances_.end() ? nullptr : it->second.get();
}

bool Platform::TryStartReclaim(Instance* instance, const ReclaimOptions& options,
                               bool unmap_idle_libraries) {
  if (instance->state() != InstanceState::kFrozen || instance->reclaim_in_progress()) {
    return false;
  }
  const double idle = IdleCpu();
  if (idle < kMinReclaimShare) {
    return false;  // reclamation only ever uses idle CPU
  }
  const double share = std::min(idle, kMaxReclaimShare);
  AcquireCpu(share);
  instance->set_reclaim_in_progress(true);

  // Injected mid-flight abort: the reclaim dies partway through — it burns a
  // little idle CPU, releases nothing, and reports the abort on completion.
  const bool aborted = injector_.ReclaimAborts();
  ReclaimResult result;
  if (aborted) {
    result.aborted = true;
    result.cpu_time = injector_.plan().reclaim_abort_cpu;
    if (InWindow()) {
      metrics_.reclaim_cpu_core_s += ToSeconds(result.cpu_time);
    }
    RecordFault(FaultKind::kReclaimAbort, instance->id(), FunctionName(*instance));
  } else {
    const uint64_t charge_before = FrozenCharge(*instance);
    result = instance->Reclaim(options, unmap_idle_libraries);
    // The cache charge follows the released memory.
    memory_charged_ -= charge_before;
    memory_charged_ += FrozenCharge(*instance);
    if (InWindow()) {
      ++metrics_.reclaims;
      metrics_.reclaim_cpu_core_s += ToSeconds(result.cpu_time);
    }
    // Reclaim-before-snapshot (ROADMAP item 2): the shrunken image is
    // re-captured, and the store re-measures how much of the recorded
    // working set the reclaim just evicted.
    RefreshSnapshotAfterReclaim(instance);
  }

  const uint64_t reclaim_id = next_reclaim_id_++;
  ActiveReclaim reclaim;
  reclaim.instance_id = instance->id();
  reclaim.function = instance->function_id();
  reclaim.result = result;
  reclaim.share = share;
  reclaim.remaining_cpu = result.cpu_time;
  reclaim.last_update = context_->clock.Now();
  active_reclaims_.emplace(reclaim_id, std::move(reclaim));
  ScheduleReclaimCompletion(reclaim_id);
  PumpWaiting();  // released memory may unblock queued requests immediately
  return true;
}

void Platform::ScheduleReclaimCompletion(uint64_t reclaim_id) {
  auto it = active_reclaims_.find(reclaim_id);
  assert(it != active_reclaims_.end());
  ActiveReclaim& reclaim = it->second;
  const uint64_t generation = reclaim.generation;
  const SimTime wall = static_cast<SimTime>(
      static_cast<double>(reclaim.remaining_cpu) / reclaim.share);
  ScheduleNode(context_->clock.Now() + wall, EventKind::kReclaim,
               [this, reclaim_id, generation]() {
    auto found = active_reclaims_.find(reclaim_id);
    if (found == active_reclaims_.end() || found->second.generation != generation) {
      return;  // superseded by a preemption reschedule or an abort
    }
    FinishReclaim(reclaim_id);
  });
}

void Platform::FinishReclaim(uint64_t reclaim_id) {
  auto it = active_reclaims_.find(reclaim_id);
  assert(it != active_reclaims_.end());
  const ActiveReclaim reclaim = it->second;
  active_reclaims_.erase(it);
  ReleaseCpu(reclaim.share);
  Instance* done = LookUp(reclaim.instance_id);
  if (done != nullptr) {
    done->set_reclaim_in_progress(false);
  }
  DeliverReclaimDone(reclaim.function, done, reclaim.result);
  PumpWaiting();
}

void Platform::DeliverReclaimDone(FunctionId function, Instance* instance,
                                  ReclaimResult result) {
  if (instance == nullptr) {
    // Destroyed while the reclaim was in flight: whatever the reclaim did is
    // moot; report it as aborted (releasing nothing) so the policy releases
    // its bookkeeping instead of recording a phantom profile.
    result.aborted = true;
    result.released_pages = 0;
  }
  if (result.aborted && InWindow()) {
    ++metrics_.reclaim_aborts;
  }
  if (observer_ != nullptr) {
    observer_->OnReclaimDone(function, instance, result);
  }
}

void Platform::AbortReclaimsFor(uint64_t instance_id) {
  for (auto it = active_reclaims_.begin(); it != active_reclaims_.end();) {
    if (it->second.instance_id != instance_id) {
      ++it;
      continue;
    }
    ActiveReclaim reclaim = std::move(it->second);
    it = active_reclaims_.erase(it);
    ReleaseCpuNoPump(reclaim.share);
    ReclaimResult result = reclaim.result;
    result.aborted = true;
    result.released_pages = 0;
    DeliverReclaimDone(reclaim.function, nullptr, result);
  }
}

double Platform::PreemptReclaims(double needed) {
  double freed = 0.0;
  // Preemption order must not depend on map iteration order: shave shares
  // oldest reclaim first (ids are assigned in start order).
  std::vector<uint64_t> reclaim_ids;
  reclaim_ids.reserve(active_reclaims_.size());
  for (const auto& [reclaim_id, reclaim] : active_reclaims_) {
    reclaim_ids.push_back(reclaim_id);
  }
  std::sort(reclaim_ids.begin(), reclaim_ids.end());
  for (const uint64_t reclaim_id : reclaim_ids) {
    ActiveReclaim& reclaim = active_reclaims_.at(reclaim_id);
    if (freed >= needed) {
      break;
    }
    if (reclaim.share <= kReclaimShareFloor) {
      continue;
    }
    // Reconcile progress at the old share before changing it.
    const SimTime now = context_->clock.Now();
    const auto consumed = static_cast<SimTime>(
        static_cast<double>(now - reclaim.last_update) * reclaim.share);
    reclaim.remaining_cpu = reclaim.remaining_cpu > consumed
                                ? reclaim.remaining_cpu - consumed
                                : 0;
    reclaim.last_update = now;

    const double give = std::min(reclaim.share - kReclaimShareFloor, needed - freed);
    UpdateCpuIntegral();
    cpu_in_use_ -= give;
    reclaim.share -= give;
    freed += give;
    ++reclaim.generation;
    ScheduleReclaimCompletion(reclaim_id);
  }
  return freed;
}

std::vector<Platform::Request> Platform::CrashNode() {
  assert(!down_);
  down_ = true;
  ++epoch_;  // every node-scoped event scheduled before now is dead
  UpdateCpuIntegral();
  if (InWindow()) {
    ++metrics_.node_crashes;
  }
  RecordFault(FaultKind::kNodeCrash, 0, "", instances_.size());
  if (snapshot_store_ != nullptr) {
    // The node-local cache tier and every in-flight flush die with the node
    // (the flush-completion events are epoch-guarded, so the store's
    // bookkeeping and the event stream agree). Durable tiers survive.
    const uint64_t lost = snapshot_store_->OnNodeCrash();
    RecordFault(FaultKind::kSnapshotTierLost, 0, "", lost);
  }

  std::vector<Request> lost;
  lost.reserve(booting_.size() + inflight_.size() + waiting_.size());
  // Drain the boot/inflight maps in request-id order so the activation log
  // (and everything downstream) never observes map iteration order.
  std::vector<std::pair<uint64_t, Request>> abandoned;  // (instance id, request)
  abandoned.reserve(booting_.size() + inflight_.size());
  for (auto& [id, request] : booting_) {
    abandoned.emplace_back(id, std::move(request));
  }
  for (auto& [id, request] : inflight_) {
    abandoned.emplace_back(id, std::move(request));
  }
  std::sort(abandoned.begin(), abandoned.end(),
            [](const auto& a, const auto& b) { return a.second.id < b.second.id; });
  // A drained request whose function this node had snapshotted leaves its
  // image stranded: the failover target should attempt a tiered restore (a
  // shared tier / the fabric may hold the flushed copy) instead of silently
  // cold-booting just because it never captured the function itself.
  const auto stranded = [this](const Request& request) {
    if (snapshot_store_ == nullptr) {
      return false;
    }
    const FunctionId function =
        functions_.Find(request.workload->name + "#" + std::to_string(request.stage));
    return function != kInvalidFunctionId && snapshot_store_->HasImage(function);
  };
  for (auto& [id, request] : abandoned) {
    LogActivation(request, id, functions_.Name(functions_.Intern(request.workload, request.stage)),
                  ActivationRecord::Outcome::kNodeLost);
    request.retried = true;
    request.snapshot_stranded = request.snapshot_stranded || stranded(request);
    lost.push_back(std::move(request));
  }
  for (Request& request : waiting_) {
    request.retried = true;
    request.snapshot_stranded = request.snapshot_stranded || stranded(request);
    lost.push_back(std::move(request));
  }
  // Request ids are assigned in submit order, so sorting restores a
  // container-order-independent, deterministic failover order.
  std::sort(lost.begin(), lost.end(),
            [](const Request& a, const Request& b) { return a.id < b.id; });

  // In-flight reclaims die with the node; the policy layer must hear about
  // each one to release its bookkeeping.
  std::vector<uint64_t> reclaim_ids;
  reclaim_ids.reserve(active_reclaims_.size());
  for (const auto& [reclaim_id, reclaim] : active_reclaims_) {
    reclaim_ids.push_back(reclaim_id);
  }
  std::sort(reclaim_ids.begin(), reclaim_ids.end());
  for (const uint64_t reclaim_id : reclaim_ids) {
    ActiveReclaim& reclaim = active_reclaims_.at(reclaim_id);
    ReclaimResult result = reclaim.result;
    result.aborted = true;
    result.released_pages = 0;
    DeliverReclaimDone(reclaim.function, nullptr, result);
  }
  active_reclaims_.clear();

  // The instance cache drains: every container on the node is gone.
  std::vector<uint64_t> instance_ids;
  instance_ids.reserve(instances_.size());
  for (const auto& [id, instance] : instances_) {
    instance_ids.push_back(id);
  }
  std::sort(instance_ids.begin(), instance_ids.end());
  if (observer_ != nullptr) {
    for (const uint64_t id : instance_ids) {
      observer_->OnInstanceDestroyed(instances_.at(id).get());
    }
  }
  instances_.clear();
  frozen_by_id_.clear();
  warm_pool_.clear();
  for (auto& ready : prewarm_ready_) {
    ready.clear();
  }
  prewarm_inflight_.fill(0);
  prewarm_booting_.clear();
  provisioned_.clear();
  waiting_.clear();
  booting_.clear();
  inflight_.clear();
  memory_charged_ = 0;
  running_committed_ = 0;
  cpu_in_use_ = 0.0;
  return lost;
}

void Platform::RestartNode() {
  assert(down_);
  down_ = false;
  RecordFault(FaultKind::kNodeRestart, 0, "");
}

void Platform::Resubmit(Request request) {
  assert(!down_);
  if (request.id == 0) {
    request.id = next_request_id_++;  // parked arrival that never reached a node
  }
  if (InWindow()) {
    ++metrics_.failovers;
  }
  request.retried = true;
  if (!TryRun(request)) {
    waiting_.push_back(request);
  }
}

void Platform::CheckAccounting() const {
  uint64_t frozen = 0;
  uint64_t running = 0;
  for (const auto& [id, instance] : instances_) {
    if (instance->state() == InstanceState::kFrozen) {
      frozen += FrozenCharge(*instance);
    } else {
      running += config_.instance_memory_budget;
    }
  }
  const bool cache_ok = frozen == memory_charged_;
  const bool committed_ok = running == running_committed_;
  const bool cpu_ok = cpu_in_use_ >= -1e-9 && cpu_in_use_ <= config_.cpu_cores + 1e-9;
  if (physical_ != nullptr) {
    // Cross-layer residency invariant: the node's counters must equal the sum
    // over every attached address space (aborts internally on violation).
    physical_->VerifyAccounting();
  }
  if (snapshot_store_ != nullptr) {
    // Per-tier byte accounting must match a recount and respect capacity.
    snapshot_store_->CheckInvariants();
  }
  if (!cache_ok || !committed_ok || !cpu_ok) {
    std::fprintf(stderr,
                 "Platform accounting invariant violated at t=%llu:\n"
                 "  frozen charges   %llu vs memory_charged_    %llu\n"
                 "  running budgets  %llu vs running_committed_ %llu\n"
                 "  cpu_in_use_      %.9f of %.2f cores\n",
                 static_cast<unsigned long long>(context_->clock.Now()),
                 static_cast<unsigned long long>(frozen),
                 static_cast<unsigned long long>(memory_charged_),
                 static_cast<unsigned long long>(running),
                 static_cast<unsigned long long>(running_committed_), cpu_in_use_,
                 config_.cpu_cores);
    std::abort();
  }
}

void Platform::ProvisionConcurrency(const WorkloadSpec* workload, uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t id = next_instance_id_++;
    auto instance = std::make_unique<Instance>(
        id, workload, /*stage=*/0, config_.instance_memory_budget, &registry_, rng_.NextU64(),
        config_.java_collector, physical_.get());
    instance->set_function_id(functions_.Intern(workload, /*stage=*/0));
    const SimTime boot_wall = config_.container_create_cost + instance->BootCost();
    instances_.emplace(id, std::move(instance));
    running_committed_ += config_.instance_memory_budget;
    provisioned_[id] = true;
    ScheduleNode(context_->clock.Now() + boot_wall, EventKind::kPrewarm, [this, id]() {
      Instance* booted = LookUp(id);
      if (booted == nullptr) {
        return;  // OOM-killed before the provisioned boot finished
      }
      booted->set_state(InstanceState::kRunning);
      FreezeInstance(booted);
    });
  }
  MaybeOomKill();
}

void Platform::ScheduleCallback(SimTime time, EventQueue::Closure fn) {
  context_->events.Schedule(time, std::move(fn), EventKind::kCallback);
}

Instance* Platform::TakePrewarmed(Language language) {
  auto& ready = prewarm_ready_.at(static_cast<uint8_t>(language));
  while (!ready.empty()) {
    const uint64_t id = ready.back();
    ready.pop_back();
    Instance* instance = LookUp(id);
    if (instance != nullptr) {
      return instance;
    }
  }
  return nullptr;
}

void Platform::MaintainPrewarmPool(Language language) {
  const auto key = static_cast<uint8_t>(language);
  while (prewarm_ready_.at(key).size() + prewarm_inflight_.at(key) <
         config_.prewarm_per_language) {
    if (cpu_in_use_ + config_.boot_cpu_share > config_.cpu_cores) {
      // No CPU right now: try again shortly.
      const Language lang = language;
      ScheduleNode(context_->clock.Now() + 250 * kMillisecond, EventKind::kPrewarm,
                   [this, lang]() { MaintainPrewarmPool(lang); });
      return;
    }
    AcquireCpu(config_.boot_cpu_share);
    ++prewarm_inflight_[key];
    const uint64_t id = next_instance_id_++;
    // The stem-cell ctor never used its seed, but every boot historically
    // consumed one draw; keep the draw so the platform RNG stream position
    // (and with it every downstream table) stays byte-identical.
    (void)rng_.NextU64();
    auto instance = std::make_unique<Instance>(id, language, config_.instance_memory_budget,
                                               &registry_, config_.java_collector,
                                               physical_.get());
    const SimTime boot_wall = config_.container_create_cost + instance->BootCost();
    instances_.emplace(id, std::move(instance));
    running_committed_ += config_.instance_memory_budget;
    prewarm_booting_.emplace(id, key);
    ScheduleNode(context_->clock.Now() + boot_wall, EventKind::kPrewarm, [this, id, key]() {
      if (prewarm_booting_.erase(id) == 0) {
        return;  // OOM-killed while booting; the kill settled the accounting
      }
      ReleaseCpu(config_.boot_cpu_share);
      --prewarm_inflight_[key];
      prewarm_ready_[key].push_back(id);
      PumpWaiting();
    });
  }
  MaybeOomKill();
}

void Platform::AcquireCpu(double share) {
  UpdateCpuIntegral();
  cpu_in_use_ += share;
  assert(cpu_in_use_ <= config_.cpu_cores + 1e-9);
}

void Platform::ReleaseCpu(double share) {
  ReleaseCpuNoPump(share);
  PumpWaiting();
}

void Platform::ReleaseCpuNoPump(double share) {
  UpdateCpuIntegral();
  cpu_in_use_ -= share;
  assert(cpu_in_use_ >= -1e-9);
  if (cpu_in_use_ < 0) {
    cpu_in_use_ = 0;
  }
}

void Platform::UpdateCpuIntegral() {
  const SimTime now = context_->clock.Now();
  if (now > last_cpu_update_) {
    if (now > metrics_.window_start) {
      const SimTime from = std::max(last_cpu_update_, metrics_.window_start);
      metrics_.cpu_busy_core_s += cpu_in_use_ * ToSeconds(now - from);
    }
    last_cpu_update_ = now;
  }
}

void Platform::PumpWaiting() {
  if (pumping_) {
    return;  // re-entered from a kill/OOM path inside TryRun; the outer loop continues
  }
  pumping_ = true;
  while (!waiting_.empty()) {
    if (!TryRun(waiting_.front())) {
      break;
    }
    waiting_.pop_front();
  }
  pumping_ = false;
}

void Platform::MaybeCaptureSnapshot(Instance* instance) {
  if (snapshot_store_ == nullptr || !instance->recording_working_set()) {
    return;
  }
  WorkingSet ws = instance->FinishWorkingSetRecording();
  if (snapshot_store_->HasCopy(instance->function_id(), context_->clock.Now())) {
    return;  // a sibling instance captured first; keep its image
  }
  // Image size = the frozen USS (just refreshed by Freeze): what CRIU-style
  // memory dumping would write for the paused container.
  const uint64_t ws_resident = instance->ResidentPagesIn(ws);
  if (InWindow()) {
    ++metrics_.snapshot_captures;
  }
  ScheduleSnapshotFlush(snapshot_store_->Capture(instance->function_id(), instance->CachedUss(),
                                                 std::move(ws), ws_resident, instance->id(),
                                                 context_->clock.Now()));
}

void Platform::RefreshSnapshotAfterReclaim(Instance* instance) {
  // Only the capture instance's address space can re-measure the recorded
  // working set: the region ids in the set are meaningless anywhere else.
  if (snapshot_store_ == nullptr ||
      !snapshot_store_->IsCaptureInstance(instance->function_id(), instance->id())) {
    return;
  }
  const WorkingSet* ws = snapshot_store_->ImageWorkingSet(instance->function_id());
  const uint64_t ws_resident = ws != nullptr ? instance->ResidentPagesIn(*ws) : 0;
  ScheduleSnapshotFlush(snapshot_store_->Refresh(instance->function_id(), instance->CachedUss(),
                                                 ws_resident, context_->clock.Now()));
}

void Platform::ScheduleSnapshotFlush(SnapshotStore::FlushTicket ticket) {
  if (!ticket.valid()) {
    return;
  }
  const uint64_t id = ticket.id;
  ScheduleNode(ticket.complete_at, EventKind::kSnapshot, [this, id]() {
    ScheduleSnapshotFlush(snapshot_store_->CompleteFlush(id, context_->clock.Now()));
  });
}

}  // namespace desiccant
