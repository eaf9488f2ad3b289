// The OpenWhisk-style FaaS platform simulator.
//
// A discrete-event controller + invoker with the behaviours Desiccant
// interacts with:
//   * warm-start from a pool of frozen instances, cold boot otherwise;
//   * freeze (docker pause) immediately after a function exits;
//   * an instance cache with a fixed memory capacity — running instances are
//     charged their full budget, frozen instances their measured USS — and
//     LRU eviction of frozen instances under memory pressure;
//   * a CPU pool: invocations and cold boots acquire fixed shares, and
//     background reclamation only ever uses idle CPU (§4.5.2);
//   * keep-alive expiry of long-idle instances;
//   * function chains, whose intermediate outputs stay live in the upstream
//     instance until the downstream stage starts (the mapreduce effect, §5.2).
//
// Memory-manager modes: kVanilla (nothing at exit), kEager (runtime GC after
// every exit), kDesiccant (a core::DesiccantManager drives reclamation via
// the observer interface + TryStartReclaim).
#ifndef DESICCANT_SRC_FAAS_PLATFORM_H_
#define DESICCANT_SRC_FAAS_PLATFORM_H_

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/base/id_slot_map.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/faas/event_queue.h"
#include "src/faas/fault_injector.h"
#include "src/faas/function_registry.h"
#include "src/faas/instance.h"
#include "src/os/physical_memory.h"
#include "src/snapshot/snapshot_store.h"

namespace desiccant {

// The shared simulation substrate: one clock + one event queue. A standalone
// Platform owns its own; a Cluster shares one context across its nodes so
// their timelines interleave correctly.
struct SimContext {
  SimClock clock;
  EventQueue events;
};

// kSwap is the paper's "rely on the OS swapping mechanism" alternative
// (§5.2): under cache pressure, frozen instances are swapped out instead of
// evicted — cheap to keep, expensive to wake.
enum class MemoryMode : uint8_t { kVanilla, kEager, kDesiccant, kSwap };

const char* MemoryModeName(MemoryMode mode);

struct PlatformConfig {
  uint64_t instance_memory_budget = 256 * kMiB;
  uint64_t cache_capacity_bytes = 2 * kGiB;
  double cpu_cores = 8.0;
  // 0.14 CPU per 256 MiB instance, following commercial platforms (§5.2).
  double instance_cpu_share = 0.14;
  double boot_cpu_share = 0.5;
  SimTime container_create_cost = 280 * kMillisecond;
  SimTime thaw_cost = 3 * kMillisecond;
  SimTime keep_alive = 600 * kSecond;
  MemoryMode mode = MemoryMode::kVanilla;
  // SnapStart-style cold starts (§2.1): instead of creating a container and
  // booting the runtime, a snapshot is restored. Restores are faster than
  // boots but far from free (the paper measured >100 ms for Java), and the
  // restored instance still faults its working set back in lazily.
  bool snapstart_restore = false;
  SimTime snapstart_restore_cost = 140 * kMillisecond;
  // Multi-tier snapshot store (src/snapshot/). When enabled (and
  // snapstart_restore is set), restores are served from the tier hierarchy —
  // REAP working-set prefetch, tier-by-tier fallback, full cold boot as last
  // resort — instead of the flat snapstart_restore_cost constant. The
  // disabled default keeps every code path byte-identical to the
  // constant-cost model.
  SnapshotConfig snapshot;
  // OpenWhisk-style stem cells: this many generic pre-booted containers per
  // language; a cold start adopts one (paying only initialization) and a
  // replacement boots in the background.
  uint32_t prewarm_per_language = 0;
  SimTime prewarm_adopt_cost = 40 * kMillisecond;
  // §2.1: instances are not frozen the instant the function returns — the
  // paper's Lambda probe saw background heartbeats continue for ~100 ms after
  // the foreground finished. During the grace window the instance still holds
  // its CPU share (background threads run); then it is paused.
  SimTime freeze_grace = 0;
  // Collector for Java instances (Lambda pins serial; G1 is the §7 option).
  JavaCollector java_collector = JavaCollector::kSerial;
  uint64_t seed = 42;
  // Deterministic fault injection (timeouts, boot failures, OOM kills, node
  // crashes, reclaim aborts). The all-zero default runs byte-identical to a
  // build without the fault layer.
  FaultPlan faults;
  // Node-level physical memory pressure. The zero-budget default disables the
  // model entirely (no PhysicalMemory is constructed; every code path is
  // byte-identical to a pressure-free build). With a finite page budget every
  // instance's address space commits against the node: kswapd reclaim, direct
  // reclaim stalls, and — once the swap device is full — commit failures that
  // surface as runtime OOM kills.
  PhysicalMemoryConfig pressure;
  // Retention for the activation/fault rings. kFull keeps the bounded
  // in-memory logs (figure benches, tests, debugging). kCountersOnly skips
  // record materialization entirely — every metric counter and observer
  // callback still fires, so no emitted table changes, but the 1M-arrival
  // tiers stop paying a string copy per activation for records nobody reads
  // (RecentActivations/RecentFaults return empty).
  enum class LogRetention : uint8_t { kFull, kCountersOnly };
  LogRetention log_retention = LogRetention::kFull;
};

// One entry of the platform's activation-record log (OpenWhisk keeps such
// records per invocation; useful for debugging policies).
struct ActivationRecord {
  uint64_t request_id = 0;
  std::string function_key;
  SimTime arrival = 0;
  SimTime completion = 0;
  enum class Start : uint8_t { kCold, kWarm, kPrewarm } start = Start::kCold;
  // How the activation ended. kOk / kRetriedThenOk are stage completions;
  // kTimedOut / kOomKilled / kNodeLost are per-attempt failures (the request
  // may still complete on a retry or another node); kDropped is terminal —
  // the retry budget is exhausted or the boot never succeeded.
  enum class Outcome : uint8_t {
    kOk,
    kRetriedThenOk,
    kTimedOut,
    kOomKilled,
    kNodeLost,
    kDropped,
  } outcome = Outcome::kOk;
  uint32_t attempts = 0;  // controller-side retries this request has absorbed
  uint64_t instance_id = 0;
};

const char* OutcomeName(ActivationRecord::Outcome outcome);

// Desiccant (or any policy module) hooks in through this interface.
class PlatformObserver {
 public:
  virtual ~PlatformObserver() = default;
  virtual void OnInstanceFrozen(Instance* instance) { (void)instance; }
  virtual void OnInstanceEvicted(Instance* instance) { (void)instance; }
  virtual void OnInstanceDestroyed(Instance* instance) { (void)instance; }
  // `instance` is null if it was destroyed while the reclaim was in flight.
  // `function` resolves to the display key via Platform::functions().Name().
  virtual void OnReclaimDone(FunctionId function, Instance* instance,
                             const ReclaimResult& result) {
    (void)function;
    (void)instance;
    (void)result;
  }
  // Every injected fault and recovery action (timeout kill, boot failure,
  // OOM kill, node crash/restart, reclaim abort) is reported here.
  virtual void OnFault(const FaultEvent& event) { (void)event; }
  // Called after every processed event.
  virtual void OnTick() {}
};

struct PlatformMetrics {
  uint64_t requests_completed = 0;
  uint64_t stage_invocations = 0;
  uint64_t cold_boots = 0;
  uint64_t prewarm_adoptions = 0;
  uint64_t warm_starts = 0;
  uint64_t evictions = 0;
  uint64_t keepalive_destroys = 0;
  uint64_t reclaims = 0;
  uint64_t swap_outs = 0;  // kSwap mode: swap-out passes under pressure
  // ----- failure taxonomy (all zero when the fault layer is off) -----
  uint64_t requests_failed = 0;       // terminal: ran but retry budget exhausted
  uint64_t requests_dropped = 0;      // terminal: never executed (boot never succeeded)
  uint64_t requests_retried_ok = 0;   // completed after >=1 retry or failover
  uint64_t invocation_timeouts = 0;   // timeout kills (including retried attempts)
  uint64_t boot_failures = 0;         // failed cold boots
  uint64_t restore_failures = 0;      // failed snapshot restores
  // ----- snapshot subsystem (all zero when the store is disabled) -----
  uint64_t snapshot_restores = 0;        // cold starts served from a snapshot tier
  uint64_t snapshot_fallback_boots = 0;  // store engaged but no usable copy: full boot
  uint64_t snapshot_captures = 0;        // images captured at freeze time
  uint64_t oom_kills = 0;             // instances killed by the node OOM killer
  uint64_t oom_kills_frozen = 0;      //   of which frozen (cache rebuildable)
  uint64_t oom_kills_running = 0;     //   of which running/booting (invocation lost)
  uint64_t node_crashes = 0;          // this node crashed (cluster-injected)
  uint64_t failovers = 0;             // activations this node absorbed after a crash
  uint64_t retries = 0;               // controller-side re-submissions
  uint64_t reclaim_aborts = 0;        // reclaims that died mid-flight
  PercentileTracker latency_ms;
  // Per-request latency decomposition (same population as latency_ms).
  PercentileTracker queue_ms;  // waiting for CPU/cache resources
  PercentileTracker boot_ms;   // cold boots on the request's critical path
  PercentileTracker exec_ms;   // execution wall time (incl. thaw/adopt costs)
  // Core-seconds, split by activity.
  double cpu_busy_core_s = 0.0;
  double boot_cpu_core_s = 0.0;
  double eager_gc_cpu_core_s = 0.0;
  double reclaim_cpu_core_s = 0.0;
  SimTime window_start = 0;
  SimTime window_end = 0;

  double WindowSeconds() const { return ToSeconds(window_end - window_start); }
  double ThroughputRps() const {
    const double s = WindowSeconds();
    return s > 0 ? static_cast<double>(requests_completed) / s : 0.0;
  }
  double ColdBootsPerSecond() const {
    const double s = WindowSeconds();
    return s > 0 ? static_cast<double>(cold_boots) / s : 0.0;
  }
  double ColdBootFraction() const {
    const uint64_t starts = cold_boots + warm_starts;
    return starts > 0 ? static_cast<double>(cold_boots) / static_cast<double>(starts) : 0.0;
  }
  double CpuUtilization(double cores) const {
    const double s = WindowSeconds();
    return s > 0 && cores > 0 ? cpu_busy_core_s / (cores * s) : 0.0;
  }
  // Goodput: requests that completed without any retry or failover.
  double GoodputRps() const {
    const double s = WindowSeconds();
    const uint64_t clean = requests_completed - requests_retried_ok;
    return s > 0 ? static_cast<double>(clean) / s : 0.0;
  }
  // Fraction of terminated requests that completed (vs failed or dropped).
  double SuccessFraction() const {
    const uint64_t total = requests_completed + requests_failed + requests_dropped;
    return total > 0 ? static_cast<double>(requests_completed) / static_cast<double>(total)
                     : 1.0;
  }
  // Order-insensitive digest of every counter and latency sample; two runs
  // are replay-identical iff their fingerprints match.
  uint64_t Fingerprint() const;
  // Folds another node's metrics into this view: counters add, windows union,
  // latency percentiles merge the underlying samples. Used by Cluster and
  // ShardedCluster to aggregate per-node metrics; because both the percentile
  // digests and Fingerprint() are order-insensitive, the aggregate is
  // independent of node order.
  void Accumulate(const PlatformMetrics& other);
};

class Platform {
 public:
  // One request making its way through the platform (public so a Cluster can
  // fail requests over from a crashed node to a healthy one).
  struct Request {
    uint64_t id = 0;
    const WorkloadSpec* workload = nullptr;
    size_t stage = 0;
    SimTime arrival = 0;         // arrival of the *first* stage
    uint64_t upstream_id = 0;    // instance holding the previous stage's carry
    SimTime boot_time = 0;       // accumulated boot time on the critical path
    SimTime exec_time = 0;       // accumulated execution wall time
    ActivationRecord::Start start = ActivationRecord::Start::kCold;
    uint32_t attempts = 0;       // invocation retries consumed (timeout/OOM)
    uint32_t boot_attempts = 0;  // boot retries consumed
    bool retried = false;        // saw any retry or failover on any stage
    // Failed over from a node that had captured this function's snapshot: the
    // receiving node should attempt a tiered restore even though it never
    // captured the image itself — a shared tier (or the fabric) may hold the
    // victim's copy, and discovering it doesn't is the honest fallback cost.
    bool snapshot_stranded = false;
  };

  // With a null `context` the platform owns a private clock + event queue.
  explicit Platform(const PlatformConfig& config, SimContext* context = nullptr);

  void set_observer(PlatformObserver* observer) { observer_ = observer; }
  PlatformObserver* observer() const { return observer_; }

  // Enqueues a request for `workload` arriving at `arrival`.
  void Submit(const WorkloadSpec* workload, SimTime arrival);

  // Capacity hint for bulk submission (e.g. a whole trace): grows the event
  // queue once instead of rehashing the heap vector while enqueueing.
  void ReserveEvents(size_t n) { context_->events.Reserve(context_->events.size() + n); }

  // Capacity hint for the function-id tables and the warm pool when the
  // population size is known up front (synthetic populations intern tens of
  // thousands of functions).
  void ReserveFunctions(size_t n) {
    functions_.Reserve(n);
    if (warm_pool_.capacity() < n) {
      warm_pool_.reserve(n);
    }
  }

  // §2.1 provisioned concurrency: keeps `count` instances of the workload's
  // first stage always resident — booted eagerly, exempt from keep-alive
  // expiry and LRU eviction. Call before Run().
  void ProvisionConcurrency(const WorkloadSpec* workload, uint32_t count);

  // Runs events; Run drains the queue, RunUntil stops once the next event is
  // past `deadline` (the clock lands exactly on `deadline`).
  void Run();
  void RunUntil(SimTime deadline);

  // Starts a fresh measurement window at the current time.
  void BeginMeasurement();
  // Stamps window_end and returns the metrics.
  const PlatformMetrics& FinishMeasurement();
  const PlatformMetrics& metrics() const { return metrics_; }

  SimClock& clock() { return context_->clock; }
  SimContext& context() { return *context_; }
  const PlatformConfig& config() const { return config_; }
  SharedFileRegistry& registry() { return registry_; }

  // ----- state queries (used by Desiccant's activation/selection) -----
  uint64_t memory_charged() const { return memory_charged_; }
  uint64_t FrozenMemoryBytes() const;
  double IdleCpu() const { return config_.cpu_cores - cpu_in_use_; }
  std::vector<Instance*> FrozenInstances() const;
  uint64_t eviction_count() const { return lifetime_evictions_; }
  size_t live_instance_count() const { return instances_.size(); }

  // ----- Desiccant actions -----
  // Begins background reclamation of a frozen instance on idle CPU. Returns
  // false when the instance is not frozen, already reclaiming, or there is no
  // idle CPU to run on.
  bool TryStartReclaim(Instance* instance, const ReclaimOptions& options,
                       bool unmap_idle_libraries);
  // Lets policy modules schedule their own wake-ups.
  void ScheduleCallback(SimTime time, EventQueue::Closure fn);

  // The dense id <-> display-key mapping for every function this platform has
  // seen (shared with observers, selection, and tests).
  FunctionRegistry& functions() { return functions_; }
  const FunctionRegistry& functions() const { return functions_; }

  size_t active_reclaim_count() const { return active_reclaims_.size(); }

  // The most recent activation records, oldest first (bounded ring).
  std::vector<ActivationRecord> RecentActivations() const;
  // The most recent fault/recovery events, oldest first (bounded ring).
  std::vector<FaultEvent> RecentFaults() const;

  // ----- failure semantics -----
  bool faults_enabled() const { return injector_.enabled(); }
  bool node_down() const { return down_; }
  // Committed node memory: full budgets of booting/running instances plus
  // cached USS of frozen ones — what the OOM killer compares to capacity
  // when the pressure model is off.
  uint64_t committed_bytes() const { return memory_charged_ + running_committed_; }
  // The node's physical memory, or null when config.pressure is disabled.
  PhysicalMemory* physical_memory() const { return physical_.get(); }
  // The multi-tier snapshot store, or null when config.snapshot is disabled.
  SnapshotStore* snapshot_store() const { return snapshot_store_.get(); }

  // Invoker crash: invalidates every scheduled node event, drains the
  // instance cache (observers see OnInstanceDestroyed per instance and an
  // aborted OnReclaimDone per in-flight reclaim), zeroes CPU/memory
  // accounting, and returns the queued + in-flight requests (sorted by id)
  // for the caller to fail over. The node stays down until RestartNode.
  std::vector<Request> CrashNode();
  void RestartNode();
  // Re-enqueues a request failed over from a crashed node.
  void Resubmit(Request request);
  // Where Submit sends arrivals that land while this node is down (set by
  // the Cluster; unused on a standalone platform, which never crashes).
  void set_failover_handler(std::function<void(Request)> handler) {
    failover_handler_ = std::move(handler);
  }

  // Debug-build-style accounting invariants, checked after every event when
  // enabled (the fuzz/chaos tests turn this on): the cache charge must equal
  // the frozen population's charges, the committed counter must match a
  // recount, and CPU must stay within the pool. Aborts on violation.
  void set_check_invariants(bool enabled) { check_invariants_ = enabled; }
  bool check_invariants() const { return check_invariants_; }
  void CheckAccounting() const;

 private:
  bool TryRun(const Request& request);
  void StartOnInstance(Instance* instance, const Request& request, SimTime extra_start_cost);
  void OnStageComplete(Instance* instance, const Request& request);
  void FreezeInstance(Instance* instance);
  void DestroyInstance(Instance* instance, bool evicted);
  Instance* FindWarmInstance(FunctionId function);
  // The frozen pool for `function`, growing the flat table on first use.
  std::vector<Instance*>& WarmPool(FunctionId function);
  // Display key for fault/activation logs ("stemcell" for unbound cells).
  const std::string& FunctionName(const Instance& instance) const;
  Instance* OldestFrozen(const Instance* exclude) const;
  // Evicts frozen instances (LRU) until `delta` more bytes fit in the cache.
  bool EnsureMemory(uint64_t delta, const Instance* exclude);
  Instance* LookUp(uint64_t id) const;
  // What a frozen instance is charged against the cache (USS, capped at the
  // instance budget).
  uint64_t FrozenCharge(const Instance& instance) const;

  void AcquireCpu(double share);
  void ReleaseCpu(double share);
  // Kill-path variant: adjusts the pool without pumping the waiting queue, so
  // a kill loop settles its accounting before any queued work restarts.
  void ReleaseCpuNoPump(double share);
  void UpdateCpuIntegral();
  void PumpWaiting();

  // ----- failure semantics internals -----
  // Node-scoped scheduling: the event is dropped if the node crashed (epoch
  // bumped) between scheduling and firing.
  void ScheduleNode(SimTime time, EventQueue::Closure fn,
                    EventKind kind = EventKind::kOther);
  // Kind-first overload: keeps tagged call sites readable when the closure
  // spans many lines (the tag stays on the ScheduleNode line).
  void ScheduleNode(SimTime time, EventKind kind, EventQueue::Closure fn) {
    ScheduleNode(time, std::move(fn), kind);
  }
  // Records the fault, notifies the observer, appends to the bounded log.
  void RecordFault(FaultKind kind, uint64_t instance_id, std::string function_key,
                   uint64_t detail = 0);
  // Controller retry with capped exponential backoff; terminal failure once
  // the request's budget is exhausted (`dropped` picks the terminal counter).
  void RetryOrFail(Request request, bool dropped_on_exhaust);
  void FailRequest(const Request& request, ActivationRecord::Outcome outcome, bool dropped);
  // Tears down a booting/running instance (OOM kill, timeout kill): releases
  // its CPU share and committed memory, fails over or retries its request.
  void KillNonFrozen(Instance* instance, ActivationRecord::Outcome outcome);
  void TimeoutKill(uint64_t instance_id);
  // Kills an instance whose invocation ran the node out of memory (a page
  // commit failed even after emergency relief). Mirrors TimeoutKill.
  void PressureOomKill(uint64_t instance_id);
  // cgroup-style OOM killer; no-op unless the plan sets node_memory_bytes.
  void MaybeOomKill();
  Instance* CheapestToRebuildFrozen() const;
  // Aborts an in-flight reclaim for a dying instance right now (fault runs
  // only): releases the CPU lease and delivers an aborted OnReclaimDone.
  void AbortReclaimsFor(uint64_t instance_id);
  // Single delivery point for OnReclaimDone; flags aborts and counts them.
  void DeliverReclaimDone(FunctionId function, Instance* instance, ReclaimResult result);
  // §4.5.2: reclamation only ever uses idle CPU — when new work needs CPU,
  // in-flight reclamations give up slices (down to a small floor) and their
  // completion stretches out accordingly. Returns the CPU freed.
  double PreemptReclaims(double needed);
  void FinishReclaim(uint64_t reclaim_id);
  void ScheduleReclaimCompletion(uint64_t reclaim_id);
  // ----- snapshot subsystem internals (all no-ops when the store is off) ----
  // Captures (or skips) a snapshot of a freshly frozen instance whose first
  // invocation recorded a working set; kicks off the write-back flush chain.
  void MaybeCaptureSnapshot(Instance* instance);
  // After a successful Desiccant reclaim of the capture instance: re-measure
  // the image size + working-set residency and re-flush the smaller image.
  void RefreshSnapshotAfterReclaim(Instance* instance);
  // Schedules CompleteFlush for a valid ticket on the node timeline (epoch-
  // guarded: in-flight flushes die with the node, matching the store's
  // OnNodeCrash bookkeeping).
  void ScheduleSnapshotFlush(SnapshotStore::FlushTicket ticket);
  // Stem-cell maintenance: keeps `prewarm_per_language` generic containers of
  // `language` booted (or booting).
  void MaintainPrewarmPool(Language language);
  Instance* TakePrewarmed(Language language);
  bool InWindow() const { return context_->clock.Now() >= metrics_.window_start; }

  PlatformConfig config_;
  std::unique_ptr<SimContext> owned_context_;
  SimContext* context_;
  SharedFileRegistry registry_;
  FunctionRegistry functions_;
  PlatformObserver* observer_ = nullptr;
  Rng rng_;
  FaultInjector injector_;
  // Node physical memory; null unless config.pressure has a finite budget.
  // Declared before instances_ so every VirtualAddressSpace detaches before
  // the node is destroyed.
  std::unique_ptr<PhysicalMemory> physical_;
  // Multi-tier snapshot store; null unless config.snapshot is enabled.
  std::unique_ptr<SnapshotStore> snapshot_store_;

  // Crash epoch: bumped by CrashNode so every node-scoped event scheduled
  // before the crash becomes a no-op.
  uint64_t epoch_ = 0;
  bool down_ = false;
  bool check_invariants_ = false;
  std::function<void(Request)> failover_handler_;
  // In-flight work, keyed by instance id, so timeout/OOM/crash paths can
  // recover the request an instance was serving.
  IdSlotMap<Request> booting_;   // cold boots in flight
  IdSlotMap<Request> inflight_;  // running invocations
  std::deque<FaultEvent> fault_log_;
  static constexpr size_t kFaultLogCapacity = 1024;

  // An in-flight background reclamation: the heap work already happened (the
  // state change is instantaneous in the model); what remains is burning the
  // CPU time it cost, at a share that shrinks when mutators need the cores.
  struct ActiveReclaim {
    uint64_t instance_id = 0;
    FunctionId function = kInvalidFunctionId;
    ReclaimResult result;
    double share = 0.0;
    SimTime remaining_cpu = 0;
    SimTime last_update = 0;
    uint64_t generation = 0;  // invalidates superseded completion events
  };

  IdSlotMap<std::unique_ptr<Instance>> instances_;
  // Frozen instances, ascending by id (boot order) — the canonical order
  // FrozenInstances() hands to selection policies. Maintained incrementally
  // at the freeze/thaw/destroy/crash transitions so the per-tick policy scans
  // (FrozenInstances, FrozenMemoryBytes, OldestFrozen,
  // CheapestToRebuildFrozen) never rescan and re-sort the whole instance
  // table. Debug builds cross-check it against a full scan on every
  // FrozenInstances() call.
  std::vector<Instance*> frozen_by_id_;
  void AddFrozen(Instance* instance);
  void RemoveFrozen(Instance* instance);
  IdSlotMap<ActiveReclaim> active_reclaims_;
  uint64_t next_reclaim_id_ = 1;
  // Instance ids exempt from eviction and keep-alive (provisioned capacity).
  IdSlotMap<bool> provisioned_;
  // Bounded activation-record ring.
  std::deque<ActivationRecord> activation_log_;
  static constexpr size_t kActivationLogCapacity = 1024;
  void LogActivation(const Request& request, uint64_t instance_id,
                     const std::string& function_key, ActivationRecord::Outcome outcome);
  // Frozen instances per function, most recently frozen last. Indexed by
  // FunctionId (dense), so the per-request lookup never hashes a string.
  std::vector<std::vector<Instance*>> warm_pool_;
  // Booted-but-unbound stem cells per language, plus in-flight boots.
  static constexpr size_t kLanguageCount = 3;  // kJava, kJavaScript, kPython
  std::array<std::vector<uint64_t>, kLanguageCount> prewarm_ready_;
  std::array<uint32_t, kLanguageCount> prewarm_inflight_{};
  // Stem-cell boots in flight (id -> language key): these hold a boot CPU
  // share, which the kill paths must release if the boot dies.
  IdSlotMap<uint8_t> prewarm_booting_;
  std::deque<Request> waiting_;

  uint64_t memory_charged_ = 0;
  // Full budgets of every non-frozen (booting/running/stem-cell) instance:
  // the running half of the OOM killer's committed-memory view.
  uint64_t running_committed_ = 0;
  double cpu_in_use_ = 0.0;
  SimTime last_cpu_update_ = 0;
  uint64_t lifetime_evictions_ = 0;
  // Re-entrancy guard: a kill inside TryRun may pump the waiting queue; the
  // outermost pump must be the only one popping, or requests run twice.
  bool pumping_ = false;

  PlatformMetrics metrics_;
  uint64_t next_instance_id_ = 1;
  uint64_t next_request_id_ = 1;
};

}  // namespace desiccant

#endif  // DESICCANT_SRC_FAAS_PLATFORM_H_
