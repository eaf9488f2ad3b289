// Benchmark binary: runs one workload against the simulator's public entry
// points for a fixed host-time budget and prints one JSON line describing
// every repetition.
//
//   desiccant_perfbench --workload single_function|trace_replay|cell_failover
//                       --seconds N [--seed N] [--trace-seed N]
//                       [--population-seed N] [--trace-out FILE]
//
// Each process first runs one untimed warm-up repetition (the first
// repetition in a process pays page faults and cold caches), then repeats
// the workload back to back, single-threaded, for --seconds of host time.
// Every repetition reports its set-up time (the median of kSetupRounds
// rounds), the host time of its timed Step / RunUntil calls, the simulated
// invocations those calls performed, an output fingerprint, the exact
// simulated outcomes and the per-layer counters. perfbench/run.py turns this into the benchmark's
// result line and checks the fingerprints against perfbench/expected.json.
//
// --seed only orders independent units on the host (the suite order of
// single_function, the mode order of trace_replay); simulated inputs come
// from --trace-seed / --population-seed, so every simulated outcome is the
// same for every --seed. With --trace-out the binary records spans around
// each public call, writes them as Chrome trace-event JSON and adds per-layer
// self time; run it with DESICCANT_EVENT_PROFILE=1 to get the event-kind
// counters as well.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/core/desiccant_manager.h"
#include "src/faas/event_profile.h"
#include "src/faas/platform.h"
#include "src/faas/sharded_cluster.h"
#include "src/faas/single_study.h"
#include "src/snapshot/snapshot_fabric.h"
#include "src/trace/azure_trace.h"
#include "src/trace/population.h"
#include "src/workloads/function_spec.h"

namespace {

using namespace desiccant;
using Clock = std::chrono::steady_clock;

// Paper reference values (EXPERIMENTS.md "Paper" column).
constexpr double kPaperJavaReduction = 2.78;   // fig 7, Java average vs vanilla
constexpr double kPaperJsReduction = 1.93;     // fig 7, JavaScript average
constexpr double kPaperP99Reduction = 0.375;   // fig 10, SF 15, p99 vs vanilla
constexpr double kPaperReclaimCpuShare = 0.062;  // fig 9, reclamation CPU / busy CPU

constexpr int kSingleFunctionIterations = 100;  // fig 7: 100 executions
constexpr int kSetupRounds = 5;                 // set-up rounds per repetition
// Simulated time per timed RunUntil call: short enough that probes can be
// spread evenly in host time.
constexpr SimTime kRunChunk = 5 * kSecond;

// Host-speed probe: random read-modify-writes over a buffer that overflows
// the private caches, run before a timed call once kProbeIntervalS of host
// time has passed since the last probe. See HostProbe.
constexpr double kProbeIntervalS = 0.25;
constexpr size_t kProbeBytes = 8 * kMiB;
constexpr size_t kProbeOps = 1000000;

// ---------------------------------------------------------------------------
// Spans

// One timed interval. `parent` indexes the enclosing span (-1 at the root).
struct Span {
  const char* name;
  const char* layer;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
};

// In-memory span log. Disabled, it records nothing and Scope still measures
// the durations the end-to-end metrics need.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }
  int32_t Open(const char* name, const char* layer, int64_t start) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, layer, start, start, parent});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void Close(int32_t id, int64_t end) {
    if (open_.empty() || open_.back() != id) {
      std::fprintf(stderr, "span %s closed out of order\n", spans_[id].name);
      std::abort();
    }
    spans_[id].end_ns = end;
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer over spans [first, end): each span's duration minus
  // the part its direct children cover.
  std::map<std::string, double> SelfMsByLayer(size_t first) const {
    std::vector<int64_t> child_ns(spans_.size() - first, 0);
    for (size_t i = first; i < spans_.size(); ++i) {
      const int32_t p = spans_[i].parent;
      if (p >= static_cast<int32_t>(first)) {
        child_ns[p - first] += spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = first; i < spans_.size(); ++i) {
      const int64_t own = spans_[i].end_ns - spans_[i].start_ns - child_ns[i - first];
      self[spans_[i].layer] += static_cast<double>(own) / 1e6;
    }
    return self;
  }

  // Chrome trace-event JSON ("X" complete events, microseconds).
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name, s.layer, static_cast<double>(s.start_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Times one call into a layer; records it as a span when tracing is on.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, const char* layer)
      : tracer_(tracer), start_(tracer.Now()) {
    if (tracer_.enabled()) {
      id_ = tracer_.Open(name, layer, start_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { Close(); }

  // Ends the span (once) and returns its duration in seconds.
  double Close() {
    if (end_ < 0) {
      end_ = tracer_.Now();
      if (id_ >= 0) {
        tracer_.Close(id_, end_);
      }
    }
    return static_cast<double>(end_ - start_) / 1e9;
  }

 private:
  Tracer& tracer_;
  int64_t start_;
  int64_t end_ = -1;
  int32_t id_ = -1;
};

// ---------------------------------------------------------------------------
// Host-speed probe
//
// The host shares its caches and memory bandwidth with other tenants, and the
// simulator is memory-bound: on a 4-vCPU VM its throughput moved by up to 2x
// within minutes while the program did identical work (all user time; steal
// and page faults near zero). A fixed memory-bound kernel slows down with the
// same contention, so perfbench/run.py scales each repetition's host times by
// the mean probe time measured around them. This kernel belongs to the
// benchmark, so a change to the simulator does not move it.

class HostProbe {
 public:
  HostProbe() : buffer_(kProbeBytes / sizeof(uint64_t), 1) {}

  bool Due() const {
    return std::chrono::duration<double>(Clock::now() - last_).count() >= kProbeIntervalS;
  }

  // One probe: an untimed sequential pass that brings the buffer back into
  // cache, then kProbeOps timed random read-modify-writes (the same address
  // sequence every time). Returns the timed part in seconds.
  double Run() {
    uint64_t sum = 0;
    for (const uint64_t word : buffer_) {
      sum += word;
    }
    const auto start = Clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    const size_t mask = buffer_.size() - 1;
    for (size_t i = 0; i < kProbeOps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      buffer_[x & mask] += x;
    }
    last_ = Clock::now();
    sink_ += sum + buffer_[x & mask];
    return std::chrono::duration<double>(last_ - start).count();
  }

 private:
  std::vector<uint64_t> buffer_;  // size is a power of two
  Clock::time_point last_;        // end of the last probe
  uint64_t sink_ = 0;             // keeps the passes observable
};

// ---------------------------------------------------------------------------
// Per-repetition results

// The per-layer metric names, in output order. Every workload reports every
// name; a layer the workload bypasses reads 0.
const std::vector<std::string>& LayerKeys() {
  static const std::vector<std::string> kKeys = [] {
    std::vector<std::string> keys = {
        "trace.gen_ms", "trace.arrivals",
        "heap.step_us_p50", "heap.step_us_p99", "heap.step_n", "heap.young_gcs",
        "heap.full_gcs",
        "os.sample_us", "os.uss_mib", "os.pss_mib",
        "core.reclaim_ms", "core.reclaim_requests", "core.reclaim_aborts",
        "core.released_mib", "core.released_per_reclaim_mib",
        "faas.submit_ns", "faas.warmup_run_s", "faas.measure_run_s", "faas.teardown_ms",
        "faas.cold_boots", "faas.warm_starts", "faas.evictions", "faas.warm_frac",
        "faas.sim_queue_p99_ms", "faas.sim_boot_p99_ms", "faas.sim_reclaim_cpu_core_s",
        "event.dispatched"};
    for (const char* kind : {"arrival", "boot_complete", "stage_complete", "callback", "reclaim"}) {
      keys.push_back(std::string("event.") + kind + ".events");
      keys.push_back(std::string("event.") + kind + ".ns_per_event");
    }
    for (const char* key :
         {"router.cell_route_ms", "router.rack_route_ms", "router.barrier_stall_ms",
          "router.migration_barriers", "router.victims_migrated", "snapshot.captures",
          "snapshot.refreshes", "snapshot.restores", "snapshot.fallback_boots",
          "snapshot.restore_hit_frac", "snapshot.fetch_failures", "snapshot.replicated_mib",
          "snapshot.delta_saved_mib"}) {
      keys.push_back(key);
    }
    keys.push_back("host.probe_ms");
    for (const char* layer : {"bench", "trace", "faas", "heap", "os", "core"}) {
      keys.push_back(std::string("self.") + layer + "_ms");
    }
    return keys;
  }();
  return kKeys;
}

class Layers {
 public:
  Layers() {
    for (const std::string& key : LayerKeys()) {
      values_[key] = 0.0;
    }
  }
  void Set(const std::string& key, double value) { Slot(key) = value; }
  void Add(const std::string& key, double value) { Slot(key) += value; }
  double Get(const std::string& key) { return Slot(key); }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  double& Slot(const std::string& key) {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "unknown per-layer metric %s\n", key.c_str());
      std::abort();
    }
    return it->second;
  }
  std::map<std::string, double> values_;
};

struct Rep {
  double setup_s = 0.0;     // input generation + construction + Submit
  double run_s = 0.0;       // timed Step / RunUntil calls
  uint64_t invocations = 0;  // simulated invocations performed by those calls
  uint64_t completed = 0;   // simulated requests completed / failed / dropped
  uint64_t failed = 0;
  uint64_t dropped = 0;
  uint64_t fingerprint = 0;
  uint64_t dispatched = 0;  // event profile (0 when DESICCANT_EVENT_PROFILE is unset)
  uint64_t attributed = 0;
  // One entry per host-speed probe: {probe seconds, seconds of timed calls
  // made after it and before the next probe}.
  std::vector<std::pair<double, double>> probes;
  std::vector<std::pair<std::string, double>> sim;  // exact simulated outcomes
  Layers layers;
};

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return SplitMix64(h).Next();
}

uint64_t DoubleBits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Called before each timed call: probes at the first call of a repetition and
// then every kProbeIntervalS of host time, so the probes sample the host
// evenly however the work is split into calls.
void Probe(HostProbe& probe, Tracer& tracer, Rep& rep) {
  if (!rep.probes.empty() && !probe.Due()) {
    return;
  }
  Scope scope(tracer, "probe", "bench");
  rep.probes.push_back({probe.Run(), 0.0});
}

// Books one timed call, made after a Probe call in the same repetition.
void AddTimed(Rep& rep, double seconds) {
  rep.run_s += seconds;
  rep.probes.back().second += seconds;
}

// Runs one set-up round kSetupRounds times (each round first drops the
// previous round's objects, untimed) and returns the median round's host
// seconds. The last round's objects are the ones the repetition uses.
template <typename Round>
double MedianSetup(Round&& round) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRounds; ++i) {
    seconds.push_back(round());
  }
  return Median(seconds);
}

// Seeded host-side order of `n` independent units (Fisher-Yates).
std::vector<size_t> HostOrder(size_t n, uint64_t seed, uint64_t rep) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  SplitMix64 mix(Rng::MixSeed(seed, rep));
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[mix.Next() % i]);
  }
  return order;
}

void AddEventProfile(Rep& rep) {
  if (!EventProfile::Enabled()) {
    return;
  }
  rep.layers.Set("event.dispatched", static_cast<double>(EventProfile::Dispatched()));
  const std::pair<const char*, EventKind> kinds[] = {
      {"arrival", EventKind::kArrival},
      {"boot_complete", EventKind::kBootComplete},
      {"stage_complete", EventKind::kStageComplete},
      {"callback", EventKind::kCallback},
      {"reclaim", EventKind::kReclaim}};
  for (const auto& [name, kind] : kinds) {
    const uint64_t count = EventProfile::KindCount(kind);
    rep.layers.Set(std::string("event.") + name + ".events", static_cast<double>(count));
    rep.layers.Set(std::string("event.") + name + ".ns_per_event",
                   count > 0 ? static_cast<double>(EventProfile::KindNs(kind)) / count : 0.0);
  }
  rep.dispatched = EventProfile::Dispatched();
  rep.attributed = EventProfile::AttributedTotal();
}

struct Options {
  std::string workload;
  double seconds = 10.0;
  uint64_t seed = 1;
  uint64_t trace_seed = 1234;
  uint64_t population_seed = 20240601;
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// single_function: fig 7's vanilla / eager / Desiccant ChainStudys over the
// Table 1 suite, 100 steps each, then ReclaimAll + Sample on the Desiccant
// study. No event core, platform, router or snapshot code runs.

struct FunctionOutcome {
  ChainSample vanilla;
  ChainSample desiccant;  // after reclaim
  uint64_t digest = 0;
};

uint64_t SampleDigest(uint64_t h, const ChainSample& s) {
  h = Mix(h, s.uss);
  h = Mix(h, s.rss);
  h = Mix(h, DoubleBits(s.pss));
  h = Mix(h, s.ideal_uss);
  return Mix(h, static_cast<uint64_t>(s.duration));
}

Rep RunSingleFunction(const Options& options, Tracer& tracer, HostProbe& probe,
                      uint64_t rep_index) {
  Rep rep;
  const std::vector<WorkloadSpec>& suite = WorkloadSuite();
  std::vector<FunctionOutcome> outcomes(suite.size());
  PercentileTracker desiccant_duration_ms;
  PercentileTracker step_us;
  std::vector<double> sample_us;
  double reclaim_s = 0.0;
  double teardown_s = 0.0;
  uint64_t boots = 0;
  uint64_t stage_invocations = 0;
  uint64_t released_pages = 0;
  uint64_t young_gcs = 0;
  uint64_t full_gcs = 0;
  double pss_mib = 0.0;

  Scope rep_scope(tracer, "repetition", "bench");
  for (const size_t index : HostOrder(suite.size(), options.seed, rep_index)) {
    Scope function_scope(tracer, "function", "bench");
    const WorkloadSpec& workload = suite[index];
    StudyConfig vanilla_config;
    StudyConfig eager_config = vanilla_config;
    eager_config.mode = StudyMode::kEager;

    std::unique_ptr<ChainStudy> vanilla;
    std::unique_ptr<ChainStudy> eager;
    std::unique_ptr<ChainStudy> desiccant;
    rep.setup_s += MedianSetup([&] {
      vanilla.reset();
      eager.reset();
      desiccant.reset();
      Scope construct(tracer, "construct", "faas");
      vanilla = std::make_unique<ChainStudy>(workload, vanilla_config);
      eager = std::make_unique<ChainStudy>(workload, eager_config);
      desiccant = std::make_unique<ChainStudy>(workload, vanilla_config);
      return construct.Close();
    });

    FunctionOutcome& outcome = outcomes[index];
    uint64_t digest = 0;
    ChainStudy* studies[] = {vanilla.get(), eager.get(), desiccant.get()};
    for (int i = 0; i < kSingleFunctionIterations; ++i) {
      for (size_t s = 0; s < 3; ++s) {
        Probe(probe, tracer, rep);
        Scope step(tracer, "step", "heap");
        const ChainSample sample = studies[s]->Step();
        const double seconds = step.Close();
        AddTimed(rep, seconds);
        step_us.Add(seconds * 1e6);
        digest = SampleDigest(digest, sample);
        if (s == 0) {
          outcome.vanilla = sample;
        } else if (s == 2) {
          desiccant_duration_ms.Add(ToMillis(sample.duration));
        }
      }
    }
    rep.invocations += 3 * kSingleFunctionIterations;
    boots += desiccant->instances().size();
    stage_invocations += desiccant->instances().size() * kSingleFunctionIterations;

    Scope reclaim(tracer, "reclaim_all", "core");
    const ReclaimResult reclaimed = desiccant->ReclaimAll();
    reclaim_s += reclaim.Close();
    released_pages += reclaimed.released_pages;
    rep.layers.Add("core.reclaim_requests", static_cast<double>(desiccant->instances().size()));

    Scope sample(tracer, "sample", "os");
    outcome.desiccant = desiccant->Sample();
    sample_us.push_back(sample.Close() * 1e6);
    outcome.digest = SampleDigest(Mix(digest, reclaimed.released_pages), outcome.desiccant);
    pss_mib += outcome.desiccant.pss / kMiB;

    for (ChainStudy* study : studies) {
      for (const auto& instance : study->instances()) {
        const HeapStats heap = instance->runtime().GetHeapStats();
        young_gcs += heap.young_gc_count;
        full_gcs += heap.full_gc_count;
      }
    }
    Scope teardown(tracer, "teardown", "faas");
    vanilla.reset();
    eager.reset();
    desiccant.reset();
    teardown_s += teardown.Close();
  }

  // Canonical (suite) order, whatever order the host ran the functions in.
  double java_reduction = 0.0;
  double js_reduction = 0.0;
  int java_count = 0;
  int js_count = 0;
  uint64_t frozen_bytes = 0;
  for (size_t i = 0; i < suite.size(); ++i) {
    const FunctionOutcome& o = outcomes[i];
    rep.fingerprint = Mix(rep.fingerprint, o.digest);
    const double reduction = static_cast<double>(o.vanilla.uss) / o.desiccant.uss;
    if (suite[i].language == Language::kJava) {
      java_reduction += reduction;
      ++java_count;
    } else {
      js_reduction += reduction;
      ++js_count;
    }
    frozen_bytes += o.desiccant.uss;
  }
  java_reduction /= java_count;
  js_reduction /= js_count;
  rep.completed = rep.invocations;
  rep.sim = {
      {"sim_p99_ms", desiccant_duration_ms.Percentile(99)},
      {"sim_cold_frac", static_cast<double>(boots) / static_cast<double>(stage_invocations)},
      {"sim_frozen_mib", ToMiB(frozen_bytes)},
      {"paper_err", 0.5 * (std::fabs(java_reduction - kPaperJavaReduction) / kPaperJavaReduction +
                           std::fabs(js_reduction - kPaperJsReduction) / kPaperJsReduction)},
  };

  Layers& l = rep.layers;
  l.Set("heap.step_us_p50", step_us.Percentile(50));
  l.Set("heap.step_us_p99", step_us.Percentile(99));
  l.Set("heap.step_n", static_cast<double>(step_us.count()));
  l.Set("heap.young_gcs", static_cast<double>(young_gcs));
  l.Set("heap.full_gcs", static_cast<double>(full_gcs));
  l.Set("os.sample_us", Median(sample_us));
  l.Set("os.uss_mib", ToMiB(frozen_bytes));
  l.Set("os.pss_mib", pss_mib);
  l.Set("core.reclaim_ms", reclaim_s * 1e3);
  l.Set("core.released_mib", ToMiB(released_pages * kPageSize));
  l.Set("core.released_per_reclaim_mib",
        l.Get("core.released_mib") / l.Get("core.reclaim_requests"));
  l.Set("faas.teardown_ms", teardown_s * 1e3);
  return rep;
}

// ---------------------------------------------------------------------------
// Replay helpers shared by trace_replay and cell_failover.

void SetPlatformLayers(Layers& l, const PlatformMetrics& m) {
  l.Set("faas.cold_boots", static_cast<double>(m.cold_boots));
  l.Set("faas.warm_starts", static_cast<double>(m.warm_starts));
  l.Set("faas.evictions", static_cast<double>(m.evictions));
  const uint64_t starts = m.cold_boots + m.warm_starts;
  l.Set("faas.warm_frac", starts > 0 ? static_cast<double>(m.warm_starts) / starts : 0.0);
  l.Set("faas.sim_queue_p99_ms", m.queue_ms.Percentile(99));
  l.Set("faas.sim_boot_p99_ms", m.boot_ms.Percentile(99));
  l.Set("faas.sim_reclaim_cpu_core_s", m.reclaim_cpu_core_s);
}

void SetManagerLayers(Layers& l, const DesiccantStats& d) {
  l.Set("core.reclaim_requests", static_cast<double>(d.reclaim_requests));
  l.Set("core.reclaim_aborts", static_cast<double>(d.reclaim_aborts));
  l.Set("core.released_mib", ToMiB(d.bytes_released));
  l.Set("core.released_per_reclaim_mib",
        d.reclaim_requests > 0 ? ToMiB(d.bytes_released) / d.reclaim_requests : 0.0);
}

// Advances `engine` from `from` to `end` in RunUntil calls kRunChunk of
// simulated time apart (splitting the calls leaves every simulated outcome
// unchanged). Returns the calls' host seconds.
template <typename Engine>
double RunTimed(Engine& engine, SimTime from, SimTime end, const char* name, HostProbe& probe,
                Tracer& tracer, Rep& rep) {
  double seconds = 0.0;
  for (SimTime t = from; t < end;) {
    t = std::min(end, t + kRunChunk);
    Probe(probe, tracer, rep);
    Scope scope(tracer, name, "faas");
    engine.RunUntil(t);
    const double call_s = scope.Close();
    AddTimed(rep, call_s);
    seconds += call_s;
  }
  return seconds;
}

void CountRequests(Rep& rep, const PlatformMetrics& m) {
  rep.completed += m.requests_completed;
  rep.failed += m.requests_failed;
  rep.dropped += m.requests_dropped;
}

// ---------------------------------------------------------------------------
// trace_replay: fig 9's one-node Platform at SF 15 (1.5 GiB cache, 1.6
// cores, 60 s warm-up + 180 s measured), vanilla and Desiccant.

struct ReplayOutcome {
  PlatformMetrics metrics;
  uint64_t frozen_bytes = 0;
  DesiccantStats desiccant;
};

Rep RunTraceReplay(const Options& options, Tracer& tracer, HostProbe& probe,
                   uint64_t rep_index) {
  Rep rep;
  Scope rep_scope(tracer, "repetition", "bench");
  const SimTime warmup_end = FromSeconds(60);
  const SimTime replay_end = warmup_end + FromSeconds(180);

  std::vector<WorkloadSpec> suite;
  std::vector<TraceArrival> warmup_arrivals;
  std::vector<TraceArrival> measure_arrivals;
  const double gen_s = MedianSetup([&] {
    Scope generate(tracer, "generate", "trace");
    suite.clear();
    for (const WorkloadSpec& w : WorkloadSuite()) {
      suite.push_back(CoarsenObjects(w, 4));
    }
    std::vector<const WorkloadSpec*> workloads;
    for (const WorkloadSpec& w : suite) {
      workloads.push_back(&w);
    }
    const TraceGenerator generator(options.trace_seed);
    const auto functions = generator.BuildSuiteTrace(workloads);
    warmup_arrivals = generator.Generate(functions, 15.0, 0, warmup_end);
    measure_arrivals = generator.Generate(functions, 15.0, warmup_end, replay_end);
    return generate.Close();
  });
  rep.setup_s += gen_s;
  rep.layers.Set("trace.gen_ms", gen_s * 1e3);
  rep.layers.Set("trace.arrivals",
                 static_cast<double>(warmup_arrivals.size() + measure_arrivals.size()));

  const MemoryMode modes[] = {MemoryMode::kVanilla, MemoryMode::kDesiccant};
  ReplayOutcome outcomes[2];
  double submit_s = 0.0;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  double teardown_s = 0.0;
  for (const size_t m : HostOrder(2, options.seed, rep_index)) {
    PlatformConfig config;
    config.mode = modes[m];
    config.cache_capacity_bytes = 1536 * kMiB;
    config.cpu_cores = 1.6;
    config.seed = 42;

    std::unique_ptr<Platform> platform;
    std::unique_ptr<DesiccantManager> manager;
    std::vector<double> submit_rounds;
    rep.setup_s += MedianSetup([&] {
      manager.reset();
      platform.reset();
      Scope construct(tracer, "construct", "faas");
      platform = std::make_unique<Platform>(config);
      if (modes[m] == MemoryMode::kDesiccant) {
        manager = std::make_unique<DesiccantManager>(platform.get(), DesiccantConfig{});
      }
      const double construct_s = construct.Close();
      Scope submit(tracer, "submit", "faas");
      platform->ReserveEvents(warmup_arrivals.size() + measure_arrivals.size());
      for (const TraceArrival& a : warmup_arrivals) {
        platform->Submit(a.workload, a.time);
      }
      for (const TraceArrival& a : measure_arrivals) {
        platform->Submit(a.workload, a.time);
      }
      submit_rounds.push_back(submit.Close());
      return construct_s + submit_rounds.back();
    });
    submit_s += Median(submit_rounds);

    warmup_s += RunTimed(*platform, 0, warmup_end, "run_warmup", probe, tracer, rep);
    rep.invocations += platform->metrics().stage_invocations;
    platform->BeginMeasurement();
    measure_s += RunTimed(*platform, warmup_end, replay_end, "run_measure", probe, tracer, rep);

    ReplayOutcome& outcome = outcomes[m];
    outcome.metrics = platform->FinishMeasurement();
    outcome.frozen_bytes = platform->FrozenMemoryBytes();
    if (manager != nullptr) {
      outcome.desiccant.Accumulate(*manager);
    }
    rep.invocations += outcome.metrics.stage_invocations;
    CountRequests(rep, outcome.metrics);
    if (modes[m] == MemoryMode::kDesiccant) {
      for (Instance* instance : platform->FrozenInstances()) {
        const HeapStats heap = instance->runtime().GetHeapStats();
        rep.layers.Add("heap.young_gcs", static_cast<double>(heap.young_gc_count));
        rep.layers.Add("heap.full_gcs", static_cast<double>(heap.full_gc_count));
      }
    }

    Scope teardown(tracer, "teardown", "faas");
    manager.reset();
    platform.reset();
    teardown_s += teardown.Close();
  }

  const PlatformMetrics& vanilla = outcomes[0].metrics;
  const PlatformMetrics& desiccant = outcomes[1].metrics;
  rep.fingerprint = Mix(Mix(0, vanilla.Fingerprint()), desiccant.Fingerprint());
  const double p99 = desiccant.latency_ms.Percentile(99);
  const double reduction = 1.0 - p99 / vanilla.latency_ms.Percentile(99);
  rep.sim = {
      {"sim_p99_ms", p99},
      {"sim_cold_frac", desiccant.ColdBootFraction()},
      {"sim_frozen_mib", ToMiB(outcomes[1].frozen_bytes)},
      {"paper_err", std::fabs(reduction - kPaperP99Reduction) / kPaperP99Reduction},
  };

  Layers& l = rep.layers;
  SetPlatformLayers(l, desiccant);
  SetManagerLayers(l, outcomes[1].desiccant);
  l.Set("faas.submit_ns", submit_s * 1e9 / (2.0 * l.Get("trace.arrivals")));
  l.Set("faas.warmup_run_s", warmup_s);
  l.Set("faas.measure_run_s", measure_s);
  l.Set("faas.teardown_ms", teardown_s * 1e3);
  return rep;
}

// ---------------------------------------------------------------------------
// cell_failover: a 16-node, 4-rack ShardedCluster replay of a 1000-function
// synthetic population (IAT scale 8, 30 s + 120 s) in Desiccant mode, with
// the three-tier snapshot store, the shared fabric with delta refresh, and
// node crashes. The only workload that runs the router, migration barriers,
// fabric settlement, snapshot capture / refresh and restore.

Rep RunCellFailover(const Options& options, Tracer& tracer, HostProbe& probe) {
  Rep rep;
  Scope rep_scope(tracer, "repetition", "bench");
  const SimTime warmup_end = FromSeconds(30);
  const SimTime replay_end = warmup_end + FromSeconds(120);

  ShardedClusterConfig config;
  config.node_count = 16;
  config.rack_count = 4;
  config.threads = 1;
  config.routing = RoutingPolicy::kAffinity;
  config.inter_rack_delay_ms = ToMillis(config.network_delay) / 2;
  config.node.mode = MemoryMode::kDesiccant;
  config.node.cpu_cores = 4.0;
  config.node.cache_capacity_bytes = 768 * kMiB;
  config.node.seed = 42;
  config.node.snapstart_restore = true;
  config.node.snapshot = SnapshotConfig::ThreeTier();
  config.node.snapshot.fabric.enabled = true;
  config.node.snapshot.fabric.rack_count = 4;
  config.node.snapshot.fabric.replication_factor = 2;
  config.node.snapshot.delta_refresh = true;
  config.node.faults.node_crash_mtbf_seconds = 60.0;
  config.node.faults.node_crash_horizon = replay_end;
  config.node.faults.node_restart_delay = 2 * kSecond;

  std::unique_ptr<SyntheticPopulation> population;
  std::vector<TraceArrival> arrivals;
  std::unique_ptr<ShardedCluster> cluster;
  std::vector<std::unique_ptr<DesiccantManager>> managers;
  std::vector<double> gen_rounds;
  std::vector<double> submit_rounds;
  rep.setup_s = MedianSetup([&] {
    managers.clear();
    cluster.reset();
    population.reset();
    Scope generate(tracer, "generate", "trace");
    population = std::make_unique<SyntheticPopulation>(
        PopulationConfig::AzureLike(1000, options.population_seed));
    arrivals = population->GenerateArrivals(8.0, 0, replay_end);
    gen_rounds.push_back(generate.Close());

    Scope construct(tracer, "construct", "faas");
    cluster = std::make_unique<ShardedCluster>(config);
    for (size_t i = 0; i < cluster->node_count(); ++i) {
      managers.push_back(
          std::make_unique<DesiccantManager>(&cluster->node(i), DesiccantConfig{}));
    }
    cluster->ReserveFunctions(population->workloads().size());
    cluster->ReserveEvents(arrivals.size());
    const double construct_s = construct.Close();

    Scope submit(tracer, "submit", "faas");
    for (const TraceArrival& a : arrivals) {
      cluster->Submit(a.workload, a.time);
    }
    submit_rounds.push_back(submit.Close());
    return gen_rounds.back() + construct_s + submit_rounds.back();
  });
  const double submit_s = Median(submit_rounds);
  rep.layers.Set("trace.gen_ms", Median(gen_rounds) * 1e3);
  rep.layers.Set("trace.arrivals", static_cast<double>(arrivals.size()));

  const double warmup_s = RunTimed(*cluster, 0, warmup_end, "run_warmup", probe, tracer, rep);
  for (size_t i = 0; i < cluster->node_count(); ++i) {
    rep.invocations += cluster->node(i).metrics().stage_invocations;
  }
  cluster->BeginMeasurement();
  const double measure_s =
      RunTimed(*cluster, warmup_end, replay_end, "run_measure", probe, tracer, rep);

  Scope collect(tracer, "collect", "faas");
  const PlatformMetrics metrics = cluster->AggregateMetrics();
  rep.invocations += metrics.stage_invocations;
  CountRequests(rep, metrics);
  rep.fingerprint = Mix(0, metrics.Fingerprint());
  for (const uint64_t node : cluster->NodeFingerprints()) {
    rep.fingerprint = Mix(rep.fingerprint, node);
  }
  uint64_t frozen_bytes = 0;
  SnapshotStats snapshot;
  DesiccantStats desiccant;
  for (size_t i = 0; i < cluster->node_count(); ++i) {
    Platform& node = cluster->node(i);
    frozen_bytes += node.FrozenMemoryBytes();
    if (const SnapshotStore* store = node.snapshot_store()) {
      snapshot.Accumulate(store->stats());
    }
    desiccant.Accumulate(*managers[i]);
    for (Instance* instance : node.FrozenInstances()) {
      const HeapStats heap = instance->runtime().GetHeapStats();
      rep.layers.Add("heap.young_gcs", static_cast<double>(heap.young_gc_count));
      rep.layers.Add("heap.full_gcs", static_cast<double>(heap.full_gc_count));
    }
  }
  const RouterStats router = cluster->router_stats();
  const FabricStats fabric = cluster->fabric() != nullptr ? cluster->fabric()->stats()
                                                          : FabricStats{};
  collect.Close();

  rep.sim = {
      {"sim_p99_ms", metrics.latency_ms.Percentile(99)},
      {"sim_cold_frac", metrics.ColdBootFraction()},
      {"sim_frozen_mib", ToMiB(frozen_bytes)},
      {"paper_err",
       std::fabs(metrics.reclaim_cpu_core_s / metrics.cpu_busy_core_s - kPaperReclaimCpuShare) /
           kPaperReclaimCpuShare},
  };

  Layers& l = rep.layers;
  SetPlatformLayers(l, metrics);
  SetManagerLayers(l, desiccant);
  l.Set("faas.submit_ns", submit_s * 1e9 / static_cast<double>(arrivals.size()));
  l.Set("faas.warmup_run_s", warmup_s);
  l.Set("faas.measure_run_s", measure_s);
  l.Set("router.cell_route_ms", router.cell_route_ms);
  l.Set("router.rack_route_ms", router.rack_route_ms);
  l.Set("router.barrier_stall_ms", router.barrier_stall_ms);
  l.Set("router.migration_barriers", static_cast<double>(router.migration_barriers));
  l.Set("router.victims_migrated", static_cast<double>(router.victims_migrated));
  l.Set("snapshot.captures", static_cast<double>(metrics.snapshot_captures));
  l.Set("snapshot.refreshes", static_cast<double>(snapshot.refreshes));
  l.Set("snapshot.restores", static_cast<double>(metrics.snapshot_restores));
  l.Set("snapshot.fallback_boots", static_cast<double>(metrics.snapshot_fallback_boots));
  const uint64_t attempts = metrics.snapshot_restores + metrics.snapshot_fallback_boots;
  l.Set("snapshot.restore_hit_frac",
        attempts > 0 ? static_cast<double>(metrics.snapshot_restores) / attempts : 0.0);
  l.Set("snapshot.fetch_failures", static_cast<double>(snapshot.fetch_failures));
  l.Set("snapshot.replicated_mib", ToMiB(fabric.bytes_replicated));
  l.Set("snapshot.delta_saved_mib", ToMiB(snapshot.delta_bytes_saved));

  Scope teardown(tracer, "teardown", "faas");
  managers.clear();
  cluster.reset();
  population.reset();
  l.Set("faas.teardown_ms", teardown.Close() * 1e3);
  return rep;
}

// ---------------------------------------------------------------------------
// Output

void PrintNumber(double x) {
  if (std::isfinite(x)) {
    std::printf("%.17g", x);
  } else {
    std::printf("null");
  }
}

void PrintRep(const Rep& rep) {
  std::printf("{\"setup_s\":");
  PrintNumber(rep.setup_s);
  std::printf(",\"run_s\":");
  PrintNumber(rep.run_s);
  std::printf(",\"probes\":[");
  for (size_t i = 0; i < rep.probes.size(); ++i) {
    std::printf("%s[", i == 0 ? "" : ",");
    PrintNumber(rep.probes[i].first);
    std::printf(",");
    PrintNumber(rep.probes[i].second);
    std::printf("]");
  }
  std::printf("]");
  std::printf(
      ",\"invocations\":%llu,\"completed\":%llu,\"failed\":%llu,\"dropped\":%llu,"
      "\"fingerprint\":\"%016llx\",\"dispatched\":%llu,\"attributed\":%llu,"
      "\"sim\":{",
      static_cast<unsigned long long>(rep.invocations),
      static_cast<unsigned long long>(rep.completed), static_cast<unsigned long long>(rep.failed),
      static_cast<unsigned long long>(rep.dropped),
      static_cast<unsigned long long>(rep.fingerprint),
      static_cast<unsigned long long>(rep.dispatched),
      static_cast<unsigned long long>(rep.attributed));
  for (size_t i = 0; i < rep.sim.size(); ++i) {
    std::printf("%s\"%s\":", i == 0 ? "" : ",", rep.sim[i].first.c_str());
    PrintNumber(rep.sim[i].second);
  }
  std::printf("},\"layers\":{");
  bool first = true;
  for (const std::string& key : LayerKeys()) {
    std::printf("%s\"%s\":", first ? "" : ",", key.c_str());
    PrintNumber(rep.layers.values().at(key));
    first = false;
  }
  std::printf("}}");
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: desiccant_perfbench --workload "
               "single_function|trace_replay|cell_failover --seconds N [--seed N] "
               "[--trace-seed N] [--population-seed N] [--trace-out FILE]\n",
               message);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--seed" || flag == "--trace-seed" || flag == "--population-seed") {
      const uint64_t parsed = std::strtoull(value, &end, 10);
      (flag == "--seed" ? options.seed
                        : flag == "--trace-seed" ? options.trace_seed : options.population_seed) =
          parsed;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (options.workload != "single_function" && options.workload != "trace_replay" &&
      options.workload != "cell_failover") {
    Usage("unknown --workload");
  }
  if (!(options.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseOptions(argc, argv);
  Tracer tracer(!options.trace_out.empty());
  HostProbe probe;

  auto run_once = [&](uint64_t rep_index) {
    EventProfile::Reset();
    const size_t first_span = tracer.spans().size();
    Rep rep = options.workload == "single_function"
                  ? RunSingleFunction(options, tracer, probe, rep_index)
              : options.workload == "trace_replay"
                  ? RunTraceReplay(options, tracer, probe, rep_index)
                  : RunCellFailover(options, tracer, probe);
    AddEventProfile(rep);
    double probe_s = 0.0;
    for (const auto& entry : rep.probes) {
      probe_s += entry.first;
    }
    rep.layers.Set("host.probe_ms", probe_s * 1e3 / static_cast<double>(rep.probes.size()));
    if (tracer.enabled()) {
      for (const auto& [layer, ms] : tracer.SelfMsByLayer(first_span)) {
        rep.layers.Set("self." + layer + "_ms", ms);
      }
    }
    return rep;
  };

  // Untimed warm-up: checked like every repetition, never timed.
  const Rep warmup = run_once(0);

  // Timed repetitions: at least one, and no further one once the next is
  // expected (at the slowest repetition so far) to end past --seconds.
  std::vector<Rep> reps;
  const auto start = Clock::now();
  double slowest_s = 0.0;
  double elapsed_s = 0.0;
  while (reps.empty() || elapsed_s + slowest_s <= options.seconds) {
    const auto rep_start = Clock::now();
    reps.push_back(run_once(reps.size() + 1));
    const auto now = Clock::now();
    slowest_s = std::max(slowest_s, std::chrono::duration<double>(now - rep_start).count());
    elapsed_s = std::chrono::duration<double>(now - start).count();
  }

  if (tracer.enabled()) {
    if (!tracer.Write(options.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
      return 1;
    }
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace_seed\":%llu,\"population_seed\":%llu,"
              "\"traced\":%s,\"peak_rss_mib\":",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options.trace_seed),
              static_cast<unsigned long long>(options.population_seed),
              tracer.enabled() ? "true" : "false");
  PrintNumber(PeakRssMiB());
  std::printf(",\"warmup\":");
  PrintRep(warmup);
  std::printf(",\"reps\":[");
  for (size_t i = 0; i < reps.size(); ++i) {
    std::printf("%s", i == 0 ? "" : ",");
    PrintRep(reps[i]);
  }
  std::printf("]}\n");
  return 0;
}
