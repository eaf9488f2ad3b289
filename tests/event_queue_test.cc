// Tests for the discrete-event queue.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "src/faas/event_queue.h"

#include <random>

namespace desiccant {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  SimClock clock;
  std::vector<int> order;
  queue.Schedule(3 * kSecond, [&order] { order.push_back(3); });
  queue.Schedule(1 * kSecond, [&order] { order.push_back(1); });
  queue.Schedule(2 * kSecond, [&order] { order.push_back(2); });
  while (!queue.empty()) {
    queue.RunNext(&clock);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.Now(), 3 * kSecond);
}

TEST(EventQueueTest, SimultaneousEventsAreFifo) {
  EventQueue queue;
  SimClock clock;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Schedule(kSecond, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) {
    queue.RunNext(&clock);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue queue;
  SimClock clock;
  int fired = 0;
  queue.Schedule(kSecond, [&] {
    ++fired;
    queue.Schedule(clock.Now() + kSecond, [&] { ++fired; });
  });
  while (!queue.empty()) {
    queue.RunNext(&clock);
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(clock.Now(), 2 * kSecond);
}

TEST(EventQueueTest, NextTimePeeks) {
  EventQueue queue;
  queue.Schedule(5 * kSecond, [] {});
  queue.Schedule(2 * kSecond, [] {});
  EXPECT_EQ(queue.next_time(), 2 * kSecond);
}

// Counts copies of a captured payload so we can assert that the queue moves
// events instead of copying them.
struct CopyCounter {
  explicit CopyCounter(int* counter) : copies(counter) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter& operator=(const CopyCounter& other) {
    copies = other.copies;
    ++*copies;
    return *this;
  }
  CopyCounter(CopyCounter&&) = default;
  CopyCounter& operator=(CopyCounter&&) = default;
  int* copies;
};

TEST(EventQueueTest, RunNextMovesEventsInsteadOfCopying) {
  EventQueue queue;
  SimClock clock;
  int copies = 0;
  int fired = 0;
  {
    std::function<void()> fn = [counter = CopyCounter(&copies), &fired] { ++fired; };
    copies = 0;  // only count from Schedule onward
    queue.Schedule(kSecond, std::move(fn));
  }
  while (!queue.empty()) {
    queue.RunNext(&clock);
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(copies, 0);
}

TEST(EventQueueTest, HeapSiftingNeverCopiesClosures) {
  EventQueue queue;
  SimClock clock;
  int copies = 0;
  int fired = 0;
  // Schedule out of order so push_heap/pop_heap actually sift elements around.
  for (int i = 0; i < 64; ++i) {
    const SimTime t = ((i * 37) % 64 + 1) * kSecond;
    std::function<void()> fn = [counter = CopyCounter(&copies), &fired] { ++fired; };
    queue.Schedule(t, std::move(fn));
  }
  copies = 0;
  while (!queue.empty()) {
    queue.RunNext(&clock);
  }
  EXPECT_EQ(fired, 64);
  EXPECT_EQ(copies, 0);
}

TEST(EventQueueTest, SizeAndReserve) {
  EventQueue queue;
  SimClock clock;
  queue.Reserve(128);
  EXPECT_EQ(queue.size(), 0u);
  for (int i = 0; i < 5; ++i) {
    queue.Schedule(kSecond * (i + 1), [] {});
  }
  EXPECT_EQ(queue.size(), 5u);
  queue.RunNext(&clock);
  EXPECT_EQ(queue.size(), 4u);
}

TEST(EventQueueTest, InterleavedScheduleAndRunKeepsOrder) {
  EventQueue queue;
  SimClock clock;
  std::vector<int> order;
  queue.Schedule(4 * kSecond, [&order] { order.push_back(4); });
  queue.Schedule(2 * kSecond, [&order, &queue, &clock] {
    order.push_back(2);
    queue.Schedule(clock.Now() + kSecond, [&order] { order.push_back(3); });
  });
  queue.Schedule(1 * kSecond, [&order] { order.push_back(1); });
  while (!queue.empty()) {
    queue.RunNext(&clock);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, ClockNeverGoesBackwards) {
  EventQueue queue;
  SimClock clock;
  clock.AdvanceTo(kSecond);
  // An event scheduled in the "past" relative to nothing — events always
  // carry absolute times, and the platform never schedules into the past.
  queue.Schedule(2 * kSecond, [] {});
  queue.RunNext(&clock);
  EXPECT_EQ(clock.Now(), 2 * kSecond);
}

TEST(EventQueueDeathTest, NextTimeOnEmptyAborts) {
  EXPECT_DEATH(
      {
        EventQueue queue;
        (void)queue.next_time();
      },
      "empty");
}

TEST(EventQueueTest, GuardedEventRunsWhileGuardMatches) {
  EventQueue queue;
  SimClock clock;
  uint64_t epoch = 7;
  int fired = 0;
  queue.ScheduleGuarded(kSecond, &epoch, 7, [&fired] { ++fired; });
  queue.RunNext(&clock);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, StaleGuardedEventStillAdvancesClock) {
  EventQueue queue;
  SimClock clock;
  uint64_t epoch = 7;
  int fired = 0;
  queue.ScheduleGuarded(kSecond, &epoch, 7, [&fired] { ++fired; });
  queue.ScheduleGuarded(2 * kSecond, &epoch, 7, [&fired] { ++fired; });
  epoch = 8;  // e.g. the node crashed: everything scheduled before is stale
  while (!queue.empty()) {
    queue.RunNext(&clock);
  }
  // The bodies were skipped, but both events occupied their slot in virtual
  // time — the clock reached them exactly as before the node died.
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(clock.Now(), 2 * kSecond);
}

// ---------------------------------------------------------------------------
// Differential oracle: EventQueue vs. a brute-force reference.
//
// ReferenceQueue keeps its pending events in an unordered vector and pops by
// a linear scan for the minimum (time, seq), checking the guard at pop time:
// the EventQueue contract written as plainly as possible (the golden
// fingerprints all rest on this order). Both queues are driven by the same
// seeded random script — duplicate timestamps, guarded events that are born
// stale or go stale, events that schedule more events (including at the
// current instant) from inside their closures, far-future keep-alive-style
// events, and a bulk Reserve()d pre-load — and must produce identical
// fired-id and clock-advance sequences.

class ReferenceQueue {
 public:
  void Schedule(SimTime time, EventQueue::Closure fn) {
    pending_.push_back(Pending{time, next_seq_++, nullptr, 0, std::move(fn)});
  }
  void ScheduleGuarded(SimTime time, const uint64_t* guard, uint64_t expected,
                       EventQueue::Closure fn) {
    pending_.push_back(Pending{time, next_seq_++, guard, expected, std::move(fn)});
  }
  void Reserve(size_t n) { pending_.reserve(n); }
  bool empty() const { return pending_.empty(); }
  size_t size() const { return pending_.size(); }
  SimTime NextTimeOr(SimTime fallback) const {
    return pending_.empty() ? fallback : pending_[Earliest()].time;
  }
  void RunNext(SimClock* clock) {
    const size_t i = Earliest();
    Pending event = std::move(pending_[i]);
    pending_[i] = std::move(pending_.back());  // unordered: seq keeps FIFO ties
    pending_.pop_back();
    clock->AdvanceTo(event.time);
    if (event.guard == nullptr || *event.guard == event.expected) {
      event.fn();
    }
  }

 private:
  struct Pending {
    SimTime time;
    uint64_t seq;
    const uint64_t* guard;
    uint64_t expected;
    EventQueue::Closure fn;
  };

  size_t Earliest() const {
    size_t best = 0;
    for (size_t i = 1; i < pending_.size(); ++i) {
      const Pending& a = pending_[i];
      const Pending& b = pending_[best];
      if (a.time < b.time || (a.time == b.time && a.seq < b.seq)) {
        best = i;
      }
    }
    return best;
  }

  std::vector<Pending> pending_;
  uint64_t next_seq_ = 0;
};

template <typename Queue>
struct OracleDriver {
  Queue queue;
  SimClock clock;
  uint64_t epoch = 0;
  uint64_t next_id = 1;
  std::vector<uint64_t> fired;
  std::vector<SimTime> advances;

  void ScheduleOne(SimTime time, int guard_mode) {
    const uint64_t id = next_id++;
    auto fn = [this, id] { OnFire(id); };
    switch (guard_mode) {
      case 0:
        queue.Schedule(time, std::move(fn));
        break;
      case 1:  // live at schedule time (may still go stale before firing)
        queue.ScheduleGuarded(time, &epoch, epoch, std::move(fn));
        break;
      default:  // born stale
        queue.ScheduleGuarded(time, &epoch, epoch + 1, std::move(fn));
        break;
    }
  }

  void OnFire(uint64_t id) {
    fired.push_back(id);
    if (id % 11 == 0) {
      ++epoch;  // invalidates every live guarded event scheduled before now
    }
    if (id % 7 == 0) {
      // Schedule from inside an event, sometimes at the current instant.
      ScheduleOne(clock.Now() + (id % 5) * 100, id % 3 == 0 ? 1 : 0);
    }
  }

  void RunOne() {
    advances.push_back(queue.NextTimeOr(-1));
    queue.RunNext(&clock);
    advances.push_back(clock.Now());
  }
};

TEST(EventQueueOracleTest, MatchesBruteForceReferenceOver100kRandomOps) {
  struct Op {
    SimTime delta;
    int guard_mode;  // -1 = run instead of schedule
  };
  std::mt19937_64 rng(0xD15CC0DE);
  std::vector<Op> script;
  script.reserve(100000);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t dice = rng() % 100;
    if (dice < 52) {
      SimTime delta;
      switch (rng() % 6) {
        case 0: delta = 0; break;                                  // "now"
        case 1: delta = static_cast<SimTime>(rng() % 1000); break; // sub-us
        case 2: delta = static_cast<SimTime>(rng() % kMillisecond); break;
        case 3: delta = static_cast<SimTime>(rng() % (50 * kMillisecond)); break;
        case 4: delta = static_cast<SimTime>(rng() % (2 * kSecond)); break;
        default:  // keep-alive band: ~600 s out
          delta = 600 * kSecond + static_cast<SimTime>(rng() % kSecond);
          break;
      }
      script.push_back(Op{delta, static_cast<int>(rng() % 3)});
    } else {
      script.push_back(Op{0, -1});
    }
  }

  OracleDriver<EventQueue> actual;
  OracleDriver<ReferenceQueue> reference;
  actual.queue.Reserve(4096);
  reference.queue.Reserve(4096);
  // Bulk pre-load before the first pop, in random time order.
  for (uint64_t i = 0; i < 512; ++i) {
    const SimTime t = static_cast<SimTime>(rng() % (700 * kSecond));
    actual.ScheduleOne(t, static_cast<int>(i % 3));
    reference.ScheduleOne(t, static_cast<int>(i % 3));
  }

  for (const Op& op : script) {
    if (op.guard_mode < 0) {
      if (!actual.queue.empty()) {
        actual.RunOne();
      }
      if (!reference.queue.empty()) {
        reference.RunOne();
      }
    } else {
      actual.ScheduleOne(actual.clock.Now() + op.delta, op.guard_mode);
      reference.ScheduleOne(reference.clock.Now() + op.delta, op.guard_mode);
    }
    ASSERT_EQ(actual.queue.size(), reference.queue.size());
  }
  while (!actual.queue.empty()) {
    actual.RunOne();
  }
  while (!reference.queue.empty()) {
    reference.RunOne();
  }

  ASSERT_EQ(actual.next_id, reference.next_id);
  ASSERT_EQ(actual.epoch, reference.epoch);
  ASSERT_EQ(actual.fired.size(), reference.fired.size());
  for (size_t i = 0; i < actual.fired.size(); ++i) {
    ASSERT_EQ(actual.fired[i], reference.fired[i]) << "divergence at pop " << i;
  }
  ASSERT_EQ(actual.advances, reference.advances);
  EXPECT_EQ(actual.clock.Now(), reference.clock.Now());
}

// ---------------------------------------------------------------------------
// InlineClosure (the queue's closure representation)

TEST(InlineClosureTest, SmallCaptureStaysInline) {
  int x = 0;
  EventQueue::Closure closure([&x] { x = 42; });
  EXPECT_TRUE(closure.is_inline());
  closure();
  EXPECT_EQ(x, 42);
}

TEST(InlineClosureTest, LargeCaptureFallsBackToHeap) {
  std::array<char, EventQueue::Closure::kInlineCapacity + 1> big{};
  big[0] = 'a';
  int seen = 0;
  EventQueue::Closure closure([big, &seen] { seen = big[0]; });
  EXPECT_FALSE(closure.is_inline());
  closure();
  EXPECT_EQ(seen, 'a');
}

TEST(InlineClosureTest, MoveOnlyCapture) {
  auto payload = std::make_unique<int>(99);
  int seen = 0;
  EventQueue::Closure closure([p = std::move(payload), &seen] { seen = *p; });
  EventQueue::Closure moved = std::move(closure);
  EXPECT_FALSE(static_cast<bool>(closure));
  moved();
  EXPECT_EQ(seen, 99);
}

TEST(InlineClosureTest, MoveOnlyCaptureThroughQueue) {
  EventQueue queue;
  SimClock clock;
  int seen = 0;
  auto payload = std::make_unique<int>(7);
  queue.Schedule(kSecond, [p = std::move(payload), &seen] { seen = *p; });
  queue.RunNext(&clock);
  EXPECT_EQ(seen, 7);
}

struct DtorCounter {
  explicit DtorCounter(int* counter) : destroyed(counter) {}
  DtorCounter(DtorCounter&& other) noexcept : destroyed(other.destroyed) {
    other.destroyed = nullptr;
  }
  DtorCounter(const DtorCounter&) = delete;
  ~DtorCounter() {
    if (destroyed != nullptr) {
      ++*destroyed;
    }
  }
  int* destroyed;
};

TEST(InlineClosureTest, DestroysCaptureExactlyOnce) {
  int destroyed = 0;
  {
    EventQueue::Closure closure([c = DtorCounter(&destroyed)] { (void)c; });
    EventQueue::Closure moved = std::move(closure);
    EventQueue::Closure assigned;
    assigned = std::move(moved);
    EXPECT_EQ(destroyed, 0);  // moves relocate, they don't destroy the payload
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineClosureTest, MoveAssignmentReleasesPreviousPayload) {
  int first_destroyed = 0;
  int second_destroyed = 0;
  EventQueue::Closure closure([c = DtorCounter(&first_destroyed)] { (void)c; });
  closure = EventQueue::Closure([c = DtorCounter(&second_destroyed)] { (void)c; });
  EXPECT_EQ(first_destroyed, 1);
  EXPECT_EQ(second_destroyed, 0);
}

}  // namespace
}  // namespace desiccant
