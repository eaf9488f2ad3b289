// Discrete-event scheduling for the platform simulator.
//
// EventQueue is a binary min-heap over a vector, ordered by (time, seq):
// events fire in timestamp order, and simultaneous events fire in the order
// they were scheduled. That order is the contract every golden fingerprint
// rests on — each clock advance and RNG draw follows from it.
//
// Closures are stored as InlineClosure, not std::function: the platform's
// hot closures (a captured Request plus a `this` pointer) fit the inline
// buffer, and the event vector keeps its capacity, so steady-state
// Schedule/RunNext is allocation-free.
#ifndef DESICCANT_SRC_FAAS_EVENT_QUEUE_H_
#define DESICCANT_SRC_FAAS_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "src/base/inline_closure.h"
#include "src/base/sim_clock.h"
#include "src/base/units.h"
#include "src/faas/event_profile.h"

namespace desiccant {

class EventQueue {
 public:
  // Sized for the platform's largest hot capture: a Request (72 bytes) plus
  // a Platform pointer. Anything bigger still works via the heap fallback.
  using Closure = InlineClosure<88>;

  void Schedule(SimTime time, Closure fn, EventKind kind = EventKind::kOther) {
    Push(Event{time, next_seq_++, nullptr, 0, kind, std::move(fn)});
  }

  // Like Schedule, but the closure body only runs if `*guard == expected`
  // when the event fires. The event still occupies its slot in virtual time
  // either way — the clock advances to it and the caller's run loop ticks —
  // which is exactly the semantics of the epoch-checking wrapper closures
  // this replaces (and what keeps replay fingerprints byte-identical).
  // `guard` must outlive the queue's events (it points at a Platform member).
  void ScheduleGuarded(SimTime time, const uint64_t* guard, uint64_t expected, Closure fn,
                       EventKind kind = EventKind::kOther) {
    Push(Event{time, next_seq_++, guard, expected, kind, std::move(fn)});
  }

  // Capacity hint for callers that know their event volume up front (e.g. a
  // trace replay scheduling one arrival per request).
  void Reserve(size_t n) { events_.reserve(n); }

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

  SimTime next_time() const {
    if (events_.empty()) [[unlikely]] {
      std::fprintf(stderr, "EventQueue::next_time() called on an empty queue\n");
      std::abort();
    }
    return events_.front().time;
  }

  // Non-aborting peek for callers merging several queues (the sharded replay
  // engine's idle skip takes the min over its shards): the earliest event
  // time, or `fallback` when the queue is empty.
  SimTime NextTimeOr(SimTime fallback) const {
    return events_.empty() ? fallback : events_.front().time;
  }

  // Pops the earliest event, advances the clock to it, and runs it (unless
  // its guard went stale, in which case the clock still advances).
  void RunNext(SimClock* clock) {
    assert(!events_.empty());
    std::pop_heap(events_.begin(), events_.end(), Later{});
    Event event = std::move(events_.back());
    events_.pop_back();
    clock->AdvanceTo(event.time);
    if (EventProfile::Enabled()) [[unlikely]] {
      EventProfile::CountDispatch();
      const uint64_t t0 = EventProfile::Now();
      if (event.guard == nullptr || *event.guard == event.expected) {
        event.fn();
      }
      EventProfile::Attribute(event.kind, EventProfile::Now() - t0);
      return;
    }
    if (event.guard == nullptr || *event.guard == event.expected) {
      event.fn();
    }
  }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;  // FIFO tiebreak for simultaneous events
    const uint64_t* guard;  // nullptr = unconditional
    uint64_t expected;
    EventKind kind;
    Closure fn;
  };

  // Heap comparator: "fires later" orders the max-heap primitives into a
  // min-heap on (time, seq).
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  // Appends and sifts up. Setup submits arrivals in time order, so the new
  // event usually already belongs at the back; push_heap would still move
  // the 88-byte closure out and back, so it runs only when the event comes
  // before its parent. (time, seq) is a strict total order, so the heap —
  // and the pop order — is the same either way.
  void Push(Event&& e) {
    events_.push_back(std::move(e));
    const size_t n = events_.size();
    if (n > 1 && Later{}(events_[(n - 2) / 2], events_.back())) {
      std::push_heap(events_.begin(), events_.end(), Later{});
    }
  }

  std::vector<Event> events_;
  uint64_t next_seq_ = 0;
};

}  // namespace desiccant

#endif  // DESICCANT_SRC_FAAS_EVENT_QUEUE_H_
