// The per-process simulated virtual address space.
//
// A VirtualAddressSpace is a set of named regions (anonymous or file-backed)
// whose pages move between PageState values in response to mmap-style calls:
//
//   MapAnonymous/MapFile   reserve a region (all pages kNotPresent)
//   Touch                  fault pages in (minor fault, COW, or swap-in)
//   Release                madvise(MADV_DONTNEED): give physical pages back to
//                          the OS while keeping the mapping usable
//   Protect                mmap(PROT_NONE)-style decommit used by HotSpot's
//                          heap shrinking; identical page effect to Release but
//                          additionally marks the range unusable
//   Unmap                  remove the region
//
// The address space is an *accounting* structure: object payloads live in the
// heap simulators, which report their page activity here. USS/RSS/PSS are
// derived purely from page states plus the SharedFileRegistry refcounts.
//
// Page states live in a two-bitmap PageBitmap with word-at-a-time transition
// paths, and every transition updates per-region counters (dirty / clean /
// swapped) plus address-space aggregates, so RSS and swap are O(1) and
// ResidentPagesInRange() is a popcount over the covered bitmap words. The
// shared-page terms (which clean pages other processes also map) are derived
// when queried: UssBytes(), Usage() and Smaps() walk the clean words of each
// file-backed region against the registry's refcounts, one O(1) step per
// word whose pages share a refcount. A refcount change therefore costs the
// process that makes it O(its own pages) and costs no other mapper anything.
//
// Region lifecycle allocates nothing in the steady state. An unmapped
// region's slot (its page bitmap and name storage) is parked and serves the
// next mapping; live regions are chained in creation order for the scans.
// A RegionId carries a creation sequence number above the slot index, so ids
// grow in creation order and a stale id never names the slot's next tenant.
#ifndef DESICCANT_SRC_OS_VIRTUAL_MEMORY_H_
#define DESICCANT_SRC_OS_VIRTUAL_MEMORY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/units.h"
#include "src/os/page.h"
#include "src/os/page_bitmap.h"
#include "src/os/physical_memory.h"
#include "src/os/shared_file_registry.h"

namespace desiccant {

// Last-resort memory-pressure hook: when a commit fails even after direct
// reclaim, the address space gives its owner (the managed runtime) one shot
// at emergency relief — a full GC + shrink — before the touch fails for
// good. Implementations return false when they cannot run right now (e.g. a
// collection is already in progress).
class PressureReliefHandler {
 public:
  virtual bool RelievePressure() = 0;

 protected:
  ~PressureReliefHandler() = default;
};

// (creation sequence << 32) | slot index; see the header comment.
using RegionId = uint64_t;
inline constexpr RegionId kInvalidRegionId = ~0ull;

// Observes the page ranges Touch() actually faulted or re-touched. Used by the
// snapshot subsystem's WorkingSetRecorder to capture a function's first-
// invocation access set (REAP); null by default, and never invoked on Touch's
// failure paths so a commit-denied touch records nothing.
class TouchListener {
 public:
  virtual void OnTouch(RegionId region, uint64_t first_page, uint64_t pages) = 0;

 protected:
  ~TouchListener() = default;
};

enum class RegionKind : uint8_t { kAnonymous, kFileBacked };

// What a Touch call did, page by page.
struct TouchResult {
  uint64_t minor_faults = 0;  // kNotPresent -> resident
  uint64_t swap_ins = 0;      // kSwapped -> resident
  uint64_t cow_faults = 0;    // kResidentClean -> kResidentDirty (write to file page)
  // Node-pressure side effects; always zero when no PhysicalMemory is
  // attached (or its budget is infinite), keeping fault costs bit-identical.
  uint64_t direct_reclaim_pages = 0;  // reclaimed synchronously for this touch
  uint64_t failed_pages = 0;          // pages denied even after emergency relief

  uint64_t total_faults() const { return minor_faults + swap_ins + cow_faults; }
  bool commit_failed() const { return failed_pages != 0; }

  // Folds another touch's counters into this one. All accumulation sites use
  // this so new fields (like the pressure counters) cannot be dropped.
  void Accumulate(const TouchResult& t) {
    minor_faults += t.minor_faults;
    swap_ins += t.swap_ins;
    cow_faults += t.cow_faults;
    direct_reclaim_pages += t.direct_reclaim_pages;
    failed_pages += t.failed_pages;
  }
};

// Aggregate memory accounting for one process, in bytes.
struct MemoryUsage {
  uint64_t rss = 0;      // all resident pages
  uint64_t uss = 0;      // private resident pages (dirty + singly-mapped clean)
  double pss = 0.0;      // private + shared/refcount
  uint64_t swapped = 0;  // pages on the swap device

  double rss_mib() const { return ToMiB(rss); }
  double uss_mib() const { return ToMiB(uss); }
  double pss_mib() const { return pss / static_cast<double>(kMiB); }
};

// smaps-style view of one region.
struct RegionInfo {
  RegionId id = kInvalidRegionId;
  std::string name;
  RegionKind kind = RegionKind::kAnonymous;
  uint64_t size_bytes = 0;
  uint64_t private_dirty = 0;  // bytes
  uint64_t private_clean = 0;  // bytes (file pages mapped by exactly this process)
  uint64_t shared_clean = 0;   // bytes (file pages mapped by >1 process)
  uint64_t swapped = 0;        // bytes
  bool file_backed() const { return kind == RegionKind::kFileBacked; }
  // "Not modified": no page of the region was ever written by this process.
  bool never_written = true;
};

class VirtualAddressSpace {
 public:
  // Region names are a base name plus, optionally, an ordinal that Smaps()
  // appends ("v8_old/chunk" + 12). Spaces that map many short-lived regions
  // name them this way, so mapping one formats no string.
  static constexpr uint64_t kNoOrdinal = ~0ull;

  // `registry` may be null for processes that never map files. `node` is the
  // node's physical memory; null (or a zero budget) means infinite memory
  // and keeps every code path byte-identical to the pre-pressure model.
  explicit VirtualAddressSpace(SharedFileRegistry* registry,
                               PhysicalMemory* node = nullptr);
  ~VirtualAddressSpace();

  VirtualAddressSpace(const VirtualAddressSpace&) = delete;
  VirtualAddressSpace& operator=(const VirtualAddressSpace&) = delete;

  RegionId MapAnonymous(std::string_view name, uint64_t bytes, uint64_t ordinal = kNoOrdinal);
  // Maps the first `bytes` of `file` (defaults to the whole file).
  RegionId MapFile(std::string_view name, FileId file, uint64_t bytes = 0);
  void Unmap(RegionId region);

  // Faults pages of [offset, offset + len) in. `write` upgrades file pages to
  // private-dirty (COW). Returns what happened so callers can charge fault
  // costs. Offsets/lengths are byte-granular and internally page-rounded.
  TouchResult Touch(RegionId region, uint64_t offset, uint64_t len, bool write);

  // Gives resident pages of the range back to the OS (madvise(MADV_DONTNEED)).
  // Returns the number of pages released. Swapped pages are discarded too
  // (anonymous ranges lose their contents, which is fine for free heap pages).
  uint64_t Release(RegionId region, uint64_t offset, uint64_t len);

  // HotSpot-style decommit: same page effect as Release. Kept as a separate
  // verb so heap code reads like the real VM (commit/uncommit vs. madvise).
  uint64_t Protect(RegionId region, uint64_t offset, uint64_t len) {
    return Release(region, offset, len);
  }

  // §4.6 library unmap, OS side: releases every never-written file-backed
  // region that holds a clean page and shares none of its clean pages with
  // another mapping. Regions are decided one by one in creation order.
  // Returns pages released.
  uint64_t ReleaseUnsharedFileRegions();

  // Moves up to `max_pages` resident pages of the whole address space to the
  // swap device, scanning regions in map order without any knowledge of which
  // pages hold live data (this is the semantics-blind baseline of §5.6).
  // Returns pages swapped out.
  uint64_t SwapOutPages(uint64_t max_pages);

  // Bounded-swap variant used by node-level reclaim: dirty pages need a free
  // slot on the swap device and at most `max_swap_writes` of them are
  // written out; clean file pages drop for free (the kernel re-reads the
  // file on the next fault). Returns pages freed (the residency decrease);
  // `*swap_writes` (optional) receives the dirty-page count written to swap.
  uint64_t SwapOutPagesLimited(uint64_t max_pages, uint64_t max_swap_writes,
                               uint64_t* swap_writes);

  // Derived on query: O(clean words of the file-backed regions).
  MemoryUsage Usage() const;
  std::vector<RegionInfo> Smaps() const;

  uint64_t RegionSizeBytes(RegionId region) const;
  uint64_t ResidentPagesInRange(RegionId region, uint64_t offset, uint64_t len) const;
  // Whole-region residency from the incremental counters, O(1).
  uint64_t ResidentPagesInRegion(RegionId region) const;

  // O(1) aggregate accessors (all maintained incrementally).
  uint64_t resident_pages() const { return resident_pages_; }
  uint64_t swapped_pages() const { return swapped_pages_; }
  uint64_t RssBytes() const { return PagesToBytes(resident_pages_); }
  // USS = private dirty pages + clean file pages mapped by exactly this
  // mapping. Derived on query like Usage().
  uint64_t UssBytes() const;

  // Region storage: slots ever needed (live plus parked) and live regions.
  // Slots track the peak number of simultaneously live regions, not the
  // number of regions ever mapped.
  size_t region_slots() const { return slots_.size(); }
  size_t live_regions() const { return live_regions_; }

  // The node this space is attached to (null = infinite memory).
  PhysicalMemory* node() const { return node_; }
  // True once a commit failed terminally (the process is doomed; every later
  // commit in this space fails fast without touching the node).
  bool commit_denied() const { return commit_denied_; }
  // Registers the owner's emergency-relief hook (see PressureReliefHandler).
  void set_relief_handler(PressureReliefHandler* handler) { relief_ = handler; }
  PressureReliefHandler* relief_handler() const { return relief_; }

  // Registers (or clears, with null) the touch observer. At most one; the
  // fast path pays a single pointer compare when none is attached. Bumps the
  // residency epoch: callers that skip Touch on known-resident ranges must
  // re-verify, so that an attached observer sees every re-touch.
  void set_touch_listener(TouchListener* listener) {
    touch_listener_ = listener;
    ++residency_epoch_;
  }
  bool has_touch_listener() const { return touch_listener_ != nullptr; }

  // Changes whenever a resident page of this space may have left the
  // resident state (Release, Protect, Unmap, swap-out, node reclaim) and when
  // the touch observer changes. While it is unchanged, a range verified
  // all-resident in an anonymous region stays all-resident-dirty, so a write
  // Touch of it would fault nothing and change no state.
  uint64_t residency_epoch() const { return residency_epoch_; }
  bool RegionAnonymous(RegionId region) const {
    return GetRegion(region).kind == RegionKind::kAnonymous;
  }
  // True while `region` refers to a live (not yet unmapped) region. Lets
  // holders of recorded RegionIds validate them before range queries, which
  // hard-abort on dead regions.
  bool RegionLive(RegionId region) const {
    const uint64_t slot = SlotOf(region);
    return slot < slots_.size() && slots_[slot].id == region;
  }

 private:
  static constexpr uint32_t kNoSlot = ~0u;

  // The fields every Touch and residency probe reads come first.
  struct Region {
    RegionId id = kInvalidRegionId;  // kInvalidRegionId while the slot is parked
    // Incremental per-state page counts; transitions keep these exact.
    uint64_t dirty_pages = 0;
    uint64_t clean_pages = 0;
    uint64_t swapped_pages = 0;
    PageBitmap pages{0};
    RegionKind kind = RegionKind::kAnonymous;
    bool never_written = true;
    FileId file = kInvalidFileId;
    // Neighbours in the creation-ordered live list.
    uint32_t prev = kNoSlot;
    uint32_t next = kNoSlot;
    uint64_t ordinal = kNoOrdinal;
    std::string name;
  };

  static uint64_t SlotOf(RegionId region) { return region & 0xffffffffull; }

  // Claims a parked slot (or a new one), links it at the tail of the live
  // list, and gives it the next id.
  Region& NewRegion(std::string_view name, uint64_t ordinal, RegionKind kind, FileId file,
                    uint64_t pages);
  Region& GetRegion(RegionId region);
  const Region& GetRegion(RegionId region) const;

  // Calls fn(mapper_count, pages) for the pages `r` holds clean, grouped by
  // bitmap word: one call per word whose pages share a count, else one per
  // page. Stops once all of the region's clean pages were reported.
  template <typename Fn>
  void ForEachCleanCount(const Region& r, Fn&& fn) const;

  // Drops all pages of [first_page, last_page] (inclusive) to kNotPresent,
  // word-at-a-time. Returns the number of previously present (resident or
  // swapped) pages.
  uint64_t DropPageRange(Region& r, uint64_t first_page, uint64_t last_page);

  // Forwards a page-count transition to the attached node (no-op when
  // detached). Every resident/swapped counter update site calls this.
  void NodeDelta(int64_t resident_delta, int64_t swapped_delta) {
    if (node_ != nullptr) {
      node_->OnPagesDelta(resident_delta, swapped_delta);
    }
  }

  // Hard-abort helpers for API misuse: a silently clamped out-of-range touch
  // or a double decommit corrupts figure-level accounting, so these fail
  // loudly in every build type (unlike the NDEBUG-stripped asserts).
  [[noreturn]] static void DieOutOfRange(const char* op, RegionId region,
                                         uint64_t last_page, uint64_t num_pages);
  [[noreturn]] static void DieDeadRegion(RegionId region, size_t num_regions);

  SharedFileRegistry* registry_;
  PhysicalMemory* node_;
  PressureReliefHandler* relief_ = nullptr;
  TouchListener* touch_listener_ = nullptr;
  // Re-entrancy latch: while emergency relief runs, nested commit failures
  // (the relief GC's own touches) must not recurse into relief again.
  bool in_relief_ = false;
  // Sticky OOM: set on the first terminal commit failure. The owning process
  // is doomed (the platform kills it when the invocation surfaces), so later
  // touches fail fast instead of re-scanning a saturated node per fault.
  bool commit_denied_ = false;
  uint64_t residency_epoch_ = 0;
  // Region slots, live and parked. A RegionId indexes this directly.
  std::vector<Region> slots_;
  // Parked slots, most recently unmapped last (reused first).
  std::vector<uint32_t> parked_;
  // Creation-ordered live list (oldest first) over slots_.
  uint32_t head_ = kNoSlot;
  uint32_t tail_ = kNoSlot;
  size_t live_regions_ = 0;
  uint64_t next_sequence_ = 0;
  // Live file-backed regions' slots in creation order: the regions whose
  // shared-page terms a query derives.
  std::vector<uint32_t> file_slots_;
  // Address-space aggregates (sums of the per-region counters).
  uint64_t resident_pages_ = 0;
  uint64_t swapped_pages_ = 0;
  uint64_t clean_pages_ = 0;
};

}  // namespace desiccant

#endif  // DESICCANT_SRC_OS_VIRTUAL_MEMORY_H_
