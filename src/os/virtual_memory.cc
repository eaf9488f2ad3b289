#include "src/os/virtual_memory.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace desiccant {

namespace {

constexpr uint64_t kW = PageBitmap::kPagesPerWord;

// Calls fn(word_index, mask_of_range_bits) for each bitmap word overlapping
// the inclusive page range [first_page, last_page].
template <typename Fn>
void ForEachWordInRange(uint64_t first_page, uint64_t last_page, Fn&& fn) {
  const uint64_t first_word = first_page / kW;
  const uint64_t last_word = last_page / kW;
  for (uint64_t w = first_word; w <= last_word; ++w) {
    const uint64_t lo_bit = w == first_word ? first_page % kW : 0;
    const uint64_t hi_bit = w == last_word ? last_page % kW : kW - 1;
    fn(w, PageBitmap::RangeMask(lo_bit, hi_bit));
  }
}

uint64_t Popcount(uint64_t bits) { return static_cast<uint64_t>(std::popcount(bits)); }

}  // namespace

VirtualAddressSpace::VirtualAddressSpace(SharedFileRegistry* registry, PhysicalMemory* node)
    : registry_(registry), node_(node) {
  if (node_ != nullptr) {
    node_->Attach(this);
  }
}

VirtualAddressSpace::~VirtualAddressSpace() {
  while (head_ != kNoSlot) {
    Unmap(slots_[head_].id);
  }
  // Detach after the unmaps so every dropped page flowed back to the node.
  if (node_ != nullptr) {
    node_->Detach(this);
    node_ = nullptr;
  }
}

void VirtualAddressSpace::DieOutOfRange(const char* op, RegionId region, uint64_t last_page,
                                        uint64_t num_pages) {
  std::fprintf(stderr,
               "VirtualAddressSpace::%s out of range: page %llu of region %llu "
               "(%llu pages)\n",
               op, static_cast<unsigned long long>(last_page),
               static_cast<unsigned long long>(region),
               static_cast<unsigned long long>(num_pages));
  std::abort();
}

void VirtualAddressSpace::DieDeadRegion(RegionId region, size_t num_regions) {
  std::fprintf(stderr,
               "VirtualAddressSpace: access to dead or unknown region %llu "
               "(%zu regions mapped) — double Unmap/Decommit?\n",
               static_cast<unsigned long long>(region), num_regions);
  std::abort();
}

VirtualAddressSpace::Region& VirtualAddressSpace::NewRegion(std::string_view name,
                                                            uint64_t ordinal, RegionKind kind,
                                                            FileId file, uint64_t pages) {
  uint32_t slot;
  if (!parked_.empty()) {
    slot = parked_.back();
    parked_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Region& r = slots_[slot];
  r.id = (next_sequence_++ << 32) | slot;
  r.name.assign(name);  // reuses the parked name's capacity
  r.ordinal = ordinal;
  r.kind = kind;
  r.file = file;
  r.pages.Reset(pages);
  r.dirty_pages = 0;
  r.clean_pages = 0;
  r.swapped_pages = 0;
  r.never_written = true;
  r.prev = tail_;
  r.next = kNoSlot;
  if (tail_ != kNoSlot) {
    slots_[tail_].next = slot;
  } else {
    head_ = slot;
  }
  tail_ = slot;
  ++live_regions_;
  return r;
}

RegionId VirtualAddressSpace::MapAnonymous(std::string_view name, uint64_t bytes,
                                           uint64_t ordinal) {
  assert(bytes > 0);
  return NewRegion(name, ordinal, RegionKind::kAnonymous, kInvalidFileId, BytesToPages(bytes))
      .id;
}

RegionId VirtualAddressSpace::MapFile(std::string_view name, FileId file, uint64_t bytes) {
  assert(registry_ != nullptr);
  const uint64_t file_bytes = registry_->FileSizeBytes(file);
  if (bytes == 0) {
    bytes = file_bytes;
  }
  assert(bytes <= file_bytes);
  const Region& r =
      NewRegion(name, kNoOrdinal, RegionKind::kFileBacked, file, BytesToPages(bytes));
  file_slots_.push_back(static_cast<uint32_t>(SlotOf(r.id)));
  return r.id;
}

void VirtualAddressSpace::Unmap(RegionId region) {
  Region& r = GetRegion(region);
  const auto slot = static_cast<uint32_t>(SlotOf(region));
  if (r.kind == RegionKind::kFileBacked) {
    // The only per-page work: clean pages give their mapper reference back.
    uint64_t clean_left = r.clean_pages;
    for (uint64_t w = 0; clean_left != 0; ++w) {
      const uint64_t clean = r.pages.lo(w) & ~r.pages.hi(w);
      if (clean != 0) {
        registry_->RemoveMappers(r.file, w, clean);
        clean_left -= Popcount(clean);
      }
    }
    file_slots_.erase(std::find(file_slots_.begin(), file_slots_.end(), slot));
  }
  const uint64_t resident = r.dirty_pages + r.clean_pages;
  resident_pages_ -= resident;
  swapped_pages_ -= r.swapped_pages;
  clean_pages_ -= r.clean_pages;
  if (resident != 0 || r.swapped_pages != 0) {
    NodeDelta(-static_cast<int64_t>(resident), -static_cast<int64_t>(r.swapped_pages));
  }
  if (resident != 0) {
    ++residency_epoch_;
  }
  (r.prev != kNoSlot ? slots_[r.prev].next : head_) = r.next;
  (r.next != kNoSlot ? slots_[r.next].prev : tail_) = r.prev;
  // Park the slot: its bitmap and name storage serve the next mapping, which
  // resets them.
  r.id = kInvalidRegionId;
  r.name.clear();
  --live_regions_;
  parked_.push_back(slot);
}

TouchResult VirtualAddressSpace::Touch(RegionId region, uint64_t offset, uint64_t len,
                                       bool write) {
  TouchResult result;
  const uint64_t slot = SlotOf(region);
  {
    Region& r = GetRegion(region);
    if (len == 0) {
      return result;
    }
    const uint64_t last = (offset + len - 1) / kPageSize;
    if (last >= r.pages.num_pages()) {
      DieOutOfRange("Touch", region, last, r.pages.num_pages());
    }
    if (write) {
      r.never_written = false;
    }
  }
  const uint64_t first = offset / kPageSize;
  const uint64_t last = (offset + len - 1) / kPageSize;
  const bool file_backed = slots_[slot].kind == RegionKind::kFileBacked;
  const uint64_t first_word = first / kW;
  const uint64_t last_word = last / kW;
  for (uint64_t w = first_word; w <= last_word; ++w) {
    const uint64_t lo_bit = w == first_word ? first % kW : 0;
    const uint64_t hi_bit = w == last_word ? last % kW : kW - 1;
    const uint64_t mask = PageBitmap::RangeMask(lo_bit, hi_bit);
    for (int attempt = 0;; ++attempt) {
      // Re-resolved each attempt: emergency relief below may run arbitrary
      // GC work against this very address space, so after it returns both
      // the slot vector and this word's bits must be re-read.
      Region& r = slots_[slot];
      uint64_t& lo = r.pages.lo(w);
      uint64_t& hi = r.pages.hi(w);
      const uint64_t np = ~lo & ~hi & mask;     // kNotPresent
      const uint64_t swapped = lo & hi & mask;  // kSwapped
      const uint64_t clean = file_backed && write ? lo & ~hi & mask : 0;
      if ((np | swapped | clean) == 0) {
        break;
      }
      // Commit gate: this word materializes `need` new resident pages (COW
      // upgrades were already resident). With no node attached — or a zero
      // budget — the gate is skipped and the transition below is
      // byte-identical to the pre-pressure model.
      const uint64_t need = Popcount(np) + Popcount(swapped);
      if (node_ != nullptr && need != 0) {
        // Sticky denial: once a commit failed for good this address space is
        // doomed (its owner is about to be OOM-killed); later touches fail
        // immediately instead of re-running the node's reclaim ladder.
        if (commit_denied_) {
          result.failed_pages += need;
          return result;
        }
        const CommitOutcome grant = node_->RequestPages(need, this);
        result.direct_reclaim_pages += grant.direct_reclaim_pages;
        if (grant.result == CommitResult::kNoMemory) {
          if (attempt == 0 && relief_ != nullptr && !in_relief_) {
            in_relief_ = true;
            const bool ran = relief_->RelievePressure();
            in_relief_ = false;
            if (ran) {
              continue;  // recompute the masks, retry the gate once
            }
          }
          // Out of memory for real: this word (and the rest of the range)
          // stays untouched; the caller sees commit_failed().
          commit_denied_ = true;
          result.failed_pages += need;
          return result;
        }
      }
      const uint64_t n_np = Popcount(np);
      const uint64_t n_sw = Popcount(swapped);
      if (file_backed && !write) {
        // NotPresent -> Clean (shared with the page cache), Swapped -> Dirty
        // (a swapped file page was COW'd before it went to swap).
        if (np != 0) {
          registry_->AddMappers(r.file, w, np);
        }
        result.minor_faults += n_np;
        result.swap_ins += n_sw;
        r.clean_pages += n_np;
        clean_pages_ += n_np;
        r.dirty_pages += n_sw;
        r.swapped_pages -= n_sw;
        resident_pages_ += n_np + n_sw;
        swapped_pages_ -= n_sw;
        NodeDelta(static_cast<int64_t>(n_np + n_sw), -static_cast<int64_t>(n_sw));
        lo = (lo | np) & ~swapped;
      } else if (file_backed) {
        // write: NotPresent -> Dirty, Clean -> Dirty (COW), Swapped -> Dirty.
        const uint64_t n_cl = Popcount(clean);
        if (clean != 0) {
          registry_->RemoveMappers(r.file, w, clean);
        }
        result.minor_faults += n_np;
        result.swap_ins += n_sw;
        result.cow_faults += n_cl;
        r.clean_pages -= n_cl;
        clean_pages_ -= n_cl;
        r.dirty_pages += n_np + n_sw + n_cl;
        r.swapped_pages -= n_sw;
        resident_pages_ += n_np + n_sw;  // COW'd pages were already resident
        swapped_pages_ -= n_sw;
        NodeDelta(static_cast<int64_t>(n_np + n_sw), -static_cast<int64_t>(n_sw));
        hi |= np | clean;
        lo &= ~(swapped | clean);
      } else {
        // Anonymous: reads and writes both materialize private dirty pages.
        result.minor_faults += n_np;
        result.swap_ins += n_sw;
        r.dirty_pages += n_np + n_sw;
        r.swapped_pages -= n_sw;
        resident_pages_ += n_np + n_sw;
        swapped_pages_ -= n_sw;
        NodeDelta(static_cast<int64_t>(n_np + n_sw), -static_cast<int64_t>(n_sw));
        hi |= np;
        lo &= ~swapped;
      }
      break;
    }
  }
  if (touch_listener_ != nullptr) {
    // Touched pages, not just faulted ones: a REAP working set must cover
    // re-touches of already-resident pages too, or the prefetch would miss
    // everything the runtime kept warm across invocations.
    touch_listener_->OnTouch(region, first, last - first + 1);
  }
  return result;
}

uint64_t VirtualAddressSpace::Release(RegionId region, uint64_t offset, uint64_t len) {
  Region& r = GetRegion(region);
  if (len == 0) {
    return 0;
  }
  // Only whole pages strictly inside the range can be given back; this models
  // the page-alignment loss the paper attributes the Java Desiccant-vs-ideal
  // gap to (§5.2).
  const uint64_t first_byte = PageAlignUp(offset);
  const uint64_t last_byte = PageAlignDown(offset + len);
  if (first_byte >= last_byte) {
    return 0;
  }
  const uint64_t first = first_byte / kPageSize;
  const uint64_t last = last_byte / kPageSize;  // exclusive
  if (last > r.pages.num_pages()) {
    DieOutOfRange("Release", region, last - 1, r.pages.num_pages());
  }
  return DropPageRange(r, first, last - 1);
}

uint64_t VirtualAddressSpace::ReleaseUnsharedFileRegions() {
  uint64_t released = 0;
  for (const uint32_t slot : file_slots_) {
    Region& r = slots_[slot];
    if (!r.never_written || r.clean_pages == 0) {
      continue;
    }
    bool shared = false;
    ForEachCleanCount(r, [&](uint32_t count, uint64_t) { shared |= count >= 2; });
    if (shared) {
      continue;  // mapped by another process: leave it to sharing
    }
    released += DropPageRange(r, 0, r.pages.num_pages() - 1);
  }
  return released;
}

uint64_t VirtualAddressSpace::SwapOutPages(uint64_t max_pages) {
  // With a bounded swap device on the node, policy-driven swap (the blind
  // swap baseline, freeze images) competes for the same slots as reclaim:
  // dirty pages are capped by the free slots, clean file pages still drop
  // for free. Without a node — or with the model disabled — the device is
  // infinite, exactly as before the pressure model existed.
  const uint64_t swap_budget =
      (node_ != nullptr && node_->enabled()) ? node_->swap().FreePages() : ~0ull;
  return SwapOutPagesLimited(max_pages, swap_budget, nullptr);
}

uint64_t VirtualAddressSpace::SwapOutPagesLimited(uint64_t max_pages, uint64_t max_swap_writes,
                                                  uint64_t* swap_writes) {
  uint64_t reclaimed = 0;
  uint64_t written = 0;
  const auto scan = [&](Region& r) {
    for (uint64_t w = 0; w < r.pages.num_words() && reclaimed < max_pages; ++w) {
      if (written >= max_swap_writes && r.clean_pages == 0) {
        // The swap device is full and the region holds no clean file page
        // any more: nothing else in it can go.
        return;
      }
      uint64_t& lo = r.pages.lo(w);
      uint64_t& hi = r.pages.hi(w);
      uint64_t dirty = hi & ~lo;
      uint64_t clean = lo & ~hi;
      if ((dirty | clean) == 0) {
        continue;
      }
      // Dirty pages each need a free slot on the swap device; keep only the
      // first `swap_budget` of them in map order. Clean file pages are never
      // written to swap, so the device does not bound them.
      const uint64_t swap_budget = max_swap_writes - written;
      if (Popcount(dirty) > swap_budget) {
        uint64_t keep = dirty;
        for (uint64_t i = 0; i < swap_budget; ++i) {
          keep &= keep - 1;
        }
        dirty &= ~keep;
      }
      const uint64_t candidates = dirty | clean;
      if (candidates == 0) {
        continue;
      }
      const uint64_t budget = max_pages - reclaimed;
      if (Popcount(candidates) > budget) {
        // Partial word: keep only the first `budget` candidate pages in map
        // order (the blind scan stops mid-word).
        uint64_t keep = candidates;
        for (uint64_t i = 0; i < budget; ++i) {
          keep &= keep - 1;
        }
        dirty &= ~keep;
        clean &= ~keep;
      }
      // Dirty pages go to the swap device; clean file pages are not written
      // to swap — the kernel just drops them from the page cache and re-reads
      // the file on the next fault.
      if (clean != 0) {
        registry_->RemoveMappers(r.file, w, clean);
      }
      const uint64_t n_d = Popcount(dirty);
      const uint64_t n_c = Popcount(clean);
      r.clean_pages -= n_c;
      clean_pages_ -= n_c;
      r.dirty_pages -= n_d;
      r.swapped_pages += n_d;
      resident_pages_ -= n_d + n_c;
      swapped_pages_ += n_d;
      NodeDelta(-static_cast<int64_t>(n_d + n_c), static_cast<int64_t>(n_d));
      lo = (lo | dirty) & ~clean;
      reclaimed += n_d + n_c;
      written += n_d;
    }
  };
  // Regions in creation order while the swap device has room.
  uint32_t slot = head_;
  for (; slot != kNoSlot && reclaimed < max_pages && written < max_swap_writes;
       slot = slots_[slot].next) {
    scan(slots_[slot]);
  }
  if (slot != kNoSlot && reclaimed < max_pages) {
    // The device is full: only clean file pages can still go, so the rest of
    // the walk visits the file-backed regions from `slot` on.
    const RegionId from = slots_[slot].id;
    auto it = std::lower_bound(file_slots_.begin(), file_slots_.end(), from,
                               [&](uint32_t s, RegionId id) { return slots_[s].id < id; });
    for (; it != file_slots_.end() && reclaimed < max_pages; ++it) {
      scan(slots_[*it]);
    }
  }
  if (reclaimed != 0) {
    ++residency_epoch_;
  }
  if (swap_writes != nullptr) {
    *swap_writes = written;
  }
  return reclaimed;
}

template <typename Fn>
void VirtualAddressSpace::ForEachCleanCount(const Region& r, Fn&& fn) const {
  if (r.clean_pages == 0) {
    return;
  }
  const uint32_t* word_counts = registry_->WordRefcounts(r.file);
  const uint32_t* page_counts = registry_->PageRefcounts(r.file);
  uint64_t seen = 0;
  for (uint64_t w = 0; w < r.pages.num_words(); ++w) {
    const uint64_t clean = r.pages.lo(w) & ~r.pages.hi(w);
    if (clean == 0) {
      continue;
    }
    const uint64_t n = Popcount(clean);
    if (word_counts[w] != 0) {
      fn(word_counts[w], n);
    } else {
      ForEachSetBit(clean, [&](uint64_t bit) { fn(page_counts[w * kW + bit], uint64_t{1}); });
    }
    seen += n;
    if (seen == r.clean_pages) {
      return;
    }
  }
}

uint64_t VirtualAddressSpace::UssBytes() const {
  uint64_t singly_mapped = 0;
  for (const uint32_t slot : file_slots_) {
    ForEachCleanCount(slots_[slot], [&](uint32_t count, uint64_t pages) {
      singly_mapped += count == 1 ? pages : 0;
    });
  }
  return PagesToBytes(resident_pages_ - clean_pages_ + singly_mapped);
}

MemoryUsage VirtualAddressSpace::Usage() const {
  // hist[c] = this space's clean pages whose file page has c mappers. Counts
  // past the inline buckets (more than 63 co-mappers) spill to the heap.
  constexpr uint32_t kInline = 64;
  uint64_t hist[kInline] = {};
  std::vector<uint64_t> spill;
  uint32_t max_count = 0;
  for (const uint32_t slot : file_slots_) {
    ForEachCleanCount(slots_[slot], [&](uint32_t count, uint64_t pages) {
      if (count < kInline) {
        hist[count] += pages;
      } else {
        if (count >= spill.size()) {
          spill.resize(count + 1, 0);
        }
        spill[count] += pages;
      }
      max_count = std::max(max_count, count);
    });
  }
  MemoryUsage usage;
  usage.rss = PagesToBytes(resident_pages_);
  usage.swapped = PagesToBytes(swapped_pages_);
  const uint64_t dirty_pages = resident_pages_ - clean_pages_;
  usage.uss = PagesToBytes(dirty_pages + hist[1]);
  // PSS's shared term, summed by ascending mapper count so the result does
  // not depend on region or page order.
  double pss = static_cast<double>(PagesToBytes(dirty_pages));
  for (uint32_t count = 1; count <= max_count; ++count) {
    const uint64_t pages = count < kInline ? hist[count] : spill[count];
    if (pages != 0) {
      pss += static_cast<double>(pages) *
             (static_cast<double>(kPageSize) / static_cast<double>(count));
    }
  }
  usage.pss = pss;
  return usage;
}

std::vector<RegionInfo> VirtualAddressSpace::Smaps() const {
  std::vector<RegionInfo> infos;
  infos.reserve(live_regions_);
  for (uint32_t slot = head_; slot != kNoSlot; slot = slots_[slot].next) {
    const Region& r = slots_[slot];
    RegionInfo info;
    info.id = r.id;
    info.name = r.ordinal == kNoOrdinal ? r.name : r.name + std::to_string(r.ordinal);
    info.kind = r.kind;
    info.size_bytes = PagesToBytes(r.pages.num_pages());
    info.never_written = r.never_written;
    info.private_dirty = PagesToBytes(r.dirty_pages);
    uint64_t shared_clean = 0;
    if (r.kind == RegionKind::kFileBacked) {
      ForEachCleanCount(r, [&](uint32_t count, uint64_t pages) {
        shared_clean += count >= 2 ? pages : 0;
      });
    }
    info.private_clean = PagesToBytes(r.clean_pages - shared_clean);
    info.shared_clean = PagesToBytes(shared_clean);
    info.swapped = PagesToBytes(r.swapped_pages);
    infos.push_back(std::move(info));
  }
  return infos;
}

uint64_t VirtualAddressSpace::RegionSizeBytes(RegionId region) const {
  return PagesToBytes(GetRegion(region).pages.num_pages());
}

uint64_t VirtualAddressSpace::ResidentPagesInRange(RegionId region, uint64_t offset,
                                                   uint64_t len) const {
  const Region& r = GetRegion(region);
  if (len == 0) {
    return 0;
  }
  const uint64_t first = offset / kPageSize;
  const uint64_t last = (offset + len - 1) / kPageSize;
  if (last >= r.pages.num_pages()) {
    DieOutOfRange("ResidentPagesInRange", region, last, r.pages.num_pages());
  }
  uint64_t resident = 0;
  ForEachWordInRange(first, last, [&](uint64_t w, uint64_t mask) {
    resident += Popcount((r.pages.lo(w) ^ r.pages.hi(w)) & mask);
  });
  return resident;
}

uint64_t VirtualAddressSpace::ResidentPagesInRegion(RegionId region) const {
  const Region& r = GetRegion(region);
  return r.dirty_pages + r.clean_pages;
}

VirtualAddressSpace::Region& VirtualAddressSpace::GetRegion(RegionId region) {
  if (!RegionLive(region)) {
    DieDeadRegion(region, live_regions_);
  }
  return slots_[SlotOf(region)];
}

const VirtualAddressSpace::Region& VirtualAddressSpace::GetRegion(RegionId region) const {
  if (!RegionLive(region)) {
    DieDeadRegion(region, live_regions_);
  }
  return slots_[SlotOf(region)];
}

uint64_t VirtualAddressSpace::DropPageRange(Region& r, uint64_t first_page,
                                            uint64_t last_page) {
  uint64_t dropped = 0;
  uint64_t dropped_resident = 0;
  ForEachWordInRange(first_page, last_page, [&](uint64_t w, uint64_t mask) {
    uint64_t& lo = r.pages.lo(w);
    uint64_t& hi = r.pages.hi(w);
    const uint64_t present = (lo | hi) & mask;
    if (present == 0) {
      return;
    }
    const uint64_t clean = lo & ~hi & mask;
    const uint64_t dirty = hi & ~lo & mask;
    const uint64_t swapped = lo & hi & mask;
    if (clean != 0) {
      registry_->RemoveMappers(r.file, w, clean);
    }
    const uint64_t n_d = Popcount(dirty);
    const uint64_t n_c = Popcount(clean);
    const uint64_t n_s = Popcount(swapped);
    r.clean_pages -= n_c;
    clean_pages_ -= n_c;
    r.dirty_pages -= n_d;
    r.swapped_pages -= n_s;
    resident_pages_ -= n_d + n_c;
    swapped_pages_ -= n_s;
    NodeDelta(-static_cast<int64_t>(n_d + n_c), -static_cast<int64_t>(n_s));
    lo &= ~mask;
    hi &= ~mask;
    dropped += n_d + n_c + n_s;
    dropped_resident += n_d + n_c;
  });
  if (dropped_resident != 0) {
    ++residency_epoch_;
  }
  return dropped;
}

}  // namespace desiccant
