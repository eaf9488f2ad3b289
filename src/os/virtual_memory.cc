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
  for (RegionId id = 0; id < regions_.size(); ++id) {
    if (regions_[id].live) {
      Unmap(id);
    }
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
               "VirtualAddressSpace::%s out of range: page %llu of region %u "
               "(%llu pages)\n",
               op, static_cast<unsigned long long>(last_page), region,
               static_cast<unsigned long long>(num_pages));
  std::abort();
}

void VirtualAddressSpace::DieDeadRegion(RegionId region, size_t num_regions) {
  std::fprintf(stderr,
               "VirtualAddressSpace: access to dead or unknown region %u "
               "(%zu regions mapped) — double Unmap/Decommit?\n",
               region, num_regions);
  std::abort();
}

RegionId VirtualAddressSpace::MapAnonymous(std::string name, uint64_t bytes) {
  assert(bytes > 0);
  Region r;
  r.name = std::move(name);
  r.kind = RegionKind::kAnonymous;
  r.pages = PageBitmap(BytesToPages(bytes));
  regions_.push_back(std::move(r));
  return static_cast<RegionId>(regions_.size() - 1);
}

RegionId VirtualAddressSpace::MapFile(std::string name, FileId file, uint64_t bytes) {
  assert(registry_ != nullptr);
  const uint64_t file_bytes = registry_->FileSizeBytes(file);
  if (bytes == 0) {
    bytes = file_bytes;
  }
  assert(bytes <= file_bytes);
  Region r;
  r.name = std::move(name);
  r.kind = RegionKind::kFileBacked;
  r.file = file;
  r.pages = PageBitmap(BytesToPages(bytes));
  regions_.push_back(std::move(r));
  const RegionId id = static_cast<RegionId>(regions_.size() - 1);
  registry_->AddListener(file, this, id);
  return id;
}

void VirtualAddressSpace::Unmap(RegionId region) {
  Region& r = GetRegion(region);
  if (r.pages.num_pages() > 0) {
    DropPageRange(r, region, 0, r.pages.num_pages() - 1);
  }
  if (r.kind == RegionKind::kFileBacked) {
    registry_->RemoveListener(r.file, this, region);
  }
  r.live = false;
}

TouchResult VirtualAddressSpace::Touch(RegionId region, uint64_t offset, uint64_t len,
                                       bool write) {
  TouchResult result;
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
  const bool file_backed = regions_[region].kind == RegionKind::kFileBacked;
  const uint64_t first_word = first / kW;
  const uint64_t last_word = last / kW;
  for (uint64_t w = first_word; w <= last_word; ++w) {
    const uint64_t lo_bit = w == first_word ? first % kW : 0;
    const uint64_t hi_bit = w == last_word ? last % kW : kW - 1;
    const uint64_t mask = PageBitmap::RangeMask(lo_bit, hi_bit);
    for (int attempt = 0;; ++attempt) {
      // Re-resolved each attempt: emergency relief below may run arbitrary
      // GC work against this very address space, so after it returns both
      // the regions vector and this word's bits must be re-read.
      Region& r = regions_[region];
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
        // The gate can run the node's reclaim ladder (which reads other
        // spaces' accounting) and, below, emergency relief (which re-enters
        // THIS space); queued clean-page words from earlier iterations must
        // be settled before either can look.
        if (file_backed) {
          if (write) {
            FlushCleanDropped(r, region);
          } else {
            FlushCleanMapped(r, region);
          }
        }
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
        QueueCleanWord(w, np);
        result.minor_faults += n_np;
        result.swap_ins += n_sw;
        r.dirty_pages += n_sw;
        r.swapped_pages -= n_sw;
        resident_pages_ += n_np + n_sw;
        swapped_pages_ -= n_sw;
        NodeDelta(static_cast<int64_t>(n_np + n_sw), -static_cast<int64_t>(n_sw));
        lo = (lo | np) & ~swapped;
      } else if (file_backed) {
        // write: NotPresent -> Dirty, Clean -> Dirty (COW), Swapped -> Dirty.
        const uint64_t n_cl = Popcount(clean);
        QueueCleanWord(w, clean);
        result.minor_faults += n_np;
        result.swap_ins += n_sw;
        result.cow_faults += n_cl;
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
  if (file_backed) {
    Region& r = regions_[region];
    if (write) {
      FlushCleanDropped(r, region);
    } else {
      FlushCleanMapped(r, region);
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
  return DropPageRange(r, region, first, last - 1);
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
  for (RegionId id = 0; id < regions_.size() && reclaimed < max_pages; ++id) {
    Region& r = regions_[id];
    if (!r.live) {
      continue;
    }
    if (written >= max_swap_writes && r.clean_pages == 0) {
      // The swap device is full and the region holds no clean file page:
      // nothing in it can go, so skip the word scan.
      continue;
    }
    for (uint64_t w = 0; w < r.pages.num_words() && reclaimed < max_pages; ++w) {
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
      QueueCleanWord(w, clean);
      const uint64_t n_d = Popcount(dirty);
      const uint64_t n_c = Popcount(clean);
      r.dirty_pages -= n_d;
      r.swapped_pages += n_d;
      resident_pages_ -= n_d + n_c;
      swapped_pages_ += n_d;
      NodeDelta(-static_cast<int64_t>(n_d + n_c), static_cast<int64_t>(n_d));
      lo = (lo | dirty) & ~clean;
      reclaimed += n_d + n_c;
      written += n_d;
    }
    FlushCleanDropped(r, id);
  }
  if (reclaimed != 0) {
    ++residency_epoch_;
  }
  if (swap_writes != nullptr) {
    *swap_writes = written;
  }
  return reclaimed;
}

MemoryUsage VirtualAddressSpace::Usage() const {
  MemoryUsage usage;
  usage.rss = PagesToBytes(resident_pages_);
  usage.swapped = PagesToBytes(swapped_pages_);
  const uint64_t dirty_pages = resident_pages_ - clean_pages_;
  usage.uss = PagesToBytes(dirty_pages + SinglyMappedCleanPages());
  double pss = static_cast<double>(PagesToBytes(dirty_pages));
  for (uint32_t count = 1; count < clean_hist_.size(); ++count) {
    if (clean_hist_[count] != 0) {
      pss += static_cast<double>(clean_hist_[count]) *
             (static_cast<double>(kPageSize) / static_cast<double>(count));
    }
  }
  usage.pss = pss;
  return usage;
}

std::vector<RegionInfo> VirtualAddressSpace::Smaps() const {
  std::vector<RegionInfo> infos;
  for (RegionId id = 0; id < regions_.size(); ++id) {
    const Region& r = regions_[id];
    if (!r.live) {
      continue;
    }
    RegionInfo info;
    info.id = id;
    info.name = r.name;
    info.kind = r.kind;
    info.size_bytes = PagesToBytes(r.pages.num_pages());
    info.never_written = r.never_written;
    info.private_dirty = PagesToBytes(r.dirty_pages);
    info.private_clean = PagesToBytes(r.clean_pages - r.shared_clean_pages);
    info.shared_clean = PagesToBytes(r.shared_clean_pages);
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
  if (region >= regions_.size() || !regions_[region].live) {
    DieDeadRegion(region, regions_.size());
  }
  return regions_[region];
}

const VirtualAddressSpace::Region& VirtualAddressSpace::GetRegion(RegionId region) const {
  if (region >= regions_.size() || !regions_[region].live) {
    DieDeadRegion(region, regions_.size());
  }
  return regions_[region];
}

void VirtualAddressSpace::OnMapperWordsChanged(uint64_t cookie,
                                               const SharedFileRegistry::WordChange* changes,
                                               size_t count, int delta,
                                               const uint32_t* page_refcounts) {
  Region& r = regions_[cookie];
  if (!r.live) {
    return;
  }
  const uint64_t num_words = r.pages.num_words();
  // Shared-image fast path: a region whose every page is resident-clean (the
  // steady state of a mapped runtime image) has lo = all-ones / hi = 0 for
  // every fully-covered word, so `affected` is the change mask itself — no
  // need to pull the word's two bitmap cache lines per notification.
  const bool fully_clean = r.dirty_pages == 0 && r.swapped_pages == 0 &&
                           r.clean_pages == r.pages.num_pages();
  const uint64_t full_words = r.pages.num_pages() / PageBitmap::kPagesPerWord;
  for (size_t i = 0; i < count; ++i) {
    const SharedFileRegistry::WordChange& ch = changes[i];
    const uint64_t word = ch.base_page / PageBitmap::kPagesPerWord;
    uint64_t affected;
    if (fully_clean && word < full_words) {
      affected = ch.mask;
    } else {
      if (word >= num_words) {
        continue;
      }
      // Only the pages we currently hold clean contribute to our USS/PSS
      // terms.
      affected = r.pages.lo(word) & ~r.pages.hi(word) & ch.mask;
    }
    if (affected == 0) {
      continue;
    }
    if (ch.uniform != 0) {
      // Every changed page landed on the same count: account for the whole
      // word at once.
      const uint32_t new_count = ch.uniform;
      const uint32_t old_count =
          static_cast<uint32_t>(static_cast<int64_t>(new_count) - delta);
      assert(old_count >= 1 && new_count >= 1);
      const uint64_t n = Popcount(affected);
      HistRemove(old_count, n);
      HistAdd(new_count, n);
      if (old_count == 1 && new_count == 2) {
        r.shared_clean_pages += n;
        shared_clean_pages_ += n;
      } else if (old_count == 2 && new_count == 1) {
        r.shared_clean_pages -= n;
        shared_clean_pages_ -= n;
      }
      continue;
    }
    ForEachSetBit(affected, [&](uint64_t bit) {
      const uint32_t new_count = page_refcounts[ch.base_page + bit];
      const uint32_t old_count =
          static_cast<uint32_t>(static_cast<int64_t>(new_count) - delta);
      // We hold one of the mappings, so the count can never drop to 0 under us.
      assert(old_count >= 1 && new_count >= 1);
      HistRemove(old_count);
      HistAdd(new_count);
      if (old_count == 1 && new_count == 2) {
        ++r.shared_clean_pages;
        ++shared_clean_pages_;
      } else if (old_count == 2 && new_count == 1) {
        --r.shared_clean_pages;
        --shared_clean_pages_;
      }
    });
  }
}

void VirtualAddressSpace::FlushCleanMapped(Region& r, RegionId region) {
  if (word_scratch_.empty()) {
    return;
  }
  registry_->AddMappersBatch(r.file, word_scratch_.data(), word_scratch_.size(), this,
                             region);
  const uint32_t* refs = registry_->PageRefcounts(r.file);
  uint64_t total = 0;
  uint64_t shared = 0;
  for (const SharedFileRegistry::WordChange& ch : word_scratch_) {
    const uint64_t n = Popcount(ch.mask);
    if (ch.uniform != 0) {
      HistAdd(ch.uniform, n);
      shared += ch.uniform >= 2 ? n : 0;
    } else {
      ForEachSetBit(ch.mask, [&](uint64_t bit) {
        const uint32_t count = refs[ch.base_page + bit];
        HistAdd(count);
        if (count >= 2) {
          ++shared;
        }
      });
    }
    total += n;
  }
  r.clean_pages += total;
  clean_pages_ += total;
  r.shared_clean_pages += shared;
  shared_clean_pages_ += shared;
  word_scratch_.clear();
}

void VirtualAddressSpace::FlushCleanDropped(Region& r, RegionId region) {
  if (word_scratch_.empty()) {
    return;
  }
  registry_->RemoveMappersBatch(r.file, word_scratch_.data(), word_scratch_.size(), this,
                                region);
  const uint32_t* refs = registry_->PageRefcounts(r.file);
  uint64_t total = 0;
  uint64_t shared = 0;
  for (const SharedFileRegistry::WordChange& ch : word_scratch_) {
    const uint64_t n = Popcount(ch.mask);
    if (ch.uniform != 0) {
      HistRemove(ch.uniform + 1, n);  // count before the drop
      shared += ch.uniform + 1 >= 2 ? n : 0;
    } else {
      ForEachSetBit(ch.mask, [&](uint64_t bit) {
        const uint32_t count = refs[ch.base_page + bit] + 1;  // count before the drop
        HistRemove(count);
        if (count >= 2) {
          ++shared;
        }
      });
    }
    total += n;
  }
  r.clean_pages -= total;
  clean_pages_ -= total;
  r.shared_clean_pages -= shared;
  shared_clean_pages_ -= shared;
  word_scratch_.clear();
}

uint64_t VirtualAddressSpace::DropPageRange(Region& r, RegionId region, uint64_t first_page,
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
    QueueCleanWord(w, clean);
    const uint64_t n_d = Popcount(dirty);
    const uint64_t n_c = Popcount(clean);
    const uint64_t n_s = Popcount(swapped);
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
  FlushCleanDropped(r, region);
  if (dropped_resident != 0) {
    ++residency_epoch_;
  }
  return dropped;
}

}  // namespace desiccant
