// Differential oracle for the incremental memory accounting.
//
// The production VirtualAddressSpace keeps every USS/RSS/PSS/smaps quantity
// as incrementally maintained counters updated at page-state transition time.
// This test drives it together with a deliberately naive reference model that
// stores one PageState per page and recomputes every metric by brute-force
// rescan (the seed implementation's strategy). Tens of thousands of
// randomized, seeded operations across several processes sharing files must
// produce bit-identical integer metrics and FP-equal (to rounding) PSS at
// every step; any drift in a counter or bitmap transition shows up as an
// immediate mismatch with a reproducible seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/os/page.h"
#include "src/os/virtual_memory.h"

namespace desiccant {
namespace {

// ---------------------------------------------------------------------------
// Reference model: byte-per-page states, refcounts owned here, rescan queries.

class RefModel {
 public:
  struct File {
    uint64_t size_bytes = 0;
    std::vector<uint32_t> refs;
  };

  struct Region {
    std::string name;
    RegionKind kind = RegionKind::kAnonymous;
    FileId file = kInvalidFileId;
    std::vector<PageState> pages;
    bool never_written = true;
    bool live = true;
  };

  struct Process {
    std::vector<Region> regions;
  };

  FileId RegisterFile(uint64_t size_bytes) {
    File f;
    f.size_bytes = size_bytes;
    f.refs.assign(BytesToPages(size_bytes), 0);
    files_.push_back(std::move(f));
    return static_cast<FileId>(files_.size() - 1);
  }

  size_t AddProcess() {
    procs_.emplace_back();
    return procs_.size() - 1;
  }

  RegionId MapAnonymous(size_t proc, std::string name, uint64_t bytes) {
    Region r;
    r.name = std::move(name);
    r.pages.assign(BytesToPages(bytes), PageState::kNotPresent);
    procs_[proc].regions.push_back(std::move(r));
    return static_cast<RegionId>(procs_[proc].regions.size() - 1);
  }

  RegionId MapFile(size_t proc, std::string name, FileId file, uint64_t bytes) {
    if (bytes == 0) {
      bytes = files_[file].size_bytes;
    }
    Region r;
    r.name = std::move(name);
    r.kind = RegionKind::kFileBacked;
    r.file = file;
    r.pages.assign(BytesToPages(bytes), PageState::kNotPresent);
    procs_[proc].regions.push_back(std::move(r));
    return static_cast<RegionId>(procs_[proc].regions.size() - 1);
  }

  void Unmap(size_t proc, RegionId region) {
    Region& r = procs_[proc].regions[region];
    for (uint64_t p = 0; p < r.pages.size(); ++p) {
      DropPage(r, p);
    }
    r.live = false;
  }

  TouchResult Touch(size_t proc, RegionId region, uint64_t offset, uint64_t len, bool write) {
    Region& r = procs_[proc].regions[region];
    TouchResult result;
    if (len == 0) {
      return result;
    }
    if (write) {
      r.never_written = false;
    }
    const uint64_t first = offset / kPageSize;
    const uint64_t last = (offset + len - 1) / kPageSize;
    for (uint64_t p = first; p <= last; ++p) {
      PageState& state = r.pages[p];
      if (r.kind == RegionKind::kAnonymous) {
        if (state == PageState::kNotPresent) {
          state = PageState::kResidentDirty;
          ++result.minor_faults;
        } else if (state == PageState::kSwapped) {
          state = PageState::kResidentDirty;
          ++result.swap_ins;
        }
      } else if (!write) {
        if (state == PageState::kNotPresent) {
          state = PageState::kResidentClean;
          ++files_[r.file].refs[p];
          ++result.minor_faults;
        } else if (state == PageState::kSwapped) {
          state = PageState::kResidentDirty;  // was COW'd before swap-out
          ++result.swap_ins;
        }
      } else {
        if (state == PageState::kNotPresent) {
          state = PageState::kResidentDirty;
          ++result.minor_faults;
        } else if (state == PageState::kSwapped) {
          state = PageState::kResidentDirty;
          ++result.swap_ins;
        } else if (state == PageState::kResidentClean) {
          state = PageState::kResidentDirty;
          --files_[r.file].refs[p];
          ++result.cow_faults;
        }
      }
    }
    return result;
  }

  uint64_t Release(size_t proc, RegionId region, uint64_t offset, uint64_t len) {
    Region& r = procs_[proc].regions[region];
    if (len == 0) {
      return 0;
    }
    const uint64_t first_byte = PageAlignUp(offset);
    const uint64_t last_byte = PageAlignDown(offset + len);
    if (first_byte >= last_byte) {
      return 0;
    }
    uint64_t dropped = 0;
    for (uint64_t p = first_byte / kPageSize; p < last_byte / kPageSize; ++p) {
      dropped += DropPage(r, p);
    }
    return dropped;
  }

  uint64_t SwapOutPages(size_t proc, uint64_t max_pages) {
    uint64_t reclaimed = 0;
    for (Region& r : procs_[proc].regions) {
      if (!r.live) {
        continue;
      }
      for (uint64_t p = 0; p < r.pages.size() && reclaimed < max_pages; ++p) {
        if (r.pages[p] == PageState::kResidentDirty) {
          r.pages[p] = PageState::kSwapped;
          ++reclaimed;
        } else if (r.pages[p] == PageState::kResidentClean) {
          r.pages[p] = PageState::kNotPresent;
          --files_[r.file].refs[p];
          ++reclaimed;
        }
      }
      if (reclaimed >= max_pages) {
        break;
      }
    }
    return reclaimed;
  }

  MemoryUsage Usage(size_t proc) const {
    MemoryUsage usage;
    for (const Region& r : procs_[proc].regions) {
      if (!r.live) {
        continue;
      }
      for (uint64_t p = 0; p < r.pages.size(); ++p) {
        switch (r.pages[p]) {
          case PageState::kResidentDirty:
            usage.rss += kPageSize;
            usage.uss += kPageSize;
            usage.pss += static_cast<double>(kPageSize);
            break;
          case PageState::kResidentClean: {
            const uint32_t count = files_[r.file].refs[p];
            usage.rss += kPageSize;
            if (count == 1) {
              usage.uss += kPageSize;
            }
            usage.pss += static_cast<double>(kPageSize) / static_cast<double>(count);
            break;
          }
          case PageState::kSwapped:
            usage.swapped += kPageSize;
            break;
          case PageState::kNotPresent:
            break;
        }
      }
    }
    return usage;
  }

  std::vector<RegionInfo> Smaps(size_t proc) const {
    std::vector<RegionInfo> infos;
    for (RegionId id = 0; id < procs_[proc].regions.size(); ++id) {
      const Region& r = procs_[proc].regions[id];
      if (!r.live) {
        continue;
      }
      RegionInfo info;
      info.id = id;
      info.name = r.name;
      info.kind = r.kind;
      info.size_bytes = PagesToBytes(r.pages.size());
      info.never_written = r.never_written;
      for (uint64_t p = 0; p < r.pages.size(); ++p) {
        switch (r.pages[p]) {
          case PageState::kResidentDirty:
            info.private_dirty += kPageSize;
            break;
          case PageState::kResidentClean:
            if (files_[r.file].refs[p] >= 2) {
              info.shared_clean += kPageSize;
            } else {
              info.private_clean += kPageSize;
            }
            break;
          case PageState::kSwapped:
            info.swapped += kPageSize;
            break;
          case PageState::kNotPresent:
            break;
        }
      }
      infos.push_back(std::move(info));
    }
    return infos;
  }

  uint64_t ResidentPagesInRange(size_t proc, RegionId region, uint64_t offset,
                                uint64_t len) const {
    const Region& r = procs_[proc].regions[region];
    if (len == 0) {
      return 0;
    }
    uint64_t resident = 0;
    const uint64_t first = offset / kPageSize;
    const uint64_t last = (offset + len - 1) / kPageSize;
    for (uint64_t p = first; p <= last; ++p) {
      if (IsResident(r.pages[p])) {
        ++resident;
      }
    }
    return resident;
  }

  const Process& process(size_t proc) const { return procs_[proc]; }

 private:
  uint64_t DropPage(Region& r, uint64_t p) {
    switch (r.pages[p]) {
      case PageState::kResidentClean:
        --files_[r.file].refs[p];
        [[fallthrough]];
      case PageState::kResidentDirty:
      case PageState::kSwapped:
        r.pages[p] = PageState::kNotPresent;
        return 1;
      case PageState::kNotPresent:
        return 0;
    }
    return 0;
  }

  std::vector<File> files_;
  std::vector<Process> procs_;
};

// ---------------------------------------------------------------------------
// Harness: apply identical ops to both models, compare everything.

class OracleHarness {
 public:
  explicit OracleHarness(uint64_t seed) : rng_(seed) {
    // A mix of file sizes, including one that doesn't fill its last bitmap
    // word and one that is not page-aligned.
    file_ids_.push_back(MakeFile("libjvm.so", 96 * kPageSize));
    file_ids_.push_back(MakeFile("node", 130 * kPageSize));
    file_ids_.push_back(MakeFile("libc.so", 17 * kPageSize + 123));
    for (int i = 0; i < kProcesses; ++i) {
      vas_.push_back(std::make_unique<VirtualAddressSpace>(&registry_));
      ref_.AddProcess();
    }
  }

  void RunOps(int ops) {
    for (int i = 0; i < ops; ++i) {
      Step();
      VerifyAll();
    }
  }

 private:
  static constexpr int kProcesses = 3;

  FileId MakeFile(const std::string& name, uint64_t bytes) {
    const FileId real = registry_.RegisterFile(name, bytes);
    const FileId ref = ref_.RegisterFile(bytes);
    EXPECT_EQ(real, ref);
    return real;
  }

  void Step() {
    const size_t proc = rng_.UniformU64(0, kProcesses - 1);
    const double roll = rng_.NextDouble();
    if (roll < 0.40) {
      TouchOp(proc);
    } else if (roll < 0.60) {
      ReleaseOp(proc);
    } else if (roll < 0.70) {
      SwapOp(proc);
    } else if (roll < 0.80) {
      MapFileOp(proc);
    } else if (roll < 0.90) {
      MapAnonymousOp(proc);
    } else {
      UnmapOp(proc);
    }
  }

  // Picks a live region of `proc`, or kInvalidRegionId if none.
  RegionId PickLiveRegion(size_t proc) {
    std::vector<RegionId> live;
    const auto& regions = ref_.process(proc).regions;
    for (RegionId id = 0; id < regions.size(); ++id) {
      if (regions[id].live) {
        live.push_back(id);
      }
    }
    if (live.empty()) {
      return kInvalidRegionId;
    }
    return live[rng_.UniformU64(0, live.size() - 1)];
  }

  void TouchOp(size_t proc) {
    const RegionId region = PickLiveRegion(proc);
    if (region == kInvalidRegionId) {
      MapAnonymousOp(proc);
      return;
    }
    const uint64_t size = vas_[proc]->RegionSizeBytes(region);
    const uint64_t offset = rng_.UniformU64(0, size - 1);
    const uint64_t len = rng_.UniformU64(0, size - offset);  // may be 0
    const bool write = rng_.Chance(0.5);
    const TouchResult got = vas_[proc]->Touch(region, offset, len, write);
    const TouchResult want = ref_.Touch(proc, region, offset, len, write);
    ASSERT_EQ(got.minor_faults, want.minor_faults);
    ASSERT_EQ(got.swap_ins, want.swap_ins);
    ASSERT_EQ(got.cow_faults, want.cow_faults);
  }

  void ReleaseOp(size_t proc) {
    const RegionId region = PickLiveRegion(proc);
    if (region == kInvalidRegionId) {
      return;
    }
    const uint64_t size = vas_[proc]->RegionSizeBytes(region);
    const uint64_t offset = rng_.UniformU64(0, size - 1);
    const uint64_t len = rng_.UniformU64(0, size - offset);
    ASSERT_EQ(vas_[proc]->Release(region, offset, len), ref_.Release(proc, region, offset, len));
  }

  void SwapOp(size_t proc) {
    const uint64_t max_pages = rng_.UniformU64(0, 96);
    ASSERT_EQ(vas_[proc]->SwapOutPages(max_pages), ref_.SwapOutPages(proc, max_pages));
  }

  void MapFileOp(size_t proc) {
    const FileId file = file_ids_[rng_.UniformU64(0, file_ids_.size() - 1)];
    // Whole file two thirds of the time, a prefix otherwise.
    uint64_t bytes = 0;
    if (rng_.Chance(1.0 / 3.0)) {
      bytes = rng_.UniformU64(1, registry_.FileSizeBytes(file));
    }
    const std::string name = "file" + std::to_string(serial_++);
    const RegionId got = vas_[proc]->MapFile(name, file, bytes);
    const RegionId want = ref_.MapFile(proc, name, file, bytes);
    ASSERT_EQ(got, want);
  }

  void MapAnonymousOp(size_t proc) {
    const uint64_t bytes = rng_.UniformU64(1, 150 * kPageSize);
    const std::string name = "anon" + std::to_string(serial_++);
    const RegionId got = vas_[proc]->MapAnonymous(name, bytes);
    const RegionId want = ref_.MapAnonymous(proc, name, bytes);
    ASSERT_EQ(got, want);
  }

  void UnmapOp(size_t proc) {
    const RegionId region = PickLiveRegion(proc);
    if (region == kInvalidRegionId) {
      return;
    }
    vas_[proc]->Unmap(region);
    ref_.Unmap(proc, region);
  }

  void VerifyAll() {
    for (size_t proc = 0; proc < vas_.size(); ++proc) {
      const MemoryUsage got = vas_[proc]->Usage();
      const MemoryUsage want = ref_.Usage(proc);
      ASSERT_EQ(got.rss, want.rss);
      ASSERT_EQ(got.uss, want.uss);
      ASSERT_EQ(got.swapped, want.swapped);
      // The incremental PSS multiplies histogram buckets where the rescan
      // sums page by page; identical real values, different FP association.
      ASSERT_NEAR(got.pss, want.pss, 1e-6 * want.pss + 1e-3);

      const auto got_smaps = vas_[proc]->Smaps();
      const auto want_smaps = ref_.Smaps(proc);
      ASSERT_EQ(got_smaps.size(), want_smaps.size());
      for (size_t i = 0; i < got_smaps.size(); ++i) {
        ASSERT_EQ(got_smaps[i].id, want_smaps[i].id);
        ASSERT_EQ(got_smaps[i].name, want_smaps[i].name);
        ASSERT_EQ(got_smaps[i].kind, want_smaps[i].kind);
        ASSERT_EQ(got_smaps[i].size_bytes, want_smaps[i].size_bytes);
        ASSERT_EQ(got_smaps[i].private_dirty, want_smaps[i].private_dirty);
        ASSERT_EQ(got_smaps[i].private_clean, want_smaps[i].private_clean);
        ASSERT_EQ(got_smaps[i].shared_clean, want_smaps[i].shared_clean);
        ASSERT_EQ(got_smaps[i].swapped, want_smaps[i].swapped);
        ASSERT_EQ(got_smaps[i].never_written, want_smaps[i].never_written);

        // Random sub-range residency probe against the popcount path.
        const uint64_t size = got_smaps[i].size_bytes;
        const uint64_t offset = rng_.UniformU64(0, size - 1);
        const uint64_t len = rng_.UniformU64(0, size - offset);
        ASSERT_EQ(vas_[proc]->ResidentPagesInRange(got_smaps[i].id, offset, len),
                  ref_.ResidentPagesInRange(proc, got_smaps[i].id, offset, len));
        ASSERT_EQ(vas_[proc]->ResidentPagesInRegion(got_smaps[i].id),
                  ref_.ResidentPagesInRange(proc, got_smaps[i].id, 0, size));
      }
    }
  }

  Rng rng_;
  SharedFileRegistry registry_;
  RefModel ref_;
  std::vector<std::unique_ptr<VirtualAddressSpace>> vas_;
  std::vector<FileId> file_ids_;
  uint64_t serial_ = 0;
};

TEST(OsOracleTest, TenThousandRandomOpsMatchBruteForce) {
  OracleHarness harness(/*seed=*/0xD5);
  harness.RunOps(10000);
}

TEST(OsOracleTest, SecondSeedMatchesBruteForce) {
  OracleHarness harness(/*seed=*/0xFEEDFACE);
  harness.RunOps(3000);
}

// ---------------------------------------------------------------------------
// Bounded swap with a full device: dirty pages have nowhere to go, so a region
// without clean file pages must come out of SwapOutPagesLimited untouched.

// Everything observable about a space: totals, per-region smaps, and the
// residency of every single page.
struct SpaceSnapshot {
  MemoryUsage usage;
  std::vector<RegionInfo> smaps;
  std::vector<uint64_t> resident_by_page;
};

SpaceSnapshot Snapshot(const VirtualAddressSpace& vas) {
  SpaceSnapshot snap;
  snap.usage = vas.Usage();
  snap.smaps = vas.Smaps();
  for (const RegionInfo& info : snap.smaps) {
    for (uint64_t off = 0; off < info.size_bytes; off += kPageSize) {
      snap.resident_by_page.push_back(vas.ResidentPagesInRange(info.id, off, kPageSize));
    }
  }
  return snap;
}

void ExpectSameSpace(const SpaceSnapshot& a, const SpaceSnapshot& b) {
  EXPECT_EQ(a.usage.rss, b.usage.rss);
  EXPECT_EQ(a.usage.uss, b.usage.uss);
  EXPECT_EQ(a.usage.pss, b.usage.pss);
  EXPECT_EQ(a.usage.swapped, b.usage.swapped);
  ASSERT_EQ(a.smaps.size(), b.smaps.size());
  for (size_t i = 0; i < a.smaps.size(); ++i) {
    EXPECT_EQ(a.smaps[i].private_dirty, b.smaps[i].private_dirty);
    EXPECT_EQ(a.smaps[i].private_clean, b.smaps[i].private_clean);
    EXPECT_EQ(a.smaps[i].shared_clean, b.smaps[i].shared_clean);
    EXPECT_EQ(a.smaps[i].swapped, b.smaps[i].swapped);
    EXPECT_EQ(a.smaps[i].never_written, b.smaps[i].never_written);
  }
  EXPECT_EQ(a.resident_by_page, b.resident_by_page);
}

TEST(OsOracleTest, FullSwapDeviceLeavesDirtyOnlyRegionsUntouched) {
  SharedFileRegistry registry;
  const FileId lib = registry.RegisterFile("libjvm.so", 96 * kPageSize);
  VirtualAddressSpace vas(&registry);
  const RegionId heap = vas.MapAnonymous("heap", 150 * kPageSize);
  ASSERT_EQ(vas.Touch(heap, 0, 150 * kPageSize, /*write=*/true).minor_faults, 150u);
  // A file mapping whose every page was written (COW): dirty, no clean page.
  const RegionId cow = vas.MapFile("cow", lib);
  vas.Touch(cow, 0, 96 * kPageSize, /*write=*/true);
  // A partly swapped region: some pages already on the device.
  const RegionId old_gen = vas.MapAnonymous("old", 64 * kPageSize);
  vas.Touch(old_gen, 0, 64 * kPageSize, /*write=*/true);
  ASSERT_EQ(vas.SwapOutPagesLimited(~0ull, 20, nullptr), 20u);
  const SpaceSnapshot before = Snapshot(vas);

  uint64_t writes = 99;
  EXPECT_EQ(vas.SwapOutPagesLimited(~0ull, 0, &writes), 0u);
  EXPECT_EQ(writes, 0u);
  ExpectSameSpace(before, Snapshot(vas));
}

TEST(OsOracleTest, FullSwapDeviceStillDropsCleanFilePages) {
  SharedFileRegistry registry;
  const FileId lib = registry.RegisterFile("node", 130 * kPageSize);
  VirtualAddressSpace vas(&registry);
  const RegionId heap = vas.MapAnonymous("heap", 40 * kPageSize);
  vas.Touch(heap, 0, 40 * kPageSize, /*write=*/true);
  const RegionId text = vas.MapFile("text", lib);
  vas.Touch(text, 0, 130 * kPageSize, /*write=*/false);
  vas.Touch(text, 0, 10 * kPageSize, /*write=*/true);  // 10 COW, 120 clean

  uint64_t writes = 99;
  EXPECT_EQ(vas.SwapOutPagesLimited(~0ull, 0, &writes), 120u);
  EXPECT_EQ(writes, 0u);
  EXPECT_EQ(vas.ResidentPagesInRegion(heap), 40u);
  EXPECT_EQ(vas.ResidentPagesInRegion(text), 10u);
  EXPECT_EQ(vas.Usage().swapped, 0u);
}

}  // namespace
}  // namespace desiccant
