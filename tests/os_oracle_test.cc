// Differential oracle for the memory accounting.
//
// The production VirtualAddressSpace keeps its page counts incrementally and
// derives the shared-page USS/PSS/smaps terms from the SharedFileRegistry's
// per-word refcount summaries when queried. This test drives it together with
// a deliberately naive reference model that stores one PageState per page and
// recomputes every metric by brute-force rescan (the seed implementation's
// strategy). Tens of thousands of randomized, seeded operations across
// several processes sharing files must produce bit-identical metrics at every
// step, PSS included (the reference sums its shared term by ascending mapper
// count, as the production query does); any drift in a counter, a bitmap
// transition or a word summary shows up as an immediate mismatch with a
// reproducible seed. Region ids are compared through a translation table:
// the model numbers regions 0, 1, 2, ... per process, the production space
// hands out (sequence, slot) ids, which must grow in creation order.
#include <gtest/gtest.h>

#include <algorithm>
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

  // Model region ids are indices into the process's region list.
  size_t MapAnonymous(size_t proc, std::string name, uint64_t bytes) {
    Region r;
    r.name = std::move(name);
    r.pages.assign(BytesToPages(bytes), PageState::kNotPresent);
    procs_[proc].regions.push_back(std::move(r));
    return procs_[proc].regions.size() - 1;
  }

  size_t MapFile(size_t proc, std::string name, FileId file, uint64_t bytes) {
    if (bytes == 0) {
      bytes = files_[file].size_bytes;
    }
    Region r;
    r.name = std::move(name);
    r.kind = RegionKind::kFileBacked;
    r.file = file;
    r.pages.assign(BytesToPages(bytes), PageState::kNotPresent);
    procs_[proc].regions.push_back(std::move(r));
    return procs_[proc].regions.size() - 1;
  }

  void Unmap(size_t proc, size_t region) {
    Region& r = procs_[proc].regions[region];
    for (uint64_t p = 0; p < r.pages.size(); ++p) {
      DropPage(r, p);
    }
    r.live = false;
  }

  TouchResult Touch(size_t proc, size_t region, uint64_t offset, uint64_t len, bool write) {
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

  uint64_t Release(size_t proc, size_t region, uint64_t offset, uint64_t len) {
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

  // Page by page in map order: a dirty page goes to swap while write slots
  // remain, a clean file page drops for free.
  uint64_t SwapOutPagesLimited(size_t proc, uint64_t max_pages, uint64_t max_writes) {
    uint64_t reclaimed = 0;
    uint64_t written = 0;
    for (Region& r : procs_[proc].regions) {
      if (!r.live) {
        continue;
      }
      for (uint64_t p = 0; p < r.pages.size() && reclaimed < max_pages; ++p) {
        if (r.pages[p] == PageState::kResidentDirty) {
          if (written < max_writes) {
            r.pages[p] = PageState::kSwapped;
            ++reclaimed;
            ++written;
          }
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
    // Clean pages by mapper count, summed into PSS by ascending count after
    // the rescan (the dirty bytes go first).
    std::vector<uint64_t> clean_by_count;
    for (const Region& r : procs_[proc].regions) {
      if (!r.live) {
        continue;
      }
      for (uint64_t p = 0; p < r.pages.size(); ++p) {
        switch (r.pages[p]) {
          case PageState::kResidentDirty:
            usage.rss += kPageSize;
            usage.uss += kPageSize;
            break;
          case PageState::kResidentClean: {
            const uint32_t count = files_[r.file].refs[p];
            usage.rss += kPageSize;
            if (count == 1) {
              usage.uss += kPageSize;
            }
            if (count >= clean_by_count.size()) {
              clean_by_count.resize(count + 1, 0);
            }
            ++clean_by_count[count];
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
    uint64_t clean_pages = 0;
    for (const uint64_t n : clean_by_count) {
      clean_pages += n;
    }
    usage.pss = static_cast<double>(usage.rss - PagesToBytes(clean_pages));
    for (uint32_t count = 1; count < clean_by_count.size(); ++count) {
      if (clean_by_count[count] != 0) {
        usage.pss += static_cast<double>(clean_by_count[count]) *
                     (static_cast<double>(kPageSize) / static_cast<double>(count));
      }
    }
    return usage;
  }

  // RegionInfo::id holds the model's region index.
  std::vector<RegionInfo> Smaps(size_t proc) const {
    std::vector<RegionInfo> infos;
    for (size_t id = 0; id < procs_[proc].regions.size(); ++id) {
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

  uint64_t ResidentPagesInRange(size_t proc, size_t region, uint64_t offset,
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

constexpr size_t kNoRegion = ~size_t{0};

class OracleHarness {
 public:
  OracleHarness(uint64_t seed, size_t processes) : rng_(seed) {
    for (size_t i = 0; i < processes; ++i) {
      vas_.push_back(std::make_unique<VirtualAddressSpace>(&registry_));
      ref_.AddProcess();
      ids_.emplace_back();
    }
  }

 protected:
  FileId MakeFile(const std::string& name, uint64_t bytes) {
    const FileId real = registry_.RegisterFile(name, bytes);
    const FileId ref = ref_.RegisterFile(bytes);
    EXPECT_EQ(real, ref);
    return real;
  }

  size_t processes() const { return vas_.size(); }

  // Picks a live region of `proc` (model index), or kNoRegion if none.
  size_t PickLiveRegion(size_t proc) {
    std::vector<size_t> live;
    const auto& regions = ref_.process(proc).regions;
    for (size_t id = 0; id < regions.size(); ++id) {
      if (regions[id].live) {
        live.push_back(id);
      }
    }
    if (live.empty()) {
      return kNoRegion;
    }
    return live[rng_.UniformU64(0, live.size() - 1)];
  }

  RegionId Real(size_t proc, size_t region) const { return ids_[proc][region]; }

  void Touch(size_t proc, size_t region, uint64_t offset, uint64_t len, bool write) {
    const TouchResult got = vas_[proc]->Touch(Real(proc, region), offset, len, write);
    const TouchResult want = ref_.Touch(proc, region, offset, len, write);
    ASSERT_EQ(got.minor_faults, want.minor_faults);
    ASSERT_EQ(got.swap_ins, want.swap_ins);
    ASSERT_EQ(got.cow_faults, want.cow_faults);
  }

  void Release(size_t proc, size_t region, uint64_t offset, uint64_t len) {
    ASSERT_EQ(vas_[proc]->Release(Real(proc, region), offset, len),
              ref_.Release(proc, region, offset, len));
  }

  void SwapOut(size_t proc, uint64_t max_pages, uint64_t max_writes) {
    ASSERT_EQ(vas_[proc]->SwapOutPagesLimited(max_pages, max_writes, nullptr),
              ref_.SwapOutPagesLimited(proc, max_pages, max_writes));
  }

  // Maps in both models and checks that the production id is fresh: larger
  // than every id the process was given before, and live.
  size_t MapFile(size_t proc, FileId file, uint64_t bytes) {
    const std::string name = "file" + std::to_string(serial_++);
    const RegionId got = vas_[proc]->MapFile(name, file, bytes);
    return Record(proc, got, ref_.MapFile(proc, name, file, bytes));
  }

  size_t MapAnonymous(size_t proc, uint64_t bytes) {
    const std::string name = "anon" + std::to_string(serial_++);
    const RegionId got = vas_[proc]->MapAnonymous(name, bytes);
    return Record(proc, got, ref_.MapAnonymous(proc, name, bytes));
  }

  void Unmap(size_t proc, size_t region) {
    vas_[proc]->Unmap(Real(proc, region));
    ref_.Unmap(proc, region);
    EXPECT_FALSE(vas_[proc]->RegionLive(Real(proc, region)));
  }

  void VerifyAll() {
    for (size_t proc = 0; proc < vas_.size(); ++proc) {
      const MemoryUsage got = vas_[proc]->Usage();
      const MemoryUsage want = ref_.Usage(proc);
      ASSERT_EQ(got.rss, want.rss);
      ASSERT_EQ(got.uss, want.uss);
      ASSERT_EQ(got.swapped, want.swapped);
      ASSERT_EQ(got.pss, want.pss);
      ASSERT_EQ(vas_[proc]->UssBytes(), want.uss);

      const auto got_smaps = vas_[proc]->Smaps();
      const auto want_smaps = ref_.Smaps(proc);
      ASSERT_EQ(got_smaps.size(), want_smaps.size());
      ASSERT_EQ(vas_[proc]->live_regions(), want_smaps.size());
      for (size_t i = 0; i < got_smaps.size(); ++i) {
        ASSERT_EQ(got_smaps[i].id, Real(proc, want_smaps[i].id));
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
                  ref_.ResidentPagesInRange(proc, want_smaps[i].id, offset, len));
        ASSERT_EQ(vas_[proc]->ResidentPagesInRegion(got_smaps[i].id),
                  ref_.ResidentPagesInRange(proc, want_smaps[i].id, 0, size));
      }
    }
  }

  Rng rng_;
  SharedFileRegistry registry_;
  RefModel ref_;
  std::vector<std::unique_ptr<VirtualAddressSpace>> vas_;

 private:
  size_t Record(size_t proc, RegionId got, size_t want) {
    EXPECT_EQ(want, ids_[proc].size());
    EXPECT_TRUE(vas_[proc]->RegionLive(got));
    if (!ids_[proc].empty()) {
      EXPECT_GT(got, ids_[proc].back());
    }
    ids_[proc].push_back(got);
    return want;
  }

  // ids_[proc][model index] = the production RegionId.
  std::vector<std::vector<RegionId>> ids_;
  uint64_t serial_ = 0;
};

// Random ops over three processes and three files of mixed shapes.
class RandomOpsHarness : public OracleHarness {
 public:
  explicit RandomOpsHarness(uint64_t seed) : OracleHarness(seed, 3) {
    // A mix of file sizes, including one that doesn't fill its last bitmap
    // word and one that is not page-aligned.
    file_ids_.push_back(MakeFile("libjvm.so", 96 * kPageSize));
    file_ids_.push_back(MakeFile("node", 130 * kPageSize));
    file_ids_.push_back(MakeFile("libc.so", 17 * kPageSize + 123));
  }

  void RunOps(int ops) {
    for (int i = 0; i < ops; ++i) {
      Step();
      VerifyAll();
    }
  }

 private:
  void Step() {
    const size_t proc = rng_.UniformU64(0, processes() - 1);
    const double roll = rng_.NextDouble();
    if (roll < 0.40) {
      TouchOp(proc);
    } else if (roll < 0.60) {
      ReleaseOp(proc);
    } else if (roll < 0.70) {
      SwapOut(proc, rng_.UniformU64(0, 96), ~0ull);
    } else if (roll < 0.80) {
      MapFileOp(proc);
    } else if (roll < 0.90) {
      MapAnonymousOp(proc);
    } else {
      UnmapOp(proc);
    }
  }

  void TouchOp(size_t proc) {
    const size_t region = PickLiveRegion(proc);
    if (region == kNoRegion) {
      MapAnonymousOp(proc);
      return;
    }
    const uint64_t size = vas_[proc]->RegionSizeBytes(Real(proc, region));
    const uint64_t offset = rng_.UniformU64(0, size - 1);
    const uint64_t len = rng_.UniformU64(0, size - offset);  // may be 0
    const bool write = rng_.Chance(0.5);
    Touch(proc, region, offset, len, write);
  }

  void ReleaseOp(size_t proc) {
    const size_t region = PickLiveRegion(proc);
    if (region == kNoRegion) {
      return;
    }
    const uint64_t size = vas_[proc]->RegionSizeBytes(Real(proc, region));
    const uint64_t offset = rng_.UniformU64(0, size - 1);
    const uint64_t len = rng_.UniformU64(0, size - offset);
    Release(proc, region, offset, len);
  }

  void MapFileOp(size_t proc) {
    const FileId file = file_ids_[rng_.UniformU64(0, file_ids_.size() - 1)];
    // Whole file two thirds of the time, a prefix otherwise.
    uint64_t bytes = 0;
    if (rng_.Chance(1.0 / 3.0)) {
      bytes = rng_.UniformU64(1, registry_.FileSizeBytes(file));
    }
    MapFile(proc, file, bytes);
  }

  void MapAnonymousOp(size_t proc) { MapAnonymous(proc, rng_.UniformU64(1, 150 * kPageSize)); }

  void UnmapOp(size_t proc) {
    const size_t region = PickLiveRegion(proc);
    if (region != kNoRegion) {
      Unmap(proc, region);
    }
  }

  std::vector<FileId> file_ids_;
};

TEST(OsOracleTest, TenThousandRandomOpsMatchBruteForce) {
  RandomOpsHarness harness(/*seed=*/0xD5);
  harness.RunOps(10000);
}

TEST(OsOracleTest, SecondSeedMatchesBruteForce) {
  RandomOpsHarness harness(/*seed=*/0xFEEDFACE);
  harness.RunOps(3000);
}

// Nine processes share one runtime image, each resident over a different
// prefix, the way ChainStudy's phantom sharer and staggered boots leave it:
// most words hold pages with different mapper counts, so queries take the
// per-page path as well as the uniform-word one. COW writes, releases, clean
// drops by bounded swap-out, and unmap/remap of the image keep splitting and
// re-joining words; every process's totals (PSS bit-equal) and per-region
// private/shared split must match the rescan after every op.
class StaggeredSharersHarness : public OracleHarness {
 public:
  static constexpr size_t kSharers = 9;
  static constexpr uint64_t kImagePages = 300;  // 4 full words + a 44-page tail

  explicit StaggeredSharersHarness(uint64_t seed) : OracleHarness(seed, kSharers) {
    image_ = MakeFile("node", kImagePages * kPageSize);
    for (size_t proc = 0; proc < kSharers; ++proc) {
      heap_.push_back(MapAnonymous(proc, 40 * kPageSize));
      Touch(proc, heap_[proc], 0, 40 * kPageSize, /*write=*/true);
      text_.push_back(MapFile(proc, image_, 0));
      // Staggered prefixes: 33, 66, ... 297 pages, none word-aligned.
      Touch(proc, text_[proc], 0, (proc + 1) * 33 * kPageSize, /*write=*/false);
    }
    VerifyAll();
  }

  void RunOps(int ops) {
    for (int i = 0; i < ops; ++i) {
      Step();
      VerifyAll();
    }
  }

 private:
  void Step() {
    const size_t proc = rng_.UniformU64(0, kSharers - 1);
    const uint64_t image_bytes = kImagePages * kPageSize;
    const uint64_t offset = rng_.UniformU64(0, image_bytes - 1);
    const uint64_t len = rng_.UniformU64(1, image_bytes - offset);
    const double roll = rng_.NextDouble();
    if (roll < 0.30) {
      // Read faults: extend or refill a stretch of the image.
      Touch(proc, text_[proc], offset, len, /*write=*/false);
    } else if (roll < 0.42) {
      // A COW write of a few pages.
      Touch(proc, text_[proc], offset, std::min<uint64_t>(len, 5 * kPageSize),
            /*write=*/true);
    } else if (roll < 0.57) {
      Release(proc, text_[proc], offset, len);
    } else if (roll < 0.72) {
      // Clean drops only (the swap device is full), or a few dirty writes.
      SwapOut(proc, rng_.UniformU64(1, 200), rng_.Chance(0.5) ? 0 : rng_.UniformU64(1, 8));
    } else if (roll < 0.80) {
      Release(proc, heap_[proc], 0, rng_.UniformU64(1, 40) * kPageSize);
      Touch(proc, heap_[proc], 0, 40 * kPageSize, /*write=*/true);
    } else if (roll < 0.90) {
      // Unmap and remap the image; the fresh mapping faults a random prefix.
      Unmap(proc, text_[proc]);
      text_[proc] = MapFile(proc, image_, 0);
      Touch(proc, text_[proc], 0, rng_.UniformU64(1, image_bytes), /*write=*/false);
    } else {
      // Whole-image read: with all sharers resident, words turn uniform.
      Touch(proc, text_[proc], 0, image_bytes, /*write=*/false);
    }
  }

  FileId image_ = kInvalidFileId;
  std::vector<size_t> heap_;
  std::vector<size_t> text_;
};

TEST(OsOracleTest, StaggeredSharersMatchBruteForce) {
  StaggeredSharersHarness harness(/*seed=*/0x5EED08);
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
