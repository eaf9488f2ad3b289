#include "src/os/shared_file_registry.h"

#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/base/units.h"
#include "src/os/page_bitmap.h"

namespace desiccant {

FileId SharedFileRegistry::RegisterFile(const std::string& name, uint64_t size_bytes) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    const FileEntry& existing = files_[it->second];
    if (existing.size_bytes != size_bytes) {
      std::fprintf(stderr,
                   "SharedFileRegistry: file '%s' re-registered with size %" PRIu64
                   " but already registered with size %" PRIu64 "\n",
                   name.c_str(), size_bytes, existing.size_bytes);
      std::abort();
    }
    return it->second;
  }
  FileEntry entry;
  entry.name = name;
  entry.size_bytes = size_bytes;
  entry.page_refcounts.assign(BytesToPages(size_bytes), 0);
  files_.push_back(std::move(entry));
  const FileId id = static_cast<FileId>(files_.size() - 1);
  by_name_.emplace(name, id);
  return id;
}

uint64_t SharedFileRegistry::FileSizeBytes(FileId file) const {
  assert(file < files_.size());
  return files_[file].size_bytes;
}

uint64_t SharedFileRegistry::FilePageCount(FileId file) const {
  assert(file < files_.size());
  return files_[file].page_refcounts.size();
}

const std::string& SharedFileRegistry::FileName(FileId file) const {
  assert(file < files_.size());
  return files_[file].name;
}

void SharedFileRegistry::AddListener(FileId file, MapperListener* listener, uint64_t cookie) {
  assert(file < files_.size());
  files_[file].mappings.push_back(Mapping{listener, cookie});
}

void SharedFileRegistry::RemoveListener(FileId file, MapperListener* listener,
                                        uint64_t cookie) {
  assert(file < files_.size());
  auto& mappings = files_[file].mappings;
  for (size_t i = 0; i < mappings.size(); ++i) {
    if (mappings[i].listener == listener && mappings[i].cookie == cookie) {
      mappings[i] = mappings.back();
      mappings.pop_back();
      return;
    }
  }
  assert(false && "RemoveListener: mapping not registered");
}

void SharedFileRegistry::AddMappersBatch(FileId file, WordChange* changes, size_t count,
                                         MapperListener* skip, uint64_t skip_cookie) {
  if (count == 0) {
    return;
  }
  assert(file < files_.size());
  FileEntry& entry = files_[file];
  uint32_t* refs = entry.page_refcounts.data();
  for (size_t i = 0; i < count; ++i) {
    WordChange& ch = changes[i];
    assert(ch.mask != 0);
    if (ch.mask == ~0ull) {
      // Full word (the overwhelmingly common shape: whole shared images map
      // word-aligned): contiguous increment loop instead of a bit-scan. The
      // post-change counts are all equal exactly when the pre-change counts
      // all equal the first; OR-ing the differences keeps the loop free of
      // branches and compares, so it vectorises.
      assert(ch.base_page + PageBitmap::kPagesPerWord <= entry.page_refcounts.size());
      uint32_t* w = refs + ch.base_page;
      const uint32_t u0 = w[0];
      uint32_t diff = 0;
      for (uint64_t p = 0; p < PageBitmap::kPagesPerWord; ++p) {
        diff |= w[p] ^ u0;
        ++w[p];
      }
      ch.uniform = diff == 0 ? u0 + 1 : 0;
      continue;
    }
    uint32_t uniform = 0;
    bool first = true;
    ForEachSetBit(ch.mask, [&](uint64_t bit) {
      assert(ch.base_page + bit < entry.page_refcounts.size());
      const uint32_t c = ++refs[ch.base_page + bit];
      if (first) {
        uniform = c;
        first = false;
      } else if (c != uniform) {
        uniform = 0;
      }
    });
    ch.uniform = uniform;
  }
  Notify(entry, changes, count, +1, skip, skip_cookie);
}

void SharedFileRegistry::RemoveMappersBatch(FileId file, WordChange* changes, size_t count,
                                            MapperListener* skip, uint64_t skip_cookie) {
  if (count == 0) {
    return;
  }
  assert(file < files_.size());
  FileEntry& entry = files_[file];
  uint32_t* refs = entry.page_refcounts.data();
  for (size_t i = 0; i < count; ++i) {
    WordChange& ch = changes[i];
    assert(ch.mask != 0);
    if (ch.mask == ~0ull) {
      // Same vectorisable shape as AddMappersBatch's full-word loop.
      assert(ch.base_page + PageBitmap::kPagesPerWord <= entry.page_refcounts.size());
      uint32_t* w = refs + ch.base_page;
#ifndef NDEBUG
      for (uint64_t p = 0; p < PageBitmap::kPagesPerWord; ++p) {
        assert(w[p] > 0);
      }
#endif
      const uint32_t u0 = w[0];
      uint32_t diff = 0;
      for (uint64_t p = 0; p < PageBitmap::kPagesPerWord; ++p) {
        diff |= w[p] ^ u0;
        --w[p];
      }
      ch.uniform = diff == 0 ? u0 - 1 : 0;
      continue;
    }
    uint32_t uniform = 0;
    bool first = true;
    ForEachSetBit(ch.mask, [&](uint64_t bit) {
      assert(ch.base_page + bit < entry.page_refcounts.size());
      assert(refs[ch.base_page + bit] > 0);
      const uint32_t c = --refs[ch.base_page + bit];
      if (first) {
        uniform = c;
        first = false;
      } else if (c != uniform) {
        uniform = 0;
      }
    });
    ch.uniform = uniform;
  }
  Notify(entry, changes, count, -1, skip, skip_cookie);
}

uint32_t SharedFileRegistry::AddMappers(FileId file, uint64_t base_page, uint64_t mask,
                                        MapperListener* skip, uint64_t skip_cookie) {
  if (mask == 0) {
    return 0;
  }
  WordChange ch{base_page, mask, 0};
  AddMappersBatch(file, &ch, 1, skip, skip_cookie);
  return ch.uniform;
}

uint32_t SharedFileRegistry::RemoveMappers(FileId file, uint64_t base_page, uint64_t mask,
                                           MapperListener* skip, uint64_t skip_cookie) {
  if (mask == 0) {
    return 0;
  }
  WordChange ch{base_page, mask, 0};
  RemoveMappersBatch(file, &ch, 1, skip, skip_cookie);
  return ch.uniform;
}

uint32_t SharedFileRegistry::AddMapper(FileId file, uint64_t page_index, MapperListener* skip,
                                       uint64_t skip_cookie) {
  const uint64_t base = page_index & ~(PageBitmap::kPagesPerWord - 1);
  AddMappers(file, base, uint64_t{1} << (page_index - base), skip, skip_cookie);
  return files_[file].page_refcounts[page_index];
}

uint32_t SharedFileRegistry::RemoveMapper(FileId file, uint64_t page_index,
                                          MapperListener* skip, uint64_t skip_cookie) {
  const uint64_t base = page_index & ~(PageBitmap::kPagesPerWord - 1);
  RemoveMappers(file, base, uint64_t{1} << (page_index - base), skip, skip_cookie);
  return files_[file].page_refcounts[page_index];
}

uint32_t SharedFileRegistry::MapperCount(FileId file, uint64_t page_index) const {
  assert(file < files_.size());
  const auto& refs = files_[file].page_refcounts;
  assert(page_index < refs.size());
  return refs[page_index];
}

const uint32_t* SharedFileRegistry::PageRefcounts(FileId file) const {
  assert(file < files_.size());
  return files_[file].page_refcounts.data();
}

void SharedFileRegistry::Notify(const FileEntry& entry, const WordChange* changes,
                                size_t count, int delta, const MapperListener* skip,
                                uint64_t skip_cookie) {
  for (const Mapping& m : entry.mappings) {
    if (m.listener == skip && m.cookie == skip_cookie) {
      continue;
    }
    m.listener->OnMapperWordsChanged(m.cookie, changes, count, delta,
                                     entry.page_refcounts.data());
  }
}

}  // namespace desiccant
