#include "src/os/shared_file_registry.h"

#include <algorithm>
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
  entry.word_refcounts.assign(
      (entry.page_refcounts.size() + PageBitmap::kPagesPerWord - 1) / PageBitmap::kPagesPerWord,
      0);
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

void SharedFileRegistry::AddMappers(FileId file, uint64_t word, uint64_t mask) {
  assert(file < files_.size());
  assert(mask != 0);
  FileEntry& entry = files_[file];
  const uint64_t base = word * PageBitmap::kPagesPerWord;
  uint32_t* w = entry.page_refcounts.data() + base;
  if (mask == ~0ull) {
    // Full word (the overwhelmingly common shape: whole shared images map
    // word-aligned): contiguous increment loop instead of a bit-scan. The
    // post-change counts are all equal exactly when the pre-change counts
    // all equal the first; OR-ing the differences keeps the loop free of
    // branches and compares, so it vectorises.
    assert(base + PageBitmap::kPagesPerWord <= entry.page_refcounts.size());
    const uint32_t u0 = w[0];
    uint32_t diff = 0;
    for (uint64_t p = 0; p < PageBitmap::kPagesPerWord; ++p) {
      diff |= w[p] ^ u0;
      ++w[p];
    }
    entry.word_refcounts[word] = diff == 0 ? u0 + 1 : 0;
    return;
  }
  ForEachSetBit(mask, [&](uint64_t bit) {
    assert(base + bit < entry.page_refcounts.size());
    ++w[bit];
  });
  RescanWord(entry, word);
}

void SharedFileRegistry::RemoveMappers(FileId file, uint64_t word, uint64_t mask) {
  assert(file < files_.size());
  assert(mask != 0);
  FileEntry& entry = files_[file];
  const uint64_t base = word * PageBitmap::kPagesPerWord;
  uint32_t* w = entry.page_refcounts.data() + base;
  if (mask == ~0ull) {
    // Same vectorisable shape as AddMappers' full-word loop.
    assert(base + PageBitmap::kPagesPerWord <= entry.page_refcounts.size());
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
    entry.word_refcounts[word] = diff == 0 ? u0 - 1 : 0;
    return;
  }
  ForEachSetBit(mask, [&](uint64_t bit) {
    assert(base + bit < entry.page_refcounts.size());
    assert(w[bit] > 0);
    --w[bit];
  });
  RescanWord(entry, word);
}

void SharedFileRegistry::RescanWord(FileEntry& entry, uint64_t word) {
  const uint64_t base = word * PageBitmap::kPagesPerWord;
  const uint64_t n = std::min<uint64_t>(PageBitmap::kPagesPerWord,
                                        entry.page_refcounts.size() - base);
  const uint32_t* w = entry.page_refcounts.data() + base;
  const uint32_t u0 = w[0];
  uint32_t diff = 0;
  for (uint64_t p = 0; p < n; ++p) {
    diff |= w[p] ^ u0;
  }
  entry.word_refcounts[word] = diff == 0 ? u0 : 0;
}

uint32_t SharedFileRegistry::AddMapper(FileId file, uint64_t page_index) {
  const uint64_t word = page_index / PageBitmap::kPagesPerWord;
  AddMappers(file, word, uint64_t{1} << (page_index % PageBitmap::kPagesPerWord));
  return files_[file].page_refcounts[page_index];
}

uint32_t SharedFileRegistry::RemoveMapper(FileId file, uint64_t page_index) {
  const uint64_t word = page_index / PageBitmap::kPagesPerWord;
  RemoveMappers(file, word, uint64_t{1} << (page_index % PageBitmap::kPagesPerWord));
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

const uint32_t* SharedFileRegistry::WordRefcounts(FileId file) const {
  assert(file < files_.size());
  return files_[file].word_refcounts.data();
}

}  // namespace desiccant
