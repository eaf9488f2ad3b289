// Node-wide registry of file-backed pages shared across simulated processes.
//
// Language runtimes map large shared objects (libjvm.so for HotSpot, the node
// binary for V8). When several instances of the same language run on a node,
// those clean file pages are shared: they appear in each process's RSS, are
// split across mappers in PSS, and drop out of USS entirely unless exactly one
// process maps them. This registry owns the per-page mapper refcounts that
// make USS/PSS computable.
//
// A refcount change touches only the registry: no other mapper is told. Each
// address space derives its shared-page USS/PSS terms when it is queried, by
// reading the refcounts of the pages it holds clean. To make that read cheap,
// the registry also keeps one value per 64-page bitmap word: the refcount
// shared by every page of the word, or 0 when the pages differ (or are all
// unmapped). Whole runtime images are faulted in word-aligned, so nearly every
// word is uniform and a query accounts for it in O(1); only words that
// staggered prefixes, partial releases or COW writes have split need a
// per-page read. Booting or tearing down a process therefore costs
// O(its own pages), however many other processes map the same file.
#ifndef DESICCANT_SRC_OS_SHARED_FILE_REGISTRY_H_
#define DESICCANT_SRC_OS_SHARED_FILE_REGISTRY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace desiccant {

using FileId = uint32_t;
inline constexpr FileId kInvalidFileId = ~0u;

class SharedFileRegistry {
 public:
  // Registers (or looks up) a file of the given size. Re-registering an
  // existing name with a different size is a hard error and aborts: two
  // runtimes disagreeing about an image's size would corrupt every refcount
  // derived from it.
  FileId RegisterFile(const std::string& name, uint64_t size_bytes);

  uint64_t FileSizeBytes(FileId file) const;
  uint64_t FilePageCount(FileId file) const;
  const std::string& FileName(FileId file) const;

  // A process faulted the pages of bitmap word `word` selected by `mask` (bit
  // i = page word * 64 + i) in clean: one more mapper for each. `mask` must be
  // non-empty and lie inside the file.
  void AddMappers(FileId file, uint64_t word, uint64_t mask);
  // A process dropped those pages (unmap, release, swap-out or COW upgrade).
  void RemoveMappers(FileId file, uint64_t word, uint64_t mask);

  // Single-page conveniences. Return the new refcount.
  uint32_t AddMapper(FileId file, uint64_t page_index);
  uint32_t RemoveMapper(FileId file, uint64_t page_index);

  uint32_t MapperCount(FileId file, uint64_t page_index) const;
  // Direct read access for query-time accounting: the per-page refcounts and
  // the per-word uniform refcount (0 = the word's pages differ).
  const uint32_t* PageRefcounts(FileId file) const;
  const uint32_t* WordRefcounts(FileId file) const;

 private:
  struct FileEntry {
    std::string name;
    uint64_t size_bytes = 0;
    std::vector<uint32_t> page_refcounts;
    std::vector<uint32_t> word_refcounts;
  };

  // Recomputes word `word`'s uniform refcount from its pages.
  static void RescanWord(FileEntry& entry, uint64_t word);

  std::vector<FileEntry> files_;
  std::unordered_map<std::string, FileId> by_name_;
};

}  // namespace desiccant

#endif  // DESICCANT_SRC_OS_SHARED_FILE_REGISTRY_H_
