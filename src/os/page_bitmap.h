// Compact two-bitmap storage for per-page states.
#ifndef DESICCANT_SRC_OS_PAGE_BITMAP_H_
#define DESICCANT_SRC_OS_PAGE_BITMAP_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/os/page.h"

namespace desiccant {

// Packs one PageState (2 bits) per 4 KiB page into a pair of bitmaps: `lo`
// holds bit 0 of the state, `hi` holds bit 1. The two words covering the same
// 64 pages sit side by side in one allocation, so a word transition touches
// one cache line and a one-word region (a V8 chunk) costs one allocation. The PageState
// encoding in page.h is chosen so every interesting page class is a single
// bitwise expression over a 64-page word:
//
//   not-present    = ~lo & ~hi        resident-clean = lo & ~hi
//   resident-dirty =  hi & ~lo        swapped        = lo & hi
//   resident       =  lo ^ hi
//
// which is what gives Touch/Release/SwapOutPages their word-at-a-time fast
// paths (a 256 MiB commit flips 8 KiB of bitmap words instead of running 64 K
// branchy per-page switches) and makes ResidentPagesInRange a popcount.
//
// Bits past num_pages() in the last word are always zero; the word-level
// fast paths rely on that.
class PageBitmap {
 public:
  static constexpr uint64_t kPagesPerWord = 64;

  explicit PageBitmap(uint64_t num_pages)
      : num_pages_(num_pages), bits_(2 * WordsFor(num_pages), 0) {}

  // Re-sizes to `num_pages` not-present pages, reusing the storage's
  // capacity: a bitmap parked by an unmapped region serves the next region of
  // the same or a smaller size without a host allocation.
  void Reset(uint64_t num_pages) {
    num_pages_ = num_pages;
    bits_.assign(2 * WordsFor(num_pages), 0);
  }

  uint64_t num_pages() const { return num_pages_; }
  uint64_t num_words() const { return bits_.size() / 2; }

  PageState Get(uint64_t page) const {
    const uint64_t bit = uint64_t{1} << (page % kPagesPerWord);
    const uint64_t word = page / kPagesPerWord;
    return static_cast<PageState>(((lo(word) & bit) != 0 ? 1u : 0u) |
                                  ((hi(word) & bit) != 0 ? 2u : 0u));
  }

  void Set(uint64_t page, PageState s) {
    const uint64_t bit = uint64_t{1} << (page % kPagesPerWord);
    const uint64_t word = page / kPagesPerWord;
    const auto value = static_cast<uint64_t>(s);
    lo(word) = (value & 1u) != 0 ? (lo(word) | bit) : (lo(word) & ~bit);
    hi(word) = (value & 2u) != 0 ? (hi(word) | bit) : (hi(word) & ~bit);
  }

  uint64_t& lo(uint64_t word) { return bits_[2 * word]; }
  uint64_t& hi(uint64_t word) { return bits_[2 * word + 1]; }
  uint64_t lo(uint64_t word) const { return bits_[2 * word]; }
  uint64_t hi(uint64_t word) const { return bits_[2 * word + 1]; }

  // Mask selecting bit positions [first_bit, last_bit] (inclusive, < 64).
  static uint64_t RangeMask(uint64_t first_bit, uint64_t last_bit) {
    const uint64_t upto =
        last_bit == 63 ? ~uint64_t{0} : (uint64_t{1} << (last_bit + 1)) - 1;
    return upto & ~((uint64_t{1} << first_bit) - 1);
  }

 private:
  static uint64_t WordsFor(uint64_t num_pages) {
    return (num_pages + kPagesPerWord - 1) / kPagesPerWord;
  }

  uint64_t num_pages_;
  std::vector<uint64_t> bits_;  // lo, hi of word 0, then of word 1, ...
};

// Calls fn(bit_index) for each set bit of `bits`, in ascending order.
template <typename Fn>
inline void ForEachSetBit(uint64_t bits, Fn&& fn) {
  while (bits != 0) {
    fn(static_cast<uint64_t>(std::countr_zero(bits)));
    bits &= bits - 1;
  }
}

}  // namespace desiccant

#endif  // DESICCANT_SRC_OS_PAGE_BITMAP_H_
