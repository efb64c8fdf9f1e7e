// Dense channel bitsets for the checker: rows of 64-bit words, bit c of a
// row standing for channel c.  The state graph keeps its reachable states
// as one row per destination, the subfunction its escape sets as rows, and
// the extended-CDG builder its edge sets; the loops over them go a word at
// a time and visit only the set bits, in ascending order.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wormnet::cdg {

using Word = std::uint64_t;

/// Words in a row of `bits` bits.
[[nodiscard]] constexpr std::size_t row_words(std::size_t bits) {
  return (bits + 63) / 64;
}

[[nodiscard]] inline bool test_bit(const Word* row, std::size_t i) {
  return (row[i / 64] >> (i % 64)) & 1;
}

inline void set_bit(Word* row, std::size_t i) {
  row[i / 64] |= Word{1} << (i % 64);
}

/// Calls f(i) for every bit i set in both `a` and `b` (`words` words
/// each), ascending.
template <class F>
void for_each_common_bit(const Word* a, const Word* b, std::size_t words,
                         F&& f) {
  for (std::size_t w = 0; w < words; ++w) {
    for (Word bits = a[w] & b[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }
}

/// No bit: find_bit's answer when no set bit qualifies.
inline constexpr std::uint32_t kNoBit = ~std::uint32_t{0};

/// The first bit i set in `row` (`words` words), ascending, for which
/// pred(i) holds, or kNoBit.
template <class P>
[[nodiscard]] std::uint32_t find_bit(const Word* row, std::size_t words,
                                     P&& pred) {
  for (std::size_t w = 0; w < words; ++w) {
    for (Word bits = row[w]; bits != 0; bits &= bits - 1) {
      const auto i =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      if (pred(i)) return i;
    }
  }
  return kNoBit;
}

/// Calls f(i) for every bit i set in `row` (`words` words), ascending.
template <class F>
void for_each_bit(const Word* row, std::size_t words, F&& f) {
  (void)find_bit(row, words, [&f](std::uint32_t i) {
    f(i);
    return false;
  });
}

/// A dense bitset over channels per channel: row r holds `words` 64-bit
/// words, bit c of row r set for the pair (r, c).
struct BitRows {
  std::size_t words = 0;
  std::vector<Word> bits;

  BitRows() = default;
  BitRows(std::size_t rows, std::size_t row_words)
      : words(row_words), bits(rows * row_words, 0) {}
  /// `rows` zeroed rows of `row_words` words, reusing the storage.
  void reset(std::size_t rows, std::size_t row_words) {
    words = row_words;
    bits.assign(rows * row_words, 0);
  }
  [[nodiscard]] Word* row(std::size_t r) { return &bits[r * words]; }
  [[nodiscard]] const Word* row(std::size_t r) const {
    return &bits[r * words];
  }
  [[nodiscard]] bool test(std::size_t r, std::size_t c) const {
    return test_bit(row(r), c);
  }
};

}  // namespace wormnet::cdg
