// Dense index sets for event-driven scheduling (DESIGN 3.11).
//
// The simulator's hot phases no longer poll every channel and node each
// cycle; they iterate exactly the indices with work pending.  IndexSet is
// the structure behind that: a fixed-universe bitmap with O(1)
// insert/erase/contains and cache-friendly ascending iteration via
// word-level bit scans.  Determinism matters more than raw speed here —
// iteration order is always index-ascending (optionally rotated by the
// cycle-derived offset the legacy polled scans used), so the event-driven
// core visits work in exactly the order the full scan would have.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wormnet::sim {

class IndexSet {
 public:
  IndexSet() = default;
  explicit IndexSet(std::size_t universe) { reset(universe); }

  /// Clears the set and resizes the universe to [0, universe).
  void reset(std::size_t universe) {
    words_.assign((universe + 63) / 64, 0);
    universe_ = universe;
    count_ = 0;
  }

  /// Grows the universe (new indices start absent).  Used by the live-packet
  /// set, whose universe is the ever-growing packet table.
  void grow(std::size_t universe) {
    if (universe <= universe_) return;
    words_.resize((universe + 63) / 64, 0);
    universe_ = universe;
  }

  [[nodiscard]] bool contains(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Inserts `i`; returns true iff it was absent.
  bool insert(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (w & bit) return false;
    w |= bit;
    ++count_;
    return true;
  }

  /// Erases `i`; returns true iff it was present.
  bool erase(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (!(w & bit)) return false;
    w &= ~bit;
    --count_;
    return true;
  }

  // Branch-free updates for the flit path, where whether an index joins or
  // leaves a set is data-dependent and poorly predicted.

  /// Inserts `i` iff `cond`; a no-op otherwise.
  void insert_if(std::size_t i, bool cond) noexcept {
    std::uint64_t& w = words_[i >> 6];
    const unsigned b = i & 63;
    const std::uint64_t add = std::uint64_t{cond} << b;
    count_ += (add & ~w) >> b;
    w |= add;
  }

  /// Makes `i` a member iff `member`.
  void assign(std::size_t i, bool member) noexcept {
    std::uint64_t& w = words_[i >> 6];
    const unsigned b = i & 63;
    const std::uint64_t was = (w >> b) & 1u;
    w = (w & ~(std::uint64_t{1} << b)) | (std::uint64_t{member} << b);
    count_ = count_ + member - was;
  }

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] std::size_t universe() const noexcept { return universe_; }

  /// Empties the set in O(words), keeping the universe.
  void clear() noexcept {
    if (count_ == 0) return;
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
  }

  /// Calls f(index) for each member in ascending order without
  /// materializing a vector.  The callback must not mutate THIS set (other
  /// sets are fine); use collect() for snapshot-then-mutate iteration.
  template <class F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        f(static_cast<std::uint32_t>((w << 6) + b));
        bits &= bits - 1;
      }
    }
  }

  /// Appends members to `out` in ascending index order.
  void collect(std::vector<std::uint32_t>& out) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        out.push_back(static_cast<std::uint32_t>((w << 6) + b));
        bits &= bits - 1;
      }
    }
  }

  /// Appends members in the rotated order the legacy polled scans used:
  /// ascending from `offset` to the top of the universe, then wrapping to
  /// ascending below `offset`.  Bit-exact replacement for
  /// `for (i : 0..n) visit((i + offset) % n) if member`.
  void collect_rotated(std::size_t offset,
                       std::vector<std::uint32_t>& out) const {
    if (count_ == 0 || universe_ == 0) return;
    offset %= universe_;
    const std::size_t first_word = offset >> 6;
    // Partial first word: only bits >= offset.
    {
      const std::uint64_t mask = ~std::uint64_t{0} << (offset & 63);
      std::uint64_t bits = words_[first_word] & mask;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        out.push_back(static_cast<std::uint32_t>((first_word << 6) + b));
        bits &= bits - 1;
      }
    }
    for (std::size_t w = first_word + 1; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        out.push_back(static_cast<std::uint32_t>((w << 6) + b));
        bits &= bits - 1;
      }
    }
    for (std::size_t w = 0; w < first_word; ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        out.push_back(static_cast<std::uint32_t>((w << 6) + b));
        bits &= bits - 1;
      }
    }
    // Partial first word again: bits < offset (the wrapped tail).
    {
      const std::uint64_t mask = (offset & 63) == 0
                                     ? 0
                                     : ~(~std::uint64_t{0} << (offset & 63));
      std::uint64_t bits = words_[first_word] & mask;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        out.push_back(static_cast<std::uint32_t>((first_word << 6) + b));
        bits &= bits - 1;
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t universe_ = 0;
  std::size_t count_ = 0;
};

}  // namespace wormnet::sim
