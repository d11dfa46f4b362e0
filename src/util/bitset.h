#pragma once

/// \file bitset.h
/// Fixed-capacity dynamic bitset used for node sets (reachability, Pred/Succ
/// sets, transitive closures).  std::vector<bool> is avoided for its proxy
/// semantics; std::bitset needs a compile-time size.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.h"

namespace hedra {

/// A set of small integers in [0, size()).
class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// All-zero set over [0, size).
  explicit DynamicBitset(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  void set(std::size_t i) {
    check(i);
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }

  void reset(std::size_t i) {
    check(i);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  [[nodiscard]] bool test(std::size_t i) const {
    check(i);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  // -- Unchecked variants for hot inner loops (the B&B solver flips and
  //    tests membership bits millions of times per second over indices that
  //    are node ids of the same graph, so the range check is pure
  //    overhead).  Callers own the bounds proof.

  void set_unchecked(std::size_t i) noexcept {
    words_[i >> 6] |= (std::uint64_t{1} << (i & 63));
  }

  void reset_unchecked(std::size_t i) noexcept {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  [[nodiscard]] bool test_unchecked(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;

  [[nodiscard]] bool any() const noexcept;
  [[nodiscard]] bool none() const noexcept { return !any(); }

  /// In-place union; sizes must match.
  DynamicBitset& operator|=(const DynamicBitset& rhs);

  friend bool operator==(const DynamicBitset& a,
                         const DynamicBitset& b) noexcept = default;

  /// Indices of set bits, ascending.
  [[nodiscard]] std::vector<std::size_t> to_indices() const;

 private:
  void check(std::size_t i) const {
    HEDRA_REQUIRE(i < size_, "DynamicBitset index out of range");
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hedra
