#include "util/bitset.h"

#include <bit>

namespace hedra {

std::size_t DynamicBitset::count() const noexcept {
  std::size_t total = 0;
  for (const auto word : words_) total += std::popcount(word);
  return total;
}

bool DynamicBitset::any() const noexcept {
  for (const auto word : words_) {
    if (word != 0) return true;
  }
  return false;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& rhs) {
  HEDRA_REQUIRE(size_ == rhs.size_, "bitset size mismatch in operator|=");
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= rhs.words_[i];
  return *this;
}

std::vector<std::size_t> DynamicBitset::to_indices() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t word = words_[w];
    while (word != 0) {
      const int bit = std::countr_zero(word);
      out.push_back(w * 64 + static_cast<std::size_t>(bit));
      word &= word - 1;
    }
  }
  return out;
}

}  // namespace hedra
