#include "util/interner.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pandarus::util {
namespace {

std::size_t hash_of(std::string_view text) noexcept {
  return std::hash<std::string_view>{}(text);
}

}  // namespace

Symbol StringInterner::intern(std::string_view text) {
  if (2 * (ends_.size() + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash_of(text) & mask;
  for (; slots_[i] != kNoSymbol; i = (i + 1) & mask) {
    if (view(slots_[i]) == text) return slots_[i];
  }
  if (text.size() > std::numeric_limits<std::uint32_t>::max() - bytes_.size()) {
    throw std::length_error("StringInterner: arena past 4 GiB");
  }
  const auto id = static_cast<Symbol>(ends_.size());
  // std::string::append copies correctly even when `text` views bytes_.
  bytes_.append(text);
  ends_.push_back(static_cast<std::uint32_t>(bytes_.size()));
  slots_[i] = id;
  return id;
}

void StringInterner::grow() {
  std::vector<Symbol> slots(std::max<std::size_t>(16, 2 * slots_.size()),
                            kNoSymbol);
  const std::size_t mask = slots.size() - 1;
  for (Symbol id = 0; id < ends_.size(); ++id) {
    std::size_t i = hash_of(view(id)) & mask;
    while (slots[i] != kNoSymbol) i = (i + 1) & mask;
    slots[i] = id;
  }
  slots_ = std::move(slots);
}

}  // namespace pandarus::util
