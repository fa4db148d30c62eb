#include "util/crc32.hpp"

#include <array>

namespace pandarus::util {
namespace {

const std::array<std::uint32_t, 256>& crc_table() noexcept {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view data) noexcept {
  const auto& table = crc_table();
  std::uint32_t state = 0xFFFFFFFFu;
  for (const char ch : data) {
    state = table[(state ^ static_cast<unsigned char>(ch)) & 0xFFu] ^
            (state >> 8);
  }
  return state ^ 0xFFFFFFFFu;
}

}  // namespace pandarus::util
