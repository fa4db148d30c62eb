// CRC32 (IEEE 802.3, reflected): the integrity checksum of the colstore
// container's chunk frames, which its reader (and so obs::recover)
// validates.
#pragma once

#include <cstdint>
#include <string_view>

namespace pandarus::util {

/// One-shot CRC32 of `data`.
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

}  // namespace pandarus::util
