// String interning: dense uint32 symbol ids for the repeated metadata
// attribute strings (lfn, dataset, proddblock, scope).
//
// The paper's §5.5 scalability concern is allocator- and hash-bound: the
// matching core used to hash multi-hundred-byte strings once per lookup
// and once per candidate comparison.  Interning each distinct string to
// a dense id at record-ingest time makes every later equality test one
// integer compare and every group-by a counting sort over [0, size()).
//
// Ids are assigned in first-intern order, so they are deterministic for
// a fixed ingest order, and two ids are equal iff the strings are equal
// (exactness is structural, not probabilistic: there is no hashing in
// the id itself).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pandarus::util {

/// Dense id assigned by an interner.  32 bits bound the distinct-string
/// population at 4G — far above any snapshot this system indexes.
using Symbol = std::uint32_t;

/// Sentinel for "never interned" (records that did not pass through a
/// MetadataStore, files the Recorder has not recorded yet).  Indexes
/// treat it as matching nothing.
inline constexpr Symbol kNoSymbol = 0xFFFF'FFFFu;

/// The one copy of each distinct string: every string's bytes sit back
/// to back in one arena, in id order, and the lookup table holds ids
/// only.  All members are values, so copies and moves are independent
/// of their source.
class StringInterner {
 public:
  /// Returns the id of `text`, assigning the next dense id on first
  /// sight.  Amortized O(len): one hash of the string, no allocation on
  /// hits.  `text` may view this interner's own bytes.  Throws
  /// std::length_error past 4 GiB of distinct bytes.
  Symbol intern(std::string_view text);

  /// The string behind an id.  Valid until the next intern(), which may
  /// move the arena.
  [[nodiscard]] std::string_view view(Symbol id) const noexcept {
    const std::uint32_t begin = id == 0 ? 0 : ends_[id - 1];
    return {bytes_.data() + begin, ends_[id] - begin};
  }

  [[nodiscard]] std::size_t size() const noexcept { return ends_.size(); }

 private:
  /// Doubles the slot table and re-inserts every id.
  void grow();

  /// Every distinct string, concatenated in id order.
  std::string bytes_;
  /// ends_[id]: offset one past the string's last byte in bytes_.
  std::vector<std::uint32_t> ends_;
  /// Linear-probing table of ids (kNoSymbol = empty), a power of two in
  /// size and at most half full.
  std::vector<Symbol> slots_;
};

}  // namespace pandarus::util
