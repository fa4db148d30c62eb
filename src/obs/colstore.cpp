#include "obs/colstore.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <optional>

#include "obs/event_log.hpp"
#include "util/crc32.hpp"
#include "util/json.hpp"

namespace pandarus::obs {
namespace {

using util::crc32;

// --- format constants -------------------------------------------------------

// v2 frames carry a CRC32 of the chunk header, so a torn tail is
// detected before any header field is trusted.  v1 (no header CRC) is
// rejected.
constexpr std::uint8_t kFormatVersion = 2;
// Every file opens with these 12 bytes: an 8-byte magic, the format
// version and three zero bytes.
constexpr char kFileHeader[12] = {'P', 'C', 'O', 'L', 'S', 'T', 'R', '1',
                                  kFormatVersion, 0, 0, 0};
constexpr std::size_t kMagicBytes = 8;
constexpr std::uint32_t kChunkMagic = 0x314B4350u;  // "PCK1" little-endian

// Sanity bounds: a reader must reject absurd sizes before allocating,
// so a corrupt or adversarial header cannot OOM the process.
constexpr std::uint64_t kMaxChunkHeader = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxSectionBytes = std::uint64_t{1} << 30;
constexpr std::uint64_t kMaxChunkRows = std::uint64_t{1} << 26;

constexpr std::uint8_t kEntityInt = 0;
constexpr std::uint8_t kEntityString = 1;

using util::json::FlatMember;
using util::json::FlatObject;
using util::json::Kind;

// --- varint / zigzag --------------------------------------------------------

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

bool get_varint(std::string_view s, std::size_t& pos, std::uint64_t& v) {
  v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= s.size()) return false;
    const auto b = static_cast<unsigned char>(s[pos++]);
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return true;
  }
  return false;
}

constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Wrapping delta: exact mod 2^64, so extreme int64 jumps round-trip.
constexpr std::uint64_t delta_encode(std::int64_t value,
                                     std::int64_t prev) noexcept {
  return zigzag(static_cast<std::int64_t>(static_cast<std::uint64_t>(value) -
                                          static_cast<std::uint64_t>(prev)));
}

constexpr std::int64_t delta_decode(std::uint64_t encoded,
                                    std::int64_t prev) noexcept {
  return static_cast<std::int64_t>(
      static_cast<std::uint64_t>(prev) +
      static_cast<std::uint64_t>(unzigzag(encoded)));
}

std::uint64_t double_bits(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double bits_double(std::uint64_t bits) noexcept {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::uint64_t int_bits(std::int64_t v) noexcept {
  return static_cast<std::uint64_t>(v);
}

std::int64_t bits_int(std::uint64_t bits) noexcept {
  return static_cast<std::int64_t>(bits);
}

void put_u64_le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

bool get_u64_le(std::string_view s, std::size_t& pos, std::uint64_t& v) {
  if (pos + 8 > s.size()) return false;
  v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[pos + i]))
         << (8 * i);
  }
  pos += 8;
  return true;
}

// --- LZ block compressor ----------------------------------------------------
//
// LZ4-shaped byte stream: token (literal-run nibble | match-len nibble),
// 255-run length extensions, raw literals, 2-byte little-endian match
// offset (max 64 KiB window — a chunk section is decoded as one block).
// Self-written so the container stays dependency-free; the decoder
// bounds-checks every access, which is what the corrupt-chunk tests
// lean on.

constexpr int kLzHashBits = 13;
constexpr std::size_t kLzMinMatch = 4;

std::uint32_t lz_read32(const char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::size_t lz_hash(std::uint32_t v) noexcept {
  return (v * 2654435761u) >> (32 - kLzHashBits);
}

void lz_put_run(std::string& out, std::size_t len) {
  while (len >= 255) {
    out += static_cast<char>(static_cast<unsigned char>(255));
    len -= 255;
  }
  out += static_cast<char>(len);
}

std::string lz_compress(std::string_view src) {
  const std::size_t n = src.size();
  std::string out;
  out.reserve(n / 2 + 64);
  std::vector<std::int32_t> table(std::size_t{1} << kLzHashBits, -1);
  std::size_t anchor = 0;
  std::size_t i = 0;
  while (n >= kLzMinMatch && i + kLzMinMatch <= n) {
    const std::uint32_t v = lz_read32(src.data() + i);
    const std::size_t h = lz_hash(v);
    const std::int32_t cand = table[h];
    table[h] = static_cast<std::int32_t>(i);
    const auto cpos = static_cast<std::size_t>(cand);
    if (cand >= 0 && i - cpos <= 0xFFFF &&
        lz_read32(src.data() + cpos) == v) {
      std::size_t len = kLzMinMatch;
      while (i + len < n && src[cpos + len] == src[i + len]) ++len;
      const std::size_t literals = i - anchor;
      const std::size_t lnib = std::min<std::size_t>(literals, 15);
      const std::size_t mnib = std::min<std::size_t>(len - kLzMinMatch, 15);
      out += static_cast<char>((lnib << 4) | mnib);
      if (lnib == 15) lz_put_run(out, literals - 15);
      out.append(src.data() + anchor, literals);
      const std::size_t off = i - cpos;
      out += static_cast<char>(off & 0xFF);
      out += static_cast<char>((off >> 8) & 0xFF);
      if (mnib == 15) lz_put_run(out, len - kLzMinMatch - 15);
      i += len;
      anchor = i;
    } else {
      ++i;
    }
  }
  // Final literal-only token (match nibble unused: decoder stops at
  // end of input, like LZ4's last-sequence rule).
  const std::size_t literals = n - anchor;
  const std::size_t lnib = std::min<std::size_t>(literals, 15);
  out += static_cast<char>(lnib << 4);
  if (lnib == 15) lz_put_run(out, literals - 15);
  out.append(src.data() + anchor, literals);
  return out;
}

bool lz_decompress(std::string_view src, std::size_t raw_size,
                   std::string& out) {
  out.clear();
  out.reserve(raw_size);
  std::size_t i = 0;
  const std::size_t n = src.size();
  const auto read_run = [&](std::size_t base, std::size_t& len) -> bool {
    len = base;
    if (base != 15) return true;
    for (;;) {
      if (i >= n) return false;
      const auto b = static_cast<unsigned char>(src[i++]);
      len += b;
      if (b != 255) return true;
    }
  };
  while (i < n) {
    const auto token = static_cast<unsigned char>(src[i++]);
    std::size_t literals = 0;
    if (!read_run(token >> 4, literals)) return false;
    if (i + literals > n || out.size() + literals > raw_size) return false;
    out.append(src.data() + i, literals);
    i += literals;
    if (i >= n) break;  // literal-only tail
    if (i + 2 > n) return false;
    const std::size_t off =
        static_cast<unsigned char>(src[i]) |
        (static_cast<std::size_t>(static_cast<unsigned char>(src[i + 1]))
         << 8);
    i += 2;
    std::size_t mlen = 0;
    if (!read_run(token & 0xF, mlen)) return false;
    mlen += kLzMinMatch;
    if (off == 0 || off > out.size() || out.size() + mlen > raw_size) {
      return false;
    }
    // Byte-wise copy: overlapping matches (run-length shapes) are legal.
    const std::size_t pos = out.size() - off;
    for (std::size_t k = 0; k < mlen; ++k) out += out[pos + k];
  }
  return out.size() == raw_size;
}

/// A block as written: its compression, or the raw bytes themselves
/// when compressing does not shrink them.  Takes the block by value, so
/// only the returned copy outlives the call.
std::string compressed_or_raw(std::string raw) {
  std::string blob = lz_compress(raw);
  if (blob.size() >= raw.size()) return raw;
  return blob;
}

// --- low-level file I/O -----------------------------------------------------

void put_u32_le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

bool read_exact(std::FILE* f, void* dst, std::size_t n) {
  return std::fread(dst, 1, n, f) == n;
}

std::uint32_t decode_u32_le(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Inverts detail::append_json_escaped, whose only escapes are \", \\,
/// \n, \t and \u00XX (a control byte).
void append_unescaped(std::string& out, std::string_view s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned code = 0;
        const std::string_view hex = s.substr(i + 1, 4);
        std::from_chars(hex.data(), hex.data() + hex.size(), code, 16);
        out += static_cast<char>(code);
        i += hex.size();
        break;
      }
      default: out += s[i];  // '"' or '\\'
    }
  }
}

constexpr std::uint64_t col_key(util::Symbol key, std::uint8_t type) noexcept {
  return (static_cast<std::uint64_t>(key) << 3) | type;
}

/// Types `m` as parse_flat types an integer's rendering.
void set_int(FlatMember& m, std::int64_t v) noexcept {
  m.kind = Kind::kNumber;
  m.is_int = true;
  m.int_v = v;
  m.num_v = static_cast<double>(v);
}

void set_string(FlatMember& m, std::string_view s) noexcept {
  m.kind = Kind::kString;
  m.str_v = s;
}

}  // namespace

// --- rendering --------------------------------------------------------------

void append_ndjson(const FlatObject& event, std::string& out) {
  out += '{';
  bool first = true;
  for (const FlatMember& m : event.members) {
    if (!first) out += ',';
    first = false;
    out += '"';
    detail::append_json_escaped(out, m.key);
    out += "\":";
    switch (m.kind) {
      case Kind::kNumber:
        if (m.is_int) {
          out += std::to_string(m.int_v);
        } else {
          detail::append_json_double(out, m.num_v);
        }
        break;
      case Kind::kBool: out += m.bool_v ? "true" : "false"; break;
      case Kind::kString:
        out += '"';
        detail::append_json_escaped(out, m.str_v);
        out += '"';
        break;
      case Kind::kNull:
      case Kind::kArray:
      case Kind::kObject: out += "null"; break;
    }
  }
  out += '}';
}

// --- ColWriter --------------------------------------------------------------

ColWriter::ColWriter(const std::string& path, ColWriterOptions options)
    : options_(options) {
  if (options_.rows_per_chunk == 0) options_.rows_per_chunk = 1;
  out_ = std::fopen(path.c_str(), "wb");
  if (out_ == nullptr) {
    fail("cannot open " + path + " for writing");
    closed_ = true;
    return;
  }
  if (std::fwrite(kFileHeader, 1, sizeof kFileHeader, out_) !=
      sizeof kFileHeader) {
    fail("short write on file header");
    return;
  }
  stats_.bytes_written += sizeof kFileHeader;
}

ColWriter::~ColWriter() { close(); }

void ColWriter::fail(const std::string& message) {
  if (error_.empty()) error_ = message;
}

util::Symbol ColWriter::intern(std::string_view text, std::uint64_t pos,
                               std::uint64_t len, bool escaped) {
  const std::string_view s = text.substr(pos, len);
  if (!escaped) return dict_.intern(s);
  unescaped_.clear();
  append_unescaped(unescaped_, s);
  return dict_.intern(unescaped_);
}

util::Symbol ColWriter::intern_value(std::string_view text,
                                     const FieldRecord& f) {
  return intern(text, f.value >> 32, f.value & 0xFFFFFFFFu, f.value_escaped);
}

bool ColWriter::append(std::string_view line, const EventRecord& record) {
  if (!record.complete) return append_ndjson_line(line);
  return encode(line, record.ts, record.kind, record.entity,
                std::span(record.fields.data(), record.field_count));
}

bool ColWriter::append_ndjson_line(std::string_view line) {
  if (line.empty()) return true;
  // Spans are 32-bit offsets into line_text_, which is never longer
  // than the line.
  if (!util::json::parse_flat(line, line_event_) ||
      line.size() > std::numeric_limits<std::uint32_t>::max()) {
    ++stats_.rejected;
    return false;
  }
  if (!ok() || closed_) return false;
  // Validate the whole event before any column state is touched, so a
  // rejected line leaves no residue.  Keys and string values are copied
  // to line_text_ unescaped (parse_flat decoded them).
  line_text_.clear();
  line_fields_.clear();
  const auto span_of = [this](std::string_view s) {
    const std::uint64_t pos = line_text_.size();
    line_text_ += s;
    return pos;
  };
  std::optional<FieldRecord> ts;
  std::optional<FieldRecord> kind;
  std::optional<FieldRecord> entity;
  for (const util::json::FlatMember& m : line_event_.members) {
    using util::json::Kind;
    FieldRecord f{static_cast<std::uint32_t>(span_of(m.key)),
                  static_cast<std::uint32_t>(m.key.size()), 0,
                  FieldType::kNull, false, false};
    switch (m.kind) {
      case Kind::kNumber:
        f.type = m.is_int ? FieldType::kInt : FieldType::kDouble;
        f.value = m.is_int ? int_bits(m.int_v) : double_bits(m.num_v);
        break;
      case Kind::kBool:
        f.type = FieldType::kBool;
        f.value = m.bool_v ? 1 : 0;
        break;
      case Kind::kString:
        f.type = FieldType::kString;
        f.value = FieldRecord::pack_span(span_of(m.str_v), m.str_v.size());
        break;
      case Kind::kNull: break;
      case Kind::kArray:
      case Kind::kObject:
        ++stats_.rejected;
        return false;
    }
    std::optional<FieldRecord>* core = m.key == "ts"       ? &ts
                                       : m.key == "kind"   ? &kind
                                       : m.key == "entity" ? &entity
                                                           : nullptr;
    if (core != nullptr && !core->has_value()) {
      *core = f;
    } else {
      line_fields_.push_back(f);
    }
  }
  if (!ts || ts->type != FieldType::kInt || !kind ||
      kind->type != FieldType::kString || !entity ||
      (entity->type != FieldType::kInt &&
       entity->type != FieldType::kString)) {
    ++stats_.rejected;
    return false;
  }
  return encode(line_text_, *ts, *kind, *entity, line_fields_);
}

std::uint32_t ColWriter::shape_of(std::string_view text,
                                  const FieldRecord& kind,
                                  std::uint8_t entity_kind,
                                  std::span<const FieldRecord> fields) {
  // The shape's spelling — kind, entity kind, each key and type, as the
  // bytes sit in `text` — names it without interning anything.  Escape
  // flags are part of it: the same bytes escaped or raw are different
  // strings.
  const auto spell = [this, text](std::uint64_t pos, std::uint64_t len,
                                  bool escaped) {
    put_varint(spelling_, len);
    spelling_ += static_cast<char>(escaped ? 1 : 0);
    spelling_.append(text.substr(pos, len));
  };
  spelling_.clear();
  spell(kind.value >> 32, kind.value & 0xFFFFFFFFu, kind.value_escaped);
  spelling_ += static_cast<char>(entity_kind);
  for (const FieldRecord& f : fields) {
    spell(f.key_pos, f.key_len, f.key_escaped);
    spelling_ += static_cast<char>(f.type);
  }
  const auto [spelled, first_sight] =
      shape_by_spelling_.try_emplace(spelling_, 0);
  if (!first_sight) return spelled->second;

  // New spelling: intern the kind and keys — in that order, then the
  // entity and string values in encode(), which fixes the dictionary's
  // bytes — and find the shape by symbols, since another spelling may
  // name the same one.
  ShapeDef def;
  def.kind = intern_value(text, kind);
  def.entity_kind = entity_kind;
  std::string sig;
  put_varint(sig, def.kind);
  sig += static_cast<char>(entity_kind);
  for (const FieldRecord& f : fields) {
    const util::Symbol key_sym =
        intern(text, f.key_pos, f.key_len, f.key_escaped);
    def.fields.emplace_back(key_sym, static_cast<std::uint8_t>(f.type));
    put_varint(sig, key_sym);
    sig += static_cast<char>(f.type);
  }
  const auto [it, inserted] = shape_ids_.try_emplace(
      std::move(sig), static_cast<std::uint32_t>(shapes_.size()));
  if (inserted) shapes_.push_back(std::move(def));
  spelled->second = it->second;
  return it->second;
}

bool ColWriter::encode(std::string_view text, const FieldRecord& ts,
                       const FieldRecord& kind, const FieldRecord& entity,
                       std::span<const FieldRecord> fields) {
  if (!ok() || closed_) return false;

  // Shape: kind + entity kind + ordered (key, type) list.
  const std::uint8_t entity_kind =
      entity.type == FieldType::kString ? kEntityString : kEntityInt;
  const std::uint32_t shape_id = shape_of(text, kind, entity_kind, fields);
  const ShapeDef& shape = shapes_[shape_id];

  // Row core columns.
  const std::int64_t ts_v = bits_int(ts.value);
  if (row_shapes_.empty()) {
    min_ts_ = max_ts_ = ts_v;
  } else {
    min_ts_ = std::min(min_ts_, ts_v);
    max_ts_ = std::max(max_ts_, ts_v);
  }
  row_shapes_.push_back(shape_id);
  row_ts_.push_back(ts_v);
  if (entity_kind == kEntityString) {
    ent_strs_.push_back(intern_value(text, entity));
  } else {
    ent_ints_.push_back(bits_int(entity.value));
  }
  ++kind_counts_[shape.kind];

  // Field columns, keyed (key symbol, type); values packed in row order.
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const FieldRecord& f = fields[i];
    const auto [key_sym, type] = shape.fields[i];
    const auto [col_it, col_inserted] =
        col_index_.try_emplace(col_key(key_sym, type), cols_.size());
    if (col_inserted) {
      ColBuild col;
      col.key = key_sym;
      col.type = type;
      cols_.push_back(std::move(col));
    }
    ColBuild& col = cols_[col_it->second];
    switch (f.type) {
      case FieldType::kInt: {
        const std::int64_t v = bits_int(f.value);
        put_varint(col.bytes, delta_encode(v, col.prev_int));
        col.prev_int = v;
        break;
      }
      case FieldType::kDouble:
        put_u64_le(col.bytes, f.value);
        break;
      case FieldType::kBool:
        col.bytes += static_cast<char>(f.value != 0 ? 1 : 0);
        break;
      case FieldType::kString:
        put_varint(col.bytes, intern_value(text, f));
        break;
      case FieldType::kNull:
        break;  // presence is carried by the shape
    }
    ++col.count;
  }

  ++stats_.rows;
  if (row_shapes_.size() >= options_.rows_per_chunk) return flush_chunk();
  return ok();
}

bool ColWriter::flush_chunk() {
  if (!ok() || row_shapes_.empty()) return ok();
  const std::size_t rows = row_shapes_.size();

  // Meta section: dictionary and shape deltas since the last flush.
  std::string meta;
  put_varint(meta, dict_.size() - dict_flushed_);
  for (std::size_t i = dict_flushed_; i < dict_.size(); ++i) {
    const std::string_view s = dict_.view(static_cast<util::Symbol>(i));
    put_varint(meta, s.size());
    meta.append(s.data(), s.size());
  }
  put_varint(meta, shapes_.size() - shapes_flushed_);
  for (std::size_t i = shapes_flushed_; i < shapes_.size(); ++i) {
    const ShapeDef& shape = shapes_[i];
    put_varint(meta, shape.kind);
    meta += static_cast<char>(shape.entity_kind);
    put_varint(meta, shape.fields.size());
    for (const auto& [key, type] : shape.fields) {
      put_varint(meta, key);
      meta += static_cast<char>(type);
    }
  }

  // Data section: core columns, then the field-column directory.
  std::string data;
  for (const std::uint32_t shape : row_shapes_) put_varint(data, shape);
  std::int64_t prev_ts = 0;
  for (const std::int64_t ts : row_ts_) {
    put_varint(data, delta_encode(ts, prev_ts));
    prev_ts = ts;
  }
  put_varint(data, ent_ints_.size());
  std::int64_t prev_ent = 0;
  for (const std::int64_t e : ent_ints_) {
    put_varint(data, delta_encode(e, prev_ent));
    prev_ent = e;
  }
  put_varint(data, ent_strs_.size());
  for (const util::Symbol s : ent_strs_) put_varint(data, s);
  put_varint(data, cols_.size());
  for (const ColBuild& col : cols_) {
    put_varint(data, col.key);
    data += static_cast<char>(col.type);
    put_varint(data, col.count);
    put_varint(data, col.bytes.size());
    data += col.bytes;
  }
  cols_.clear();  // data holds the columns now
  col_index_.clear();

  // Compress, storing a block raw when it is incompressible.  Each
  // section's source buffer is freed once its blob exists, and the
  // frame is written in three parts, so a chunk is never held in more
  // than two copies.
  const std::size_t meta_raw = meta.size();
  const std::size_t data_raw = data.size();
  std::string meta_blob = compressed_or_raw(std::move(meta));
  std::string data_blob = compressed_or_raw(std::move(data));

  std::string header;
  put_varint(header, rows);
  put_varint(header, zigzag(min_ts_));
  put_varint(header, zigzag(max_ts_));
  put_varint(header, kind_counts_.size());
  for (const auto& [sym, count] : kind_counts_) {
    put_varint(header, sym);
    put_varint(header, count);
  }
  put_varint(header, meta_raw);
  put_varint(header, meta_blob.size());
  put_varint(header, data_raw);
  put_varint(header, data_blob.size());
  put_varint(header, crc32(meta_blob));
  put_varint(header, crc32(data_blob));

  std::string head;
  put_u32_le(head, kChunkMagic);
  put_u32_le(head, static_cast<std::uint32_t>(header.size()));
  put_u32_le(head, crc32(header));  // v2: torn headers detectable
  head += header;
  for (const std::string* part : {&head, &meta_blob, &data_blob}) {
    if (std::fwrite(part->data(), 1, part->size(), out_) != part->size()) {
      fail("short write on chunk");
      return false;
    }
  }
  stats_.bytes_written += head.size() + meta_blob.size() + data_blob.size();
  ++stats_.chunks;

  dict_flushed_ = dict_.size();
  shapes_flushed_ = shapes_.size();
  row_shapes_.clear();
  row_ts_.clear();
  ent_ints_.clear();
  ent_strs_.clear();
  kind_counts_.clear();
  return true;
}

bool ColWriter::flush(bool durable) {
  if (!ok() || out_ == nullptr) return false;
  if (std::fflush(out_) != 0) {
    fail("flush failed");
  } else if (durable && ::fsync(fileno(out_)) != 0) {
    fail("fsync failed");
  }
  return ok();
}

bool ColWriter::close() {
  if (closed_) return ok();
  closed_ = true;
  flush_chunk();
  if (out_ != nullptr) {
    if (std::fflush(out_) != 0 || std::ferror(out_) != 0) {
      fail("flush failed on close");
    }
    if (options_.fsync_on_close && ok() &&
        ::fsync(fileno(out_)) != 0) {
      fail("fsync failed on close");
    }
    if (std::fclose(out_) != 0) fail("close failed");
    out_ = nullptr;
  }
  return ok();
}

// --- ColReader --------------------------------------------------------------

ColReader::ColReader(const std::string& path, ColFilter filter,
                     ColReadOptions options)
    : filter_(std::move(filter)), options_(options) {
  in_ = std::fopen(path.c_str(), "rb");
  if (in_ == nullptr) {
    fail("cannot open " + path);
    eof_ = true;
    return;
  }
  unsigned char header[sizeof kFileHeader];
  const std::size_t got = std::fread(header, 1, sizeof header, in_);
  if (got < sizeof header && options_.recover &&
      std::memcmp(header, kFileHeader, got) == 0) {
    // Torn inside the header the writer opens with (a crash before its
    // first flush): the valid prefix is empty.
    recovery_.ok = true;
    recovery_.truncated = true;
    recovery_.dropped_bytes = got;
    recovery_.detail = "torn inside the file header";
    eof_ = true;
    return;
  }
  if (got != sizeof header ||
      std::memcmp(header, kFileHeader, kMagicBytes) != 0) {
    fail("not a colstore file: " + path);
    eof_ = true;
    return;
  }
  if (header[8] != kFormatVersion) {
    fail("unsupported colstore version " + std::to_string(header[8]));
    eof_ = true;
    return;
  }
  if (std::memcmp(header, kFileHeader, sizeof header) != 0) {
    fail("corrupt file header (reserved bytes not zero)");
    eof_ = true;
    return;
  }
  recovery_.ok = true;
  recovery_.salvaged_bytes = sizeof header;
}

ColReader::~ColReader() {
  if (in_ != nullptr) std::fclose(in_);
}

void ColReader::fail(const std::string& message) {
  if (error_.empty()) error_ = "colstore: " + message;
  recovery_.ok = false;
  eof_ = true;
}

void ColReader::fail_chunk(const std::string& message) {
  if (!options_.recover) {
    fail(message);
    return;
  }
  // Salvage mode: the damage ends the scan at the last intact chunk
  // boundary instead of latching an error.  Everything past the valid
  // prefix is accounted as dropped.
  eof_ = true;
  recovery_.truncated = true;
  if (recovery_.detail.empty()) recovery_.detail = message;
  if (in_ != nullptr && std::fseek(in_, 0, SEEK_END) == 0) {
    const long end = std::ftell(in_);
    if (end > 0 &&
        static_cast<std::uint64_t>(end) >= recovery_.salvaged_bytes) {
      recovery_.dropped_bytes =
          static_cast<std::uint64_t>(end) - recovery_.salvaged_bytes;
    }
  }
}

void ColReader::note_chunk_salvaged(std::uint64_t rows) {
  recovery_.salvaged_events += rows;
  if (in_ != nullptr) {
    const long at = std::ftell(in_);
    if (at > 0) recovery_.salvaged_bytes = static_cast<std::uint64_t>(at);
  }
}

bool ColReader::load_chunk(bool stats_only, ChunkInfo* info) {
  for (;;) {
    if (eof_ || !ok()) return false;
    unsigned char frame[8];
    const std::size_t got = std::fread(frame, 1, sizeof frame, in_);
    if (got == 0) {
      eof_ = true;  // clean end of stream
      return false;
    }
    if (got != sizeof frame || decode_u32_le(frame) != kChunkMagic) {
      fail_chunk("truncated or corrupt chunk frame");
      return false;
    }
    const std::uint32_t header_len = decode_u32_le(frame + 4);
    if (header_len == 0 || header_len > kMaxChunkHeader) {
      fail_chunk("implausible chunk header size");
      return false;
    }
    unsigned char crc_buf[4];
    if (!read_exact(in_, crc_buf, sizeof crc_buf)) {
      fail_chunk("truncated chunk header crc");
      return false;
    }
    const std::uint32_t header_crc = decode_u32_le(crc_buf);
    std::string header(header_len, '\0');
    if (!read_exact(in_, header.data(), header.size())) {
      fail_chunk("truncated chunk header");
      return false;
    }
    if (crc32(header) != header_crc) {
      fail_chunk("header checksum mismatch (torn or corrupt chunk)");
      return false;
    }

    ChunkInfo chunk;
    std::size_t pos = 0;
    std::uint64_t rows = 0;
    std::uint64_t min_zz = 0;
    std::uint64_t max_zz = 0;
    std::uint64_t kind_count = 0;
    bool header_ok = get_varint(header, pos, rows) &&
                     get_varint(header, pos, min_zz) &&
                     get_varint(header, pos, max_zz) &&
                     get_varint(header, pos, kind_count);
    if (header_ok && (rows == 0 || rows > kMaxChunkRows ||
                      kind_count > rows)) {
      header_ok = false;
    }
    std::uint64_t meta_raw = 0;
    std::uint64_t meta_comp = 0;
    std::uint64_t data_raw = 0;
    std::uint64_t data_comp = 0;
    std::uint64_t meta_crc = 0;
    std::uint64_t data_crc = 0;
    if (header_ok) {
      chunk.rows = rows;
      chunk.min_ts = unzigzag(min_zz);
      chunk.max_ts = unzigzag(max_zz);
      chunk.kind_counts.reserve(kind_count);
      for (std::uint64_t i = 0; header_ok && i < kind_count; ++i) {
        std::uint64_t sym = 0;
        std::uint64_t count = 0;
        header_ok = get_varint(header, pos, sym) &&
                    get_varint(header, pos, count);
        chunk.kind_counts.emplace_back(static_cast<util::Symbol>(sym), count);
      }
      header_ok = header_ok && get_varint(header, pos, meta_raw) &&
                  get_varint(header, pos, meta_comp) &&
                  get_varint(header, pos, data_raw) &&
                  get_varint(header, pos, data_comp) &&
                  get_varint(header, pos, meta_crc) &&
                  get_varint(header, pos, data_crc) && pos == header.size();
    }
    if (!header_ok || meta_raw > kMaxSectionBytes ||
        meta_comp > kMaxSectionBytes || data_raw > kMaxSectionBytes ||
        data_comp > kMaxSectionBytes) {
      fail_chunk("corrupt chunk header");
      return false;
    }

    // Meta must always be applied: later chunks reference this chunk's
    // dictionary delta even when its rows are skipped.
    std::string meta_blob(meta_comp, '\0');
    if (!read_exact(in_, meta_blob.data(), meta_blob.size())) {
      fail_chunk("truncated chunk meta");
      return false;
    }
    if (crc32(meta_blob) != meta_crc) {
      fail_chunk("meta checksum mismatch (corrupt chunk)");
      return false;
    }
    std::string meta;
    if (meta_blob.size() == meta_raw) {
      meta = std::move(meta_blob);
    } else if (!lz_decompress(meta_blob, meta_raw, meta)) {
      fail_chunk("meta decompression failed (corrupt chunk)");
      return false;
    }
    pos = 0;
    std::uint64_t new_strings = 0;
    if (!get_varint(meta, pos, new_strings) ||
        new_strings > kMaxSectionBytes) {
      fail_chunk("corrupt dictionary delta");
      return false;
    }
    for (std::uint64_t i = 0; i < new_strings; ++i) {
      std::uint64_t len = 0;
      if (!get_varint(meta, pos, len) || pos + len > meta.size()) {
        fail_chunk("corrupt dictionary entry");
        return false;
      }
      dict_.emplace_back(meta.data() + pos, len);
      dict_lookup_.emplace(std::string_view(dict_.back()),
                           static_cast<util::Symbol>(dict_.size() - 1));
      pos += len;
    }
    std::uint64_t new_shapes = 0;
    if (!get_varint(meta, pos, new_shapes) || new_shapes > kMaxChunkRows) {
      fail_chunk("corrupt shape delta");
      return false;
    }
    for (std::uint64_t i = 0; i < new_shapes; ++i) {
      ShapeDef shape;
      std::uint64_t kind_sym = 0;
      std::uint64_t nfields = 0;
      if (!get_varint(meta, pos, kind_sym) || pos >= meta.size()) {
        fail_chunk("corrupt shape entry");
        return false;
      }
      shape.kind = static_cast<util::Symbol>(kind_sym);
      shape.entity_kind = static_cast<std::uint8_t>(meta[pos++]);
      if (shape.kind >= dict_.size() || shape.entity_kind > kEntityString ||
          !get_varint(meta, pos, nfields) || nfields > meta.size()) {
        fail_chunk("corrupt shape entry");
        return false;
      }
      shape.fields.reserve(nfields);
      for (std::uint64_t f = 0; f < nfields; ++f) {
        std::uint64_t key_sym = 0;
        if (!get_varint(meta, pos, key_sym) || pos >= meta.size() ||
            key_sym >= dict_.size()) {
          fail_chunk("corrupt shape field");
          return false;
        }
        const auto type = static_cast<std::uint8_t>(meta[pos++]);
        if (type > static_cast<std::uint8_t>(FieldType::kNull)) {
          fail_chunk("corrupt shape field type");
          return false;
        }
        shape.fields.emplace_back(static_cast<util::Symbol>(key_sym), type);
      }
      shapes_.push_back(std::move(shape));
    }
    if (pos != meta.size()) {
      fail_chunk("trailing bytes in chunk meta");
      return false;
    }

    if (info != nullptr) *info = chunk;

    const bool want_rows = !stats_only && chunk_matches_filter(chunk);
    if (!want_rows) {
      if (std::fseek(in_, static_cast<long>(data_comp), SEEK_CUR) != 0) {
        fail_chunk("seek past skipped chunk failed");
        return false;
      }
      ++stats_.chunks_skipped;
      ++recovery_.salvaged_chunks;
      note_chunk_salvaged(chunk.rows);
      if (stats_only) return true;  // caller consumes header info
      continue;
    }

    std::string data_blob(data_comp, '\0');
    if (!read_exact(in_, data_blob.data(), data_blob.size())) {
      fail_chunk("truncated chunk data");
      return false;
    }
    if (crc32(data_blob) != data_crc) {
      fail_chunk("data checksum mismatch (corrupt chunk)");
      return false;
    }
    std::string data;
    if (data_blob.size() == data_raw) {
      data = std::move(data_blob);
    } else if (!lz_decompress(data_blob, data_raw, data)) {
      fail_chunk("data decompression failed (corrupt chunk)");
      return false;
    }

    // Decode core columns.
    pos = 0;
    std::vector<std::uint32_t> shape_ids(chunk.rows);
    for (std::uint64_t r = 0; r < chunk.rows; ++r) {
      std::uint64_t v = 0;
      if (!get_varint(data, pos, v) || v >= shapes_.size()) {
        fail_chunk("corrupt shape column");
        return false;
      }
      shape_ids[r] = static_cast<std::uint32_t>(v);
    }
    std::vector<std::int64_t> ts_col(chunk.rows);
    std::int64_t prev_ts = 0;
    for (std::uint64_t r = 0; r < chunk.rows; ++r) {
      std::uint64_t v = 0;
      if (!get_varint(data, pos, v)) {
        fail_chunk("corrupt ts column");
        return false;
      }
      prev_ts = delta_decode(v, prev_ts);
      ts_col[r] = prev_ts;
    }
    std::uint64_t n_ent_ints = 0;
    if (!get_varint(data, pos, n_ent_ints) || n_ent_ints > chunk.rows) {
      fail_chunk("corrupt entity column");
      return false;
    }
    std::vector<std::int64_t> ent_ints(n_ent_ints);
    std::int64_t prev_ent = 0;
    for (std::uint64_t r = 0; r < n_ent_ints; ++r) {
      std::uint64_t v = 0;
      if (!get_varint(data, pos, v)) {
        fail_chunk("corrupt entity column");
        return false;
      }
      prev_ent = delta_decode(v, prev_ent);
      ent_ints[r] = prev_ent;
    }
    std::uint64_t n_ent_strs = 0;
    if (!get_varint(data, pos, n_ent_strs) ||
        n_ent_strs > chunk.rows - n_ent_ints) {
      fail_chunk("corrupt entity column");
      return false;
    }
    std::vector<util::Symbol> ent_strs(n_ent_strs);
    for (std::uint64_t r = 0; r < n_ent_strs; ++r) {
      std::uint64_t v = 0;
      if (!get_varint(data, pos, v) || v >= dict_.size()) {
        fail_chunk("corrupt entity symbol");
        return false;
      }
      ent_strs[r] = static_cast<util::Symbol>(v);
    }

    // Field-column directory: decode each column's packed values.
    struct ColData {
      std::vector<std::uint64_t> values;
      std::size_t cursor = 0;
    };
    std::uint64_t n_cols = 0;
    if (!get_varint(data, pos, n_cols) || n_cols > kMaxChunkRows) {
      fail_chunk("corrupt column directory");
      return false;
    }
    std::unordered_map<std::uint64_t, ColData> columns;
    columns.reserve(n_cols);
    for (std::uint64_t c = 0; c < n_cols; ++c) {
      std::uint64_t key_sym = 0;
      std::uint64_t count = 0;
      std::uint64_t len = 0;
      if (!get_varint(data, pos, key_sym) || pos >= data.size() ||
          key_sym >= dict_.size()) {
        fail_chunk("corrupt column header");
        return false;
      }
      const auto type = static_cast<std::uint8_t>(data[pos++]);
      if (type > static_cast<std::uint8_t>(FieldType::kNull) ||
          !get_varint(data, pos, count) || !get_varint(data, pos, len) ||
          pos + len > data.size() || count > kMaxChunkRows) {
        fail_chunk("corrupt column header");
        return false;
      }
      const std::string_view bytes(data.data() + pos, len);
      pos += len;
      ColData col;
      col.values.reserve(count);
      std::size_t bpos = 0;
      switch (static_cast<FieldType>(type)) {
        case FieldType::kInt: {
          std::int64_t prev = 0;
          for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t v = 0;
            if (!get_varint(bytes, bpos, v)) {
              fail_chunk("corrupt int column");
              return false;
            }
            prev = delta_decode(v, prev);
            col.values.push_back(int_bits(prev));
          }
          break;
        }
        case FieldType::kDouble:
          for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t v = 0;
            if (!get_u64_le(bytes, bpos, v)) {
              fail_chunk("corrupt double column");
              return false;
            }
            col.values.push_back(v);
          }
          break;
        case FieldType::kBool:
          for (std::uint64_t i = 0; i < count; ++i) {
            if (bpos >= bytes.size()) {
              fail_chunk("corrupt bool column");
              return false;
            }
            col.values.push_back(bytes[bpos++] != 0 ? 1 : 0);
          }
          break;
        case FieldType::kString:
          for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t v = 0;
            if (!get_varint(bytes, bpos, v) || v >= dict_.size()) {
              fail_chunk("corrupt string column");
              return false;
            }
            col.values.push_back(v);
          }
          break;
        case FieldType::kNull:
          col.values.assign(count, 0);
          break;
      }
      if (bpos != bytes.size()) {
        fail_chunk("trailing bytes in column");
        return false;
      }
      columns[col_key(static_cast<util::Symbol>(key_sym), type)] =
          std::move(col);
    }
    if (pos != data.size()) {
      fail_chunk("trailing bytes in chunk data");
      return false;
    }

    // Assemble rows: shape order drives which column each value comes
    // from; values were packed in the same row-major traversal.
    rows_.clear();
    values_.clear();
    rows_.reserve(chunk.rows);
    std::size_t int_cursor = 0;
    std::size_t str_cursor = 0;
    for (std::uint64_t r = 0; r < chunk.rows; ++r) {
      const ShapeDef& shape = shapes_[shape_ids[r]];
      RowRef row;
      row.ts = ts_col[r];
      row.shape = shape_ids[r];
      if (shape.entity_kind == kEntityString) {
        if (str_cursor >= ent_strs.size()) {
          fail_chunk("entity column underrun");
          return false;
        }
        row.entity = ent_strs[str_cursor++];
      } else {
        if (int_cursor >= ent_ints.size()) {
          fail_chunk("entity column underrun");
          return false;
        }
        row.entity = int_bits(ent_ints[int_cursor++]);
      }
      row.value_start = values_.size();
      for (const auto& [key_sym, type] : shape.fields) {
        const auto it = columns.find(col_key(key_sym, type));
        if (it == columns.end() ||
            it->second.cursor >= it->second.values.size()) {
          fail_chunk("column underrun (corrupt chunk)");
          return false;
        }
        values_.push_back(it->second.values[it->second.cursor++]);
      }
      rows_.push_back(row);
    }
    for (const auto& [key, col] : columns) {
      if (col.cursor != col.values.size()) {
        fail_chunk("column overrun (corrupt chunk)");
        return false;
      }
    }

    row_cursor_ = 0;
    ++stats_.chunks_read;
    stats_.rows_decoded += chunk.rows;
    ++recovery_.salvaged_chunks;
    note_chunk_salvaged(chunk.rows);
    return true;
  }
}

bool ColReader::chunk_matches_filter(const ChunkInfo& info) {
  if (filter_.ts_from && info.max_ts < *filter_.ts_from) return false;
  if (filter_.ts_to && info.min_ts > *filter_.ts_to) return false;
  if (!filter_.kinds.empty()) {
    // Resolve filter kinds against the dictionary as it stands; a kind
    // not yet interned cannot label any row of this chunk.
    filter_kind_syms_.clear();
    for (const std::string& k : filter_.kinds) {
      const auto it = dict_lookup_.find(std::string_view(k));
      if (it != dict_lookup_.end()) filter_kind_syms_.push_back(it->second);
    }
    bool any = false;
    for (const auto& [sym, count] : info.kind_counts) {
      if (std::find(filter_kind_syms_.begin(), filter_kind_syms_.end(),
                    sym) != filter_kind_syms_.end()) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

bool ColReader::row_passes_filter(const RowRef& row) const {
  if (filter_.ts_from && row.ts < *filter_.ts_from) return false;
  if (filter_.ts_to && row.ts > *filter_.ts_to) return false;
  const ShapeDef& shape = shapes_[row.shape];
  if (!filter_.kinds.empty() &&
      std::find(filter_kind_syms_.begin(), filter_kind_syms_.end(),
                shape.kind) == filter_kind_syms_.end()) {
    return false;
  }
  if (filter_.site) {
    bool hit = false;
    std::size_t value_index = row.value_start;
    for (const auto& [key_sym, type] : shape.fields) {
      if (static_cast<FieldType>(type) == FieldType::kInt &&
          (key_sym == site_sym_ || key_sym == src_sym_ ||
           key_sym == dst_sym_) &&
          bits_int(values_[value_index]) == *filter_.site) {
        hit = true;
      }
      ++value_index;
    }
    if (!hit) return false;
  }
  return true;
}

bool ColReader::next(FlatObject& out) {
  for (;;) {
    if (row_cursor_ >= rows_.size()) {
      if (!load_chunk(/*stats_only=*/false, nullptr)) return false;
      if (filter_.site) {
        // Site/src/dst key symbols may appear in any chunk's dict delta.
        const auto resolve = [this](std::string_view key) {
          const auto it = dict_lookup_.find(key);
          return it != dict_lookup_.end() ? it->second : util::kNoSymbol;
        };
        site_sym_ = resolve("site");
        src_sym_ = resolve("src");
        dst_sym_ = resolve("dst");
      }
      continue;
    }
    const RowRef& row = rows_[row_cursor_++];
    if (!row_passes_filter(row)) continue;

    const ShapeDef& shape = shapes_[row.shape];
    std::vector<FlatMember>& members = out.members;
    members.clear();
    // A new member is null until typed below.
    const auto add = [&members](std::string_view key) -> FlatMember& {
      FlatMember& m = members.emplace_back();
      m.key = key;
      return m;
    };
    const auto symbol = [this](std::uint64_t bits) {
      return view(static_cast<util::Symbol>(bits));
    };
    set_int(add("ts"), row.ts);
    set_string(add("kind"), view(shape.kind));
    if (shape.entity_kind == kEntityString) {
      set_string(add("entity"), symbol(row.entity));
    } else {
      set_int(add("entity"), bits_int(row.entity));
    }
    std::size_t value_index = row.value_start;
    for (const auto& [key_sym, type] : shape.fields) {
      const std::uint64_t bits = values_[value_index++];
      FlatMember& m = add(view(key_sym));
      switch (static_cast<FieldType>(type)) {
        case FieldType::kInt: set_int(m, bits_int(bits)); break;
        case FieldType::kDouble:
          m.kind = Kind::kNumber;
          m.num_v = bits_double(bits);
          m.int_v = util::json::saturating_int(m.num_v);
          break;
        case FieldType::kBool:
          m.kind = Kind::kBool;
          m.bool_v = bits != 0;
          break;
        case FieldType::kString: set_string(m, symbol(bits)); break;
        case FieldType::kNull: break;
      }
    }
    ++stats_.rows_emitted;
    return true;
  }
}

// --- free functions ---------------------------------------------------------

namespace {

/// The number of leading bytes of `path`, up to the magic's length,
/// when they all agree with the magic; 0 when they do not or the file
/// cannot be read.
std::size_t magic_prefix_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  char magic[kMagicBytes];
  const std::size_t got = std::fread(magic, 1, sizeof magic, f);
  std::fclose(f);
  return std::memcmp(magic, kFileHeader, got) == 0 ? got : 0;
}

}  // namespace

bool is_colstore_file(const std::string& path) {
  return magic_prefix_bytes(path) == kMagicBytes;
}

bool starts_like_colstore_file(const std::string& path) {
  return magic_prefix_bytes(path) > 0;
}

std::optional<ColStats> colstore_stats(const std::string& path,
                                       std::string* error) {
  ColReader reader(path);
  ColStats stats;
  ColReader::ChunkInfo info;
  bool first = true;
  while (reader.load_chunk(/*stats_only=*/true, &info)) {
    ++stats.chunks;
    stats.events += info.rows;
    if (first) {
      stats.min_ts = info.min_ts;
      stats.max_ts = info.max_ts;
      first = false;
    } else {
      stats.min_ts = std::min(stats.min_ts, info.min_ts);
      stats.max_ts = std::max(stats.max_ts, info.max_ts);
    }
    for (const auto& [sym, count] : info.kind_counts) {
      stats.kind_counts[std::string(reader.view(sym))] += count;
    }
  }
  if (!reader.ok()) {
    if (error != nullptr) *error = reader.error();
    return std::nullopt;
  }
  stats.dict_strings = reader.dict_.size();
  stats.shapes = reader.shapes_.size();
  if (reader.in_ != nullptr) {
    const long at = std::ftell(reader.in_);
    if (at > 0) stats.file_bytes = static_cast<std::uint64_t>(at);
  }
  return stats;
}

}  // namespace pandarus::obs
