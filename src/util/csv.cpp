#include "util/csv.hpp"

#include <ostream>

namespace pandarus::util {
namespace {

bool needs_quoting(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

void write_field(std::ostream& os, std::string_view field) {
  if (!needs_quoting(field)) {
    os << field;
    return;
  }
  os << '"';
  for (char ch : field) {
    if (ch == '"') os << '"';
    os << ch;
  }
  os << '"';
}

}  // namespace

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) os_ << ',';
    write_field(os_, fields[i]);
  }
  os_ << '\n';
}

}  // namespace pandarus::util
