// Monospace table rendering for benchmark/report output.
//
// Every bench binary regenerating a paper table prints through this so the
// rows line up with the paper's layout.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace pandarus::util {

enum class Align { kLeft, kRight };

class Table {
 public:
  /// Column headers define the table width; every row must have the same
  /// number of cells.
  explicit Table(std::vector<std::string> headers);

  void set_align(std::size_t column, Align align);
  void add_row(std::vector<std::string> cells);
  /// Inserts a horizontal rule before the next added row.
  void add_separator();

  [[nodiscard]] std::string to_string() const;
  void print(std::ostream& os) const;

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator_before = false;
  };

  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<Row> rows_;
  bool pending_separator_ = false;
};

}  // namespace pandarus::util
