#ifndef AUTOBI_TABLE_TABLE_H_
#define AUTOBI_TABLE_TABLE_H_

#include <deque>
#include <string>
#include <vector>

#include "table/column.h"

namespace autobi {

// An in-memory relational table: a name plus equal-length typed columns.
// Tables are the unit the Auto-BI problem is defined over (Definition 1).
//
// A Table is a cheap handle. The name lives in the handle; the columns live
// in storage that copies share, so copying a table (or a vector of them)
// copies no cell. Writes are copy-on-write: the non-const `column(i)` and
// `AddColumn` first give this handle its own copy of the columns when
// another handle still shares them, so a write never shows through a copy.
// Const access never copies. Copies may be read from any number of threads
// at once, and each handle may be written by one thread while others read
// or write their own copies.
//
// The one rule: a `Column&` returned by a non-const accessor points into
// storage the handle may share later. Do not copy a table while such a
// reference is in use, and do not use the reference after the table has
// been copied — writes through it would reach the copy too.
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}
  Table(const Table& other);
  Table(Table&& other) noexcept;
  Table& operator=(const Table& other);
  Table& operator=(Table&& other) noexcept;
  ~Table();

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t num_columns() const { return columns().size(); }
  size_t num_rows() const {
    return columns().empty() ? 0 : columns().front().size();
  }

  const Column& column(size_t i) const { return columns()[i]; }
  Column& column(size_t i) { return MutableColumns()[i]; }
  const std::deque<Column>& columns() const;

  // Adds a column; all columns must end up with the same length (checked by
  // Validate()). The returned reference stays valid across later AddColumn
  // calls on this handle (columns live in a deque) until the table is
  // copied.
  Column& AddColumn(std::string name, ValueType type = ValueType::kNull);

  // Index of the column with the given name, or -1.
  int ColumnIndex(std::string_view name) const;

  // Checks that all columns have the same number of rows.
  bool Validate() const;

 private:
  struct Storage;

  // This handle's columns for writing, copied first if another handle
  // shares them.
  std::deque<Column>& MutableColumns();
  // Drops this handle's reference; the last one frees the storage.
  void Release();

  std::string name_;
  Storage* storage_ = nullptr;  // Null: no columns.
};

// A reference to an ordered list of columns within one table of a table set
// (used for join endpoints; usually a single column, composite for
// multi-column joins).
struct ColumnRef {
  int table = -1;
  std::vector<int> columns;

  bool operator==(const ColumnRef& o) const {
    return table == o.table && columns == o.columns;
  }
  bool operator<(const ColumnRef& o) const {
    if (table != o.table) return table < o.table;
    return columns < o.columns;
  }
};

// Renders "TableName(colA,colB)" for diagnostics.
std::string ColumnRefToString(const std::vector<Table>& tables,
                              const ColumnRef& ref);

}  // namespace autobi

#endif  // AUTOBI_TABLE_TABLE_H_
