#ifndef AUTOBI_TABLE_COLUMN_H_
#define AUTOBI_TABLE_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "table/value.h"

namespace autobi {

// A typed, in-memory column. Storage is columnar: exactly one of the typed
// vectors is populated (chosen by `type()`), plus a null mask. Cells can also
// be read back uniformly as canonical string keys (`KeyAt`), which is how the
// join-discovery layers compare values across columns of different types
// (e.g. an int FK column against a string PK column holding digits).
class Column {
 public:
  Column() = default;
  explicit Column(std::string name, ValueType type = ValueType::kNull)
      : name_(std::move(name)), type_(type) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  ValueType type() const { return type_; }
  size_t size() const { return null_.size(); }
  bool empty() const { return null_.empty(); }

  // Number of non-null cells.
  size_t num_non_null() const { return size() - num_null_; }
  size_t num_null() const { return num_null_; }

  // --- Appending cells. The column's type must match (or be kNull, in which
  // case the first typed append fixes the type).
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendNull();

  // Preallocates room for `rows` cells of the column's type.
  void Reserve(size_t rows);

  // Appends a textual cell, parsing it according to the column's type. Used
  // by the CSV reader after type inference. A cell that fails to parse as the
  // column type is stored as null for numeric columns.
  void AppendParsed(std::string_view cell);

  // --- Reading cells.
  bool IsNull(size_t i) const { return null_[i] != 0; }
  int64_t Int(size_t i) const;
  double Double(size_t i) const;
  const std::string& Str(size_t i) const;

  // Numeric view of cell i: the value as a double for int/double columns, or
  // NaN for nulls / string columns. Used by range-overlap and EMD features.
  double AsDouble(size_t i) const;

  // Canonical string key for joins. Ints render as decimal, doubles with
  // %.12g (so 3 and 3.0 compare equal across int/double columns), strings are
  // verbatim. Returns false for null cells.
  bool KeyAt(size_t i, std::string* out) const;

  // Materializes all non-null keys (in row order, duplicates preserved).
  std::vector<std::string> Keys() const;

 private:
  void EnsureType(ValueType t);

  std::string name_;
  ValueType type_ = ValueType::kNull;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> null_;
  size_t num_null_ = 0;
};

}  // namespace autobi

#endif  // AUTOBI_TABLE_COLUMN_H_
