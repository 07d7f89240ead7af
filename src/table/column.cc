#include "table/column.h"

#include <charconv>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/strings.h"

namespace autobi {

void Column::EnsureType(ValueType t) {
  if (type_ == ValueType::kNull) {
    type_ = t;
    // Backfill placeholder slots for any nulls appended before the type was
    // known.
    size_t n = null_.size();
    switch (t) {
      case ValueType::kInt:
        ints_.resize(n, 0);
        break;
      case ValueType::kDouble:
        doubles_.resize(n, 0.0);
        break;
      case ValueType::kString:
        strings_.resize(n);
        break;
      case ValueType::kNull:
        break;
    }
    return;
  }
  // invariant: loaders fix a column's type before appending to it.
  AUTOBI_CHECK_MSG(type_ == t, "column type mismatch on append");
}

void Column::AppendInt(int64_t v) {
  EnsureType(ValueType::kInt);
  ints_.push_back(v);
  null_.push_back(0);
}

void Column::AppendDouble(double v) {
  EnsureType(ValueType::kDouble);
  doubles_.push_back(v);
  null_.push_back(0);
}

void Column::AppendString(std::string v) {
  EnsureType(ValueType::kString);
  strings_.push_back(std::move(v));
  null_.push_back(0);
}

void Column::AppendNull() {
  switch (type_) {
    case ValueType::kInt:
      ints_.push_back(0);
      break;
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      strings_.emplace_back();
      break;
    case ValueType::kNull:
      break;
  }
  null_.push_back(1);
  ++num_null_;
}

void Column::Reserve(size_t rows) {
  null_.reserve(rows);
  switch (type_) {
    case ValueType::kInt:
      ints_.reserve(rows);
      break;
    case ValueType::kDouble:
      doubles_.reserve(rows);
      break;
    case ValueType::kString:
      strings_.reserve(rows);
      break;
    case ValueType::kNull:
      break;
  }
}

void Column::AppendParsed(std::string_view cell) {
  std::string_view t = Trim(cell);
  if (t.empty()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ValueType::kInt: {
      int64_t v;
      if (ParseInt64(t, &v)) {
        AppendInt(v);
      } else {
        AppendNull();
      }
      return;
    }
    case ValueType::kDouble: {
      double v;
      if (ParseDouble(t, &v)) {
        AppendDouble(v);
      } else {
        AppendNull();
      }
      return;
    }
    case ValueType::kString:
    case ValueType::kNull:
      AppendString(std::string(t));
      return;
  }
}

int64_t Column::Int(size_t i) const {
  AUTOBI_CHECK(type_ == ValueType::kInt);  // invariant: caller checked type().
  return ints_[i];
}

double Column::Double(size_t i) const {
  AUTOBI_CHECK(type_ == ValueType::kDouble);  // invariant: caller checked type().
  return doubles_[i];
}

const std::string& Column::Str(size_t i) const {
  AUTOBI_CHECK(type_ == ValueType::kString);  // invariant: caller checked type().
  return strings_[i];
}

double Column::AsDouble(size_t i) const {
  if (IsNull(i)) return std::numeric_limits<double>::quiet_NaN();
  switch (type_) {
    case ValueType::kInt:
      return static_cast<double>(ints_[i]);
    case ValueType::kDouble:
      return doubles_[i];
    default:
      return std::numeric_limits<double>::quiet_NaN();
  }
}

bool Column::KeyAt(size_t i, std::string* out) const {
  if (IsNull(i)) return false;
  switch (type_) {
    case ValueType::kInt:
      *out = std::to_string(ints_[i]);
      return true;
    case ValueType::kDouble: {
      double v = doubles_[i];
      // Integral doubles render like ints so cross-type joins line up.
      if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
        *out = std::to_string(static_cast<int64_t>(v));
      } else {
        // std::to_chars(general, 12) emits exactly printf %.12g bytes and is
        // ~5x faster; fall back to StrFormat if the buffer ever overflows.
        char buf[40];
        auto [p, ec] =
            std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                          12);
        if (ec == std::errc{}) {
          out->assign(buf, static_cast<size_t>(p - buf));
        } else {
          *out = StrFormat("%.12g", v);
        }
      }
      return true;
    }
    case ValueType::kString:
      *out = strings_[i];
      return true;
    case ValueType::kNull:
      return false;
  }
  return false;
}

std::vector<std::string> Column::Keys() const {
  std::vector<std::string> out;
  out.reserve(size());
  std::string key;
  for (size_t i = 0; i < size(); ++i) {
    if (KeyAt(i, &key)) out.push_back(key);
  }
  return out;
}

}  // namespace autobi
