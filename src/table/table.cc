#include "table/table.h"

#include <atomic>
#include <utility>

#include "common/strings.h"

namespace autobi {

// The columns of one table and the number of handles sharing them.
struct Table::Storage {
  std::atomic<size_t> refs{1};
  std::deque<Column> columns;
};

Table::Table(const Table& other)
    : name_(other.name_), storage_(other.storage_) {
  if (storage_ != nullptr) {
    storage_->refs.fetch_add(1, std::memory_order_relaxed);
  }
}

Table::Table(Table&& other) noexcept
    : name_(std::move(other.name_)),
      storage_(std::exchange(other.storage_, nullptr)) {}

Table& Table::operator=(const Table& other) {
  return *this = Table(other);
}

Table& Table::operator=(Table&& other) noexcept {
  if (this != &other) {
    Release();
    name_ = std::move(other.name_);
    storage_ = std::exchange(other.storage_, nullptr);
  }
  return *this;
}

Table::~Table() { Release(); }

void Table::Release() {
  // The release half orders this handle's reads of the columns before
  // whichever handle next sees the count fall to one and writes in place.
  if (storage_ != nullptr &&
      storage_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete storage_;
  }
  storage_ = nullptr;
}

const std::deque<Column>& Table::columns() const {
  static const std::deque<Column> kNoColumns;
  return storage_ != nullptr ? storage_->columns : kNoColumns;
}

std::deque<Column>& Table::MutableColumns() {
  if (storage_ == nullptr) {
    storage_ = new Storage;
  } else if (storage_->refs.load(std::memory_order_acquire) != 1) {
    // Acquire pairs with Release() above: once the count reads one, every
    // other handle's reads of these columns happened before this write.
    Storage* own = new Storage;
    own->columns = storage_->columns;
    Release();
    storage_ = own;
  }
  return storage_->columns;
}

Column& Table::AddColumn(std::string name, ValueType type) {
  std::deque<Column>& columns = MutableColumns();
  columns.emplace_back(std::move(name), type);
  return columns.back();
}

int Table::ColumnIndex(std::string_view name) const {
  const std::deque<Column>& cols = columns();
  for (size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].name() == name) return static_cast<int>(i);
  }
  return -1;
}

bool Table::Validate() const {
  const std::deque<Column>& cols = columns();
  if (cols.empty()) return true;
  size_t n = cols[0].size();
  for (const Column& c : cols) {
    if (c.size() != n) return false;
  }
  return true;
}

std::string ColumnRefToString(const std::vector<Table>& tables,
                              const ColumnRef& ref) {
  std::string out;
  if (ref.table >= 0 && ref.table < static_cast<int>(tables.size())) {
    out = tables[ref.table].name();
  } else {
    out = StrFormat("T%d", ref.table);
  }
  out += "(";
  const Table* t = (ref.table >= 0 && ref.table < (int)tables.size())
                       ? &tables[ref.table]
                       : nullptr;
  for (size_t i = 0; i < ref.columns.size(); ++i) {
    if (i > 0) out += ",";
    int c = ref.columns[i];
    if (t != nullptr && c >= 0 && c < static_cast<int>(t->num_columns())) {
      out += t->column(c).name();
    } else {
      out += StrFormat("c%d", c);
    }
  }
  out += ")";
  return out;
}

}  // namespace autobi
