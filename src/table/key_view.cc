#include "table/key_view.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/hash.h"

namespace autobi {

namespace {

// Bounded signed decimal formatting, byte-identical to std::to_string:
// writes into buf (at least 21 bytes) and returns the length.
inline size_t FormatInt64(int64_t v, char* buf) {
  char tmp[20];
  size_t n = 0;
  // Negate into unsigned space so INT64_MIN does not overflow.
  uint64_t u = v < 0 ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
  do {
    tmp[n++] = static_cast<char>('0' + u % 10);
    u /= 10;
  } while (u != 0);
  size_t len = 0;
  if (v < 0) buf[len++] = '-';
  while (n > 0) buf[len++] = tmp[--n];
  return len;
}

// Canonical key bytes of a double, matching Column::KeyAt: integral doubles
// render like ints so cross-type joins line up, everything else as %.12g.
// std::to_chars with chars_format::general is specified to produce printf
// %.12g output (C locale) and runs ~5x faster than snprintf, which dominates
// view-build time on double-heavy tables.
inline size_t FormatDouble(double v, char* buf, size_t buf_size) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return FormatInt64(static_cast<int64_t>(v), buf);
  }
  auto [p, ec] =
      std::to_chars(buf, buf + buf_size, v, std::chars_format::general, 12);
  if (ec == std::errc{}) return static_cast<size_t>(p - buf);
  int n = std::snprintf(buf, buf_size, "%.12g", v);
  return n > 0 ? static_cast<size_t>(n) : 0;
}

}  // namespace

void ColumnKeyView::BuildSuffix(const Column& col, size_t from_row) {
  const size_t total = col.size();
  AUTOBI_CHECK_MSG(from_row <= total, "suffix view past the end of the column");
  const size_t n = total - from_row;
  const ValueType type = col.type();
  col_ = nullptr;
  row_offset_ = from_row;
  pool_.clear();
  hashes_.assign(n, 0);
  num_non_null_ = 0;
  key_bytes_ = 0;
  // A whole-column view knows its null count up front (the column tracks a
  // whole-column total), so a dense column never allocates a mask. A suffix
  // carries one through the pass and drops it if the suffix was dense.
  has_nulls_ = from_row > 0 || col.num_non_null() < total ||
               type == ValueType::kNull;
  if (has_nulls_) {
    null_.assign(n, 0);
  } else {
    null_.clear();
  }

  if (type == ValueType::kString) {
    // A string cell's canonical key is the cell itself: borrow the column's
    // storage instead of copying it into an arena (no pool, no offsets — one
    // hashing pass is the whole build).
    col_ = &col;
    offsets_.clear();
    for (size_t i = 0; i < n; ++i) {
      const size_t r = from_row + i;
      if (col.IsNull(r)) {
        null_[i] = 1;
        continue;
      }
      const std::string& s = col.Str(r);
      key_bytes_ += s.size();
      hashes_[i] = FnvBytes(kFnvOffset, s.data(), s.size());
      ++num_non_null_;
    }
  } else {
    // Numeric keys are formatted into one arena addressed by offsets; an
    // untyped (kNull) column has only null cells.
    offsets_.assign(n + 1, 0);
    if (type != ValueType::kNull) pool_.reserve(n * 8);
    char buf[40];
    for (size_t i = 0; i < n; ++i) {
      const size_t r = from_row + i;
      offsets_[i] = pool_.size();
      if (type == ValueType::kNull || col.IsNull(r)) {
        null_[i] = 1;
        continue;
      }
      const size_t len = type == ValueType::kInt
                             ? FormatInt64(col.Int(r), buf)
                             : FormatDouble(col.Double(r), buf, sizeof(buf));
      pool_.append(buf, len);
      hashes_[i] = FnvBytes(kFnvOffset, buf, len);
      ++num_non_null_;
    }
    offsets_[n] = pool_.size();
    key_bytes_ = pool_.size();
  }
  has_nulls_ = num_non_null_ < n;
  if (!has_nulls_) null_.clear();
}

void TableKeyView::Build(const Table& table) {
  columns_.clear();
  columns_.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    // Ragged tables violate Table's contract (Table::Validate); the view
    // kernels index every column by the shared row count, so fail loudly
    // here instead of reading out of bounds later.
    AUTOBI_CHECK_MSG(table.column(c).size() == table.num_rows(),
                     "TableKeyView over a ragged table");
    columns_.emplace_back(table.column(c));
  }
}

void StableRadixSortByHash(std::vector<HashRow>* items,
                           std::vector<HashRow>* scratch) {
  size_t n = items->size();
  if (n < 2) return;
  if (n < 1024) {
    // Radix setup does not pay for itself on tiny inputs.
    std::stable_sort(
        items->begin(), items->end(),
        [](const HashRow& a, const HashRow& b) { return a.hash < b.hash; });
    return;
  }
  scratch->resize(n);
  // MSD hybrid: one scatter pass partitions by the top 14 hash bits (bucket
  // order == global hash order), then each small bucket is finished with a
  // stable insertion sort over the remaining bits. One pass of scatter
  // traffic instead of LSD's eight; stability holds because the scatter
  // preserves input order within a bucket and insertion sort never reorders
  // equal hashes. Buckets the insertion cutoff can't handle (skewed top
  // bits — e.g. low-cardinality hash sets) fall back to std::stable_sort.
  constexpr int kBits = 14;
  constexpr size_t kBuckets = size_t(1) << kBits;
  constexpr int kShift = 64 - kBits;
  constexpr size_t kInsertionCutoff = 32;
  std::vector<uint32_t> start(kBuckets + 1, 0);
  for (const HashRow& e : *items) ++start[(e.hash >> kShift) + 1];
  for (size_t d = 0; d < kBuckets; ++d) start[d + 1] += start[d];
  {
    std::vector<uint32_t> pos(start.begin(), start.end() - 1);
    HashRow* dst = scratch->data();
    for (const HashRow& e : *items) dst[pos[e.hash >> kShift]++] = e;
  }
  HashRow* a = scratch->data();
  for (size_t d = 0; d < kBuckets; ++d) {
    size_t lo = start[d], hi = start[d + 1];
    if (hi - lo < 2) continue;
    if (hi - lo <= kInsertionCutoff) {
      for (size_t i = lo + 1; i < hi; ++i) {
        HashRow e = a[i];
        size_t j = i;
        while (j > lo && a[j - 1].hash > e.hash) {
          a[j] = a[j - 1];
          --j;
        }
        a[j] = e;
      }
    } else {
      std::stable_sort(a + lo, a + hi, [](const HashRow& x, const HashRow& y) {
        return x.hash < y.hash;
      });
    }
  }
  items->swap(*scratch);
}

bool TupleHashFromViews(const std::vector<const ColumnKeyView*>& cols,
                        size_t r, uint64_t* out) {
  uint64_t h = kFnvOffset;
  for (const ColumnKeyView* view : cols) {
    if (view->IsNull(r)) return false;
    std::string_view key = view->key(r);
    for (char ch : key) {
      if (ch == '|' || ch == '\\') h = FnvStep(h, '\\');
      h = FnvStep(h, static_cast<unsigned char>(ch));
    }
    h = FnvStep(h, '|');
  }
  *out = h;
  return true;
}

}  // namespace autobi
