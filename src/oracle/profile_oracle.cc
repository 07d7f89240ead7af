#include "oracle/profile_oracle.h"

#include <algorithm>
#include <unordered_set>

#include "profile/sketch.h"
#include "profile/ucc_internal.h"

namespace autobi {

namespace {

// Concatenates the canonical keys of `columns` at row r with an unambiguous
// separator. Returns false if any cell is null.
bool TupleKey(const Table& table, const std::vector<int>& columns, size_t r,
              std::string* out) {
  out->clear();
  std::string cell;
  for (int c : columns) {
    if (!table.column(static_cast<size_t>(c)).KeyAt(r, &cell)) return false;
    // Escape the separator so ("a|b","c") != ("a","b|c").
    for (char ch : cell) {
      if (ch == '|' || ch == '\\') out->push_back('\\');
      out->push_back(ch);
    }
    out->push_back('|');
  }
  return true;
}

}  // namespace

ColumnProfile ProfileColumnLegacy(const Column& col, size_t max_sample) {
  ColumnProfile p;
  p.type = col.type();
  p.row_count = col.size();
  p.non_null_count = col.num_non_null();
  p.is_numeric =
      col.type() == ValueType::kInt || col.type() == ValueType::kDouble;

  // The original per-cell hot path: a fresh canonical key string per cell,
  // distinct counting through a node-based string map.
  struct Entry {
    int32_t count = 0;
    uint32_t first_row = 0;
  };
  std::unordered_map<std::string, Entry> distinct;
  std::string key;
  size_t len_sum = 0;
  bool first_numeric = true;
  std::vector<double> numeric;
  numeric.reserve(std::min(p.non_null_count, max_sample));
  size_t stride = 1;
  if (p.is_numeric && p.non_null_count > max_sample) {
    stride = (p.non_null_count + max_sample - 1) / max_sample;
  }
  size_t non_null_seen = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) continue;
    if (col.KeyAt(i, &key)) {
      len_sum += key.size();
      auto [it, inserted] = distinct.try_emplace(key);
      if (inserted) it->second.first_row = static_cast<uint32_t>(i);
      ++it->second.count;
    }
    if (p.is_numeric) {
      double v = col.AsDouble(i);
      if (first_numeric) {
        p.min_value = p.max_value = v;
        first_numeric = false;
      } else {
        p.min_value = std::min(p.min_value, v);
        p.max_value = std::max(p.max_value, v);
      }
      if (non_null_seen % stride == 0 && numeric.size() < max_sample) {
        numeric.push_back(v);
      }
    }
    ++non_null_seen;
  }
  p.num_distinct = distinct.size();
  p.key_bytes = len_sum;
  if (p.non_null_count > 0) {
    p.distinct_ratio = static_cast<double>(distinct.size()) /
                       static_cast<double>(p.non_null_count);
    p.avg_value_length = static_cast<double>(len_sum) /
                         static_cast<double>(p.non_null_count);
  }
  std::sort(numeric.begin(), numeric.end());
  p.sorted_numeric_sample = std::move(numeric);

  // Materialize the sorted distinct vectors the same way the hash-first
  // kernel does: entries ordered by (hash, first_row), equal hashes merged
  // by summing counts with the lowest-row key as the run representative.
  struct Hashed {
    uint64_t hash;
    uint32_t first_row;
    int32_t count;
  };
  std::vector<Hashed> entries;
  entries.reserve(distinct.size());
  for (const auto& [k, e] : distinct) {
    entries.push_back(Hashed{StableHash64(k), e.first_row, e.count});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Hashed& a, const Hashed& b) {
              if (a.hash != b.hash) return a.hash < b.hash;
              return a.first_row < b.first_row;
            });
  for (size_t i = 0; i < entries.size();) {
    size_t j = i + 1;
    int32_t count = entries[i].count;
    while (j < entries.size() && entries[j].hash == entries[i].hash) {
      count += entries[j].count;
      // A merged run's non-representative keys are true 64-bit collisions;
      // the (hash, first_row) sort already puts them in first-occurrence
      // order, matching the hash kernel's bookkeeping.
      p.collision_hashes.push_back(entries[j].hash);
      p.collision_rows.push_back(entries[j].first_row);
      ++j;
    }
    p.distinct_hashes.push_back(entries[i].hash);
    p.distinct_counts.push_back(count);
    p.distinct_rows.push_back(entries[i].first_row);
    i = j;
  }
  return p;
}

DistinctKeyMap BuildDistinctKeyMap(const Column& col) {
  DistinctKeyMap m;
  std::string key;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.KeyAt(r, &key)) ++m[key];
  }
  return m;
}

double ContainmentViaStringMap(const DistinctKeyMap& a, size_t a_non_null,
                               const DistinctKeyMap& b) {
  if (a_non_null == 0) return 0.0;
  int64_t hits = 0;
  for (const auto& [key, count] : a) {
    if (b.count(key)) hits += count;
  }
  return static_cast<double>(hits) / static_cast<double>(a_non_null);
}

double ContainmentViaStringMap(const Column& a, const Column& b) {
  return ContainmentViaStringMap(BuildDistinctKeyMap(a), a.num_non_null(),
                                 BuildDistinctKeyMap(b));
}

bool IsUniqueCombinationLegacy(const Table& table,
                               const std::vector<int>& columns) {
  std::unordered_set<std::string> seen;
  seen.reserve(table.num_rows() * 2);
  std::string key;
  size_t non_null_rows = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!TupleKey(table, columns, r, &key)) continue;
    ++non_null_rows;
    if (!seen.insert(key).second) return false;
  }
  return non_null_rows > 0;
}

std::vector<Ucc> DiscoverUccsLegacy(const Table& table,
                                    const TableProfile& profile,
                                    const UccOptions& options) {
  return DiscoverUccsWithCheck(table, profile, options,
                               &IsUniqueCombinationLegacy);
}

bool TupleHash(const Table& table, const std::vector<int>& columns, size_t r,
               uint64_t* out, std::string* scratch) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](char c) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  };
  for (int c : columns) {
    if (!table.column(static_cast<size_t>(c)).KeyAt(r, scratch)) return false;
    for (char ch : *scratch) {
      if (ch == '|' || ch == '\\') mix('\\');
      mix(ch);
    }
    mix('|');
  }
  *out = h;
  return true;
}

CompositeKeyCache::HashSet BuildCompositeKeySetLegacy(
    const Table& table, const std::vector<int>& cols) {
  CompositeKeyCache::HashSet referenced;
  referenced.reserve(table.num_rows() * 2);
  std::string scratch;
  uint64_t h = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (TupleHash(table, cols, r, &h, &scratch)) referenced.insert(h);
  }
  return referenced;
}

double CompositeContainmentLegacy(const Table& ta, const std::vector<int>& ca,
                                  const Table& tb, const std::vector<int>& cb) {
  CompositeKeyCache::HashSet referenced = BuildCompositeKeySetLegacy(tb, cb);
  size_t total = 0;
  size_t hits = 0;
  std::string scratch;
  uint64_t h = 0;
  for (size_t r = 0; r < ta.num_rows(); ++r) {
    if (!TupleHash(ta, ca, r, &h, &scratch)) continue;
    ++total;
    if (referenced.count(h)) ++hits;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

}  // namespace autobi
