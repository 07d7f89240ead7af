#include "profile/column_profile.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "profile/sketch.h"

namespace autobi {

namespace {

// Numeric min/max plus the strided distribution sample. Byte-identical to
// the historical ProfileColumn loop: stride covers the whole column, the
// sample is capped at max_sample, nulls do not advance the stride phase.
void NumericStats(const Column& col, ColumnProfile* p, size_t max_sample) {
  if (!p->is_numeric) return;
  std::vector<double> numeric;
  numeric.reserve(std::min(p->non_null_count, max_sample));
  size_t stride = 1;
  if (p->non_null_count > max_sample) {
    stride = (p->non_null_count + max_sample - 1) / max_sample;
  }
  bool first = true;
  size_t non_null_seen = 0;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col.IsNull(i)) continue;
    double v = col.AsDouble(i);
    if (first) {
      p->min_value = p->max_value = v;
      first = false;
    } else {
      p->min_value = std::min(p->min_value, v);
      p->max_value = std::max(p->max_value, v);
    }
    if (non_null_seen % stride == 0 && numeric.size() < max_sample) {
      numeric.push_back(v);
    }
    ++non_null_seen;
  }
  std::sort(numeric.begin(), numeric.end());
  p->sorted_numeric_sample = std::move(numeric);
}

// One slot of the open-addressing distinct table: a distinct hash with its
// run count and first (lowest) row.
struct DistinctSlot {
  uint64_t hash;
  uint32_t first_row;
  int32_t count;  // 0 marks an empty slot.
};

// Distinct keys beyond a slot's representative, as (slot, first row). Only a
// true 64-bit collision between different keys populates it.
using ExtraReps = std::vector<std::pair<size_t, uint32_t>>;

// The slot table is thread_local so small-table profiling (the corpus
// workload: hundreds of rows, dozens of columns per table) does not pay a
// malloc per column; ProbeDistinct rewrites every slot before reading it.
std::vector<DistinctSlot>& ThreadSlots() {
  static thread_local std::vector<DistinctSlot> slots;
  return slots;
}

// The one distinct probe over a key view, shared by profiling and the UCC
// value ids: an open-addressing table keyed by the cell's stable hash, one
// slot per distinct hash. Rows are visited in order, so the first insert
// into a slot is the first occurrence. Fibonacci finalizer on the slot
// index, linear probing. Calls on_row(i, rep) for every non-null row i, rep
// being the first row holding key(i): equal hashes are verified by key
// bytes, and a true 64-bit collision gets its own entry in `extra_reps`
// (kept so num_distinct stays exact, like the legacy string-map kernel).
// Returns the number of occupied slots.
template <typename OnRow>
size_t ProbeDistinct(const ColumnKeyView& view,
                     std::vector<DistinctSlot>& slots, ExtraReps* extra_reps,
                     OnRow&& on_row) {
  // Sized against the all-distinct worst case at ~0.8 max load; the usual
  // load is distinct/cap, far lower, and prefetching hides the probes.
  size_t cap = 16;
  while (cap * 4 < view.num_non_null() * 5) cap <<= 1;
  const int idx_shift =
      64 - static_cast<int>(std::countr_zero(cap));  // cap is a power of 2.
  slots.assign(cap, DistinctSlot{0, 0, 0});
  size_t runs = 0;
  const size_t n_rows = view.size();
  // The slot table exceeds cache for large columns, so each probe is a
  // dependent memory miss; prefetching the slot a fixed distance ahead
  // overlaps those misses and is the difference between ~60ns and ~15ns per
  // row on the 100k-row profiling workload.
  constexpr size_t kPrefetchAhead = 16;
  for (size_t i = 0; i < n_rows; ++i) {
    if (i + kPrefetchAhead < n_rows && !view.IsNull(i + kPrefetchAhead)) {
      uint64_t hp = view.hash(i + kPrefetchAhead);
      __builtin_prefetch(&slots[(hp * 0x9E3779B97F4A7C15ULL) >> idx_shift], 1);
    }
    if (view.IsNull(i)) continue;
    uint64_t h = view.hash(i);
    size_t idx = (h * 0x9E3779B97F4A7C15ULL) >> idx_shift;
    while (true) {
      DistinctSlot& s = slots[idx];
      if (s.count == 0) {
        s = DistinctSlot{h, static_cast<uint32_t>(i), 1};
        ++runs;
        on_row(i, s.first_row);
        break;
      }
      if (s.hash == h) {
        ++s.count;
        uint32_t rep = s.first_row;
        // Verify-on-collision: equal hash does not prove an equal key.
        if (view.key(i) != view.key(rep)) {
          rep = static_cast<uint32_t>(i);
          for (const auto& [slot_idx, row] : *extra_reps) {
            if (slot_idx == idx && view.key(row) == view.key(i)) {
              rep = row;
              break;
            }
          }
          if (rep == i) extra_reps->emplace_back(idx, rep);
        }
        on_row(i, rep);
        break;
      }
      idx = (idx + 1) & (cap - 1);
    }
  }
  return runs;
}

// Single-pass distinct aggregation of `view` into the profile's distinct
// vectors (hashes/counts/pool/offsets), collision bookkeeping, num_distinct
// and key_bytes. Shared by full-column profiling and the append-only delta
// path (MergeAppendedColumnProfile), which runs it over a suffix view.
void AggregateDistinct(const ColumnKeyView& view, ColumnProfile* out) {
  ColumnProfile& p = *out;
  std::vector<DistinctSlot>& slots = ThreadSlots();
  ExtraReps extra_reps;
  const size_t runs =
      ProbeDistinct(view, slots, &extra_reps, [](size_t, uint32_t) {});

  // Order the distinct entries by hash (each hash owns one slot, so there
  // are no ties) and size the long-lived vectors exactly — profiles sit in
  // the cross-request caches, so no slack capacity.
  static thread_local std::vector<HashRow> hr;
  static thread_local std::vector<HashRow> scratch;
  hr.clear();
  hr.reserve(runs);
  for (size_t idx = 0; idx < slots.size(); ++idx) {
    if (slots[idx].count != 0) {
      hr.push_back(HashRow{slots[idx].hash, static_cast<uint32_t>(idx)});
    }
  }
  StableRadixSortByHash(&hr, &scratch);
  size_t rep_bytes = 0;
  for (const HashRow& e : hr) rep_bytes += view.key(slots[e.row].first_row).size();

  p.distinct_hashes.reserve(runs);
  p.distinct_counts.reserve(runs);
  p.distinct_offsets.reserve(runs + 1);
  p.distinct_pool.reserve(rep_bytes);
  for (const HashRow& e : hr) {
    const DistinctSlot& s = slots[e.row];
    p.distinct_hashes.push_back(s.hash);
    p.distinct_counts.push_back(s.count);
    p.distinct_offsets.push_back(p.distinct_pool.size());
    std::string_view rep = view.key(s.first_row);
    p.distinct_pool.append(rep.data(), rep.size());
  }
  p.distinct_offsets.push_back(p.distinct_pool.size());
  p.num_distinct = runs + extra_reps.size();
  p.key_bytes = view.key_bytes();
  if (!extra_reps.empty()) {
    // Canonical collision order: (hash ascending, first-occurrence row
    // ascending). extra_reps was appended in row order, so a stable sort by
    // slot hash preserves the per-hash occurrence order.
    std::stable_sort(extra_reps.begin(), extra_reps.end(),
                     [&](const std::pair<size_t, uint32_t>& a,
                         const std::pair<size_t, uint32_t>& b) {
                       return slots[a.first].hash < slots[b.first].hash;
                     });
    p.collision_hashes.reserve(extra_reps.size());
    p.collision_keys.reserve(extra_reps.size());
    for (const auto& [slot_idx, row] : extra_reps) {
      p.collision_hashes.push_back(slots[slot_idx].hash);
      p.collision_keys.emplace_back(view.key(row));
    }
  }
}

}  // namespace

void ColumnValueIds(const ColumnKeyView& view, std::vector<uint32_t>* ids) {
  ids->assign(view.size(), kNullValueId);
  ExtraReps extra_reps;
  ProbeDistinct(view, ThreadSlots(), &extra_reps,
                [ids](size_t i, uint32_t rep) { (*ids)[i] = rep; });
}

ColumnProfile ProfileColumn(const Column& col, const ColumnKeyView& view,
                            size_t max_sample) {
  ColumnProfile p;
  p.type = col.type();
  p.row_count = col.size();
  p.non_null_count = col.num_non_null();
  p.is_numeric =
      col.type() == ValueType::kInt || col.type() == ValueType::kDouble;
  AggregateDistinct(view, &p);
  if (p.non_null_count > 0) {
    p.distinct_ratio = static_cast<double>(p.num_distinct) /
                       static_cast<double>(p.non_null_count);
    p.avg_value_length = static_cast<double>(p.key_bytes) /
                         static_cast<double>(p.non_null_count);
  }
  NumericStats(col, &p, max_sample);
  return p;
}

ColumnProfile ProfileColumn(const Column& col, size_t max_sample) {
  return ProfileColumn(col, ColumnKeyView(col), max_sample);
}

TableProfile ProfileTable(const Table& table, size_t max_sample) {
  TableProfile tp;
  tp.row_count = table.num_rows();
  tp.columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    // One transient view per column keeps peak memory at a single column.
    ColumnKeyView view(table.column(c));
    tp.columns.push_back(ProfileColumn(table.column(c), view, max_sample));
  }
  return tp;
}

TableProfile ProfileTable(const Table& table, const TableKeyView& view,
                          size_t max_sample) {
  TableProfile tp;
  tp.row_count = table.num_rows();
  tp.columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    tp.columns.push_back(
        ProfileColumn(table.column(c), view.column(c), max_sample));
  }
  return tp;
}

ColumnProfile MergeAppendedColumnProfile(const ColumnProfile& old_profile,
                                         const Column& col,
                                         size_t max_sample) {
  // invariant: the caller proved (via the per-column prefix content hash)
  // that col's first old_profile.row_count rows are byte-identical to what
  // old_profile summarized — which also pins the declared type.
  AUTOBI_CHECK(old_profile.row_count <= col.size());
  AUTOBI_CHECK(old_profile.type == col.type());

  // Aggregate the appended suffix only; everything per-key below is
  // O(delta). The one full-column pass left is NumericStats at the end.
  ColumnKeyView delta_view;
  delta_view.BuildSuffix(col, old_profile.row_count);
  ColumnProfile delta;
  AggregateDistinct(delta_view, &delta);

  ColumnProfile m;
  m.type = col.type();
  m.row_count = col.size();
  m.non_null_count = col.num_non_null();
  m.is_numeric =
      col.type() == ValueType::kInt || col.type() == ValueType::kDouble;
  m.key_bytes = old_profile.key_bytes + delta.key_bytes;

  // Sorted merge of the two strictly-increasing distinct-hash vectors. For
  // a shared hash the old representative wins (its row precedes every delta
  // row), counts add, and any delta key not already among the old keys of
  // that hash becomes a collision entry — exactly the bookkeeping a from-
  // scratch scan would produce, in the same (hash, first-occurrence) order.
  const std::vector<uint64_t>& oh = old_profile.distinct_hashes;
  const std::vector<uint64_t>& dh = delta.distinct_hashes;
  m.distinct_hashes.reserve(oh.size() + dh.size());
  m.distinct_counts.reserve(oh.size() + dh.size());
  m.distinct_offsets.reserve(oh.size() + dh.size() + 1);
  m.distinct_pool.reserve(old_profile.distinct_pool.size() +
                          delta.distinct_pool.size());
  size_t i = 0;
  size_t j = 0;
  size_t ci = 0;  // Cursor into old_profile.collision_hashes.
  size_t cj = 0;  // Cursor into delta.collision_hashes.
  auto emit = [&m](uint64_t hash, int32_t count, std::string_view rep) {
    m.distinct_hashes.push_back(hash);
    m.distinct_counts.push_back(count);
    m.distinct_offsets.push_back(m.distinct_pool.size());
    m.distinct_pool.append(rep.data(), rep.size());
  };
  while (i < oh.size() || j < dh.size()) {
    bool from_old = j >= dh.size() || (i < oh.size() && oh[i] < dh[j]);
    bool from_delta = i >= oh.size() || (j < dh.size() && dh[j] < oh[i]);
    if (from_old) {
      uint64_t h = oh[i];
      emit(h, old_profile.distinct_counts[i], old_profile.distinct_key(i));
      while (ci < old_profile.collision_hashes.size() &&
             old_profile.collision_hashes[ci] == h) {
        m.collision_hashes.push_back(h);
        m.collision_keys.push_back(old_profile.collision_keys[ci]);
        ++ci;
      }
      ++i;
    } else if (from_delta) {
      uint64_t h = dh[j];
      emit(h, delta.distinct_counts[j], delta.distinct_key(j));
      while (cj < delta.collision_hashes.size() &&
             delta.collision_hashes[cj] == h) {
        m.collision_hashes.push_back(h);
        m.collision_keys.push_back(std::move(delta.collision_keys[cj]));
        ++cj;
      }
      ++j;
    } else {
      // Shared hash. Old keys of this hash first (representative + old
      // collisions), then every delta key of the hash not already present.
      uint64_t h = oh[i];
      emit(h,
           old_profile.distinct_counts[i] + delta.distinct_counts[j],
           old_profile.distinct_key(i));
      size_t old_coll_begin = ci;
      while (ci < old_profile.collision_hashes.size() &&
             old_profile.collision_hashes[ci] == h) {
        m.collision_hashes.push_back(h);
        m.collision_keys.push_back(old_profile.collision_keys[ci]);
        ++ci;
      }
      auto known = [&](std::string_view key) {
        if (key == old_profile.distinct_key(i)) return true;
        for (size_t k = old_coll_begin; k < ci; ++k) {
          if (key == old_profile.collision_keys[k]) return true;
        }
        return false;
      };
      if (!known(delta.distinct_key(j))) {
        m.collision_hashes.push_back(h);
        m.collision_keys.emplace_back(delta.distinct_key(j));
      }
      while (cj < delta.collision_hashes.size() &&
             delta.collision_hashes[cj] == h) {
        if (!known(delta.collision_keys[cj])) {
          m.collision_hashes.push_back(h);
          m.collision_keys.push_back(std::move(delta.collision_keys[cj]));
        }
        ++cj;
      }
      ++i;
      ++j;
    }
  }
  m.distinct_offsets.push_back(m.distinct_pool.size());
  m.num_distinct = m.distinct_hashes.size() + m.collision_keys.size();
  if (m.non_null_count > 0) {
    m.distinct_ratio = static_cast<double>(m.num_distinct) /
                       static_cast<double>(m.non_null_count);
    m.avg_value_length = static_cast<double>(m.key_bytes) /
                         static_cast<double>(m.non_null_count);
  }
  // Min/max and the strided sample depend on the total non-null count (the
  // stride phase restarts from row 0), so they are recomputed over the full
  // column — a cheap numeric scan, not a key-rendering pass.
  NumericStats(col, &m, max_sample);
  return m;
}

TableProfile MergeAppendedTableProfile(const TableProfile& old_profile,
                                       const Table& table,
                                       size_t max_sample) {
  AUTOBI_CHECK(old_profile.columns.size() == table.num_columns());
  TableProfile tp;
  tp.row_count = table.num_rows();
  tp.columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    tp.columns.push_back(MergeAppendedColumnProfile(old_profile.columns[c],
                                                    table.column(c),
                                                    max_sample));
  }
  return tp;
}

TableProfile MetadataOnlyProfile(const Table& table) {
  TableProfile tp;
  tp.row_count = 0;
  tp.columns.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    tp.columns[c].type = table.column(c).type();
    tp.columns[c].is_numeric = tp.columns[c].type == ValueType::kInt ||
                               tp.columns[c].type == ValueType::kDouble;
  }
  return tp;
}

std::vector<TableProfile> ProfileTables(const std::vector<Table>& tables,
                                        size_t max_sample, int threads) {
  std::vector<TableProfile> out(tables.size());
  ParallelFor(
      tables.size(),
      [&](size_t i) { out[i] = ProfileTable(tables[i], max_sample); },
      threads);
  return out;
}

double Containment(const ColumnProfile& a, const ColumnProfile& b) {
  if (a.non_null_count == 0) return 0.0;
  const std::vector<uint64_t>& ah = a.distinct_hashes;
  const std::vector<uint64_t>& bh = b.distinct_hashes;
  int64_t hits = 0;
  if (ah.size() * 16 < bh.size()) {
    // Heavy size skew (typical FK probing a much larger key column): gallop
    // from a moving cursor instead of full-width binary searches. Because
    // both vectors are sorted, each probe starts where the previous one
    // landed — for tiny dependents the exponential steps stay within a few
    // cache lines, so this path beats the string-map kernel even at the
    // skew ratios where full binary search used to lose.
    const uint64_t* b_data = bh.data();
    size_t nb = bh.size();
    size_t from = 0;
    for (size_t i = 0; i < ah.size() && from < nb; ++i) {
      uint64_t t = ah[i];
      size_t lo = from;
      size_t hi = from;
      size_t step = 1;
      while (hi < nb && b_data[hi] < t) {
        lo = hi + 1;
        hi = from + step;
        step <<= 1;
      }
      if (hi > nb) hi = nb;
      size_t pos = std::lower_bound(b_data + lo, b_data + hi, t) - b_data;
      if (pos < nb && b_data[pos] == t) hits += a.distinct_counts[i];
      from = pos;
    }
  } else {
    size_t i = 0;
    size_t j = 0;
    while (i < ah.size() && j < bh.size()) {
      if (ah[i] < bh[j]) {
        ++i;
      } else if (bh[j] < ah[i]) {
        ++j;
      } else {
        hits += a.distinct_counts[i];
        ++i;
        ++j;
      }
    }
  }
  return static_cast<double>(hits) / static_cast<double>(a.non_null_count);
}

}  // namespace autobi
