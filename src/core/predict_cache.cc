#include "core/predict_cache.h"

#include <utility>

namespace autobi {

template <typename T>
std::shared_ptr<const T> PredictCache::Find(const Shard<T>& shard,
                                            uint64_t key) const {
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    ++const_cast<Shard<T>&>(shard).misses;
    return nullptr;
  }
  ++const_cast<Shard<T>&>(shard).hits;
  return it->second;
}

template <typename T>
void PredictCache::Insert(Shard<T>& shard, size_t capacity, uint64_t key,
                          std::shared_ptr<const T> entry) {
  auto [it, inserted] = shard.map.emplace(key, std::move(entry));
  if (!inserted) return;  // First writer wins; entries are deterministic.
  shard.insertion_order.push_back(key);
  // FIFO eviction keeps the shard bounded. The queue can hold keys already
  // evicted-and-reinserted; erase lazily until the map is under capacity.
  size_t scan = 0;
  while (capacity > 0 && shard.map.size() > capacity &&
         scan < shard.insertion_order.size()) {
    uint64_t victim = shard.insertion_order[scan++];
    if (victim != key && shard.map.erase(victim) > 0) ++evictions_;
  }
  if (scan > 0) {
    shard.insertion_order.erase(shard.insertion_order.begin(),
                                shard.insertion_order.begin() + long(scan));
    shard.insertion_order.push_back(key);
  }
}

std::shared_ptr<const PredictCache::TableEntry> PredictCache::FindTable(
    uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Find(tables_, key);
}

void PredictCache::InsertTable(uint64_t key,
                               std::shared_ptr<const TableEntry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  Insert(tables_, options_.max_table_entries, key, std::move(entry));
}

std::shared_ptr<const PredictCache::SolveEntry> PredictCache::FindSolve(
    uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Find(solves_, key);
}

void PredictCache::InsertSolve(uint64_t key,
                               std::shared_ptr<const SolveEntry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  Insert(solves_, options_.max_solve_entries, key, std::move(entry));
}

PredictCache::Stats PredictCache::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.table_hits = tables_.hits;
  s.table_misses = tables_.misses;
  s.solve_hits = solves_.hits;
  s.solve_misses = solves_.misses;
  s.table_entries = tables_.map.size();
  s.solve_entries = solves_.map.size();
  s.evictions = evictions_;
  return s;
}

}  // namespace autobi
