#include "core/predict_cache.h"

#include <utility>
#include <vector>

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
  // Evicted entries are freed after mu_ is released: a table entry's
  // profile can take longer to free than the insert takes.
  std::vector<std::shared_ptr<const T>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // First writer wins; entries are deterministic.
    if (!shard.map.try_emplace(key, std::move(entry)).second) return;
    shard.insertion_order.push_back(key);
    // FIFO eviction keeps the shard bounded. The queue holds exactly the
    // map's keys, so its front is the oldest entry, never `key`.
    while (capacity > 0 && shard.map.size() > capacity) {
      auto victim = shard.map.find(shard.insertion_order.front());
      shard.insertion_order.pop_front();
      evicted.push_back(std::move(victim->second));
      shard.map.erase(victim);
      ++evictions_;
    }
  }
}

std::shared_ptr<const PredictCache::TableEntry> PredictCache::FindTable(
    uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Find(tables_, key);
}

void PredictCache::InsertTable(uint64_t key,
                               std::shared_ptr<const TableEntry> entry) {
  Insert(tables_, options_.max_table_entries, key, std::move(entry));
}

std::shared_ptr<const PredictCache::SolveEntry> PredictCache::FindSolve(
    uint64_t key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Find(solves_, key);
}

void PredictCache::InsertSolve(uint64_t key,
                               std::shared_ptr<const SolveEntry> entry) {
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
