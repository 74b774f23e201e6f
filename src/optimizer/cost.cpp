#include "optimizer/cost.hpp"

#include <cmath>
#include <mutex>

#include "common/error.hpp"

namespace disco::optimizer {

namespace {

/// Did an EWMA move enough to make cached plans stale?
bool moved_materially(double before, double after, double threshold) {
  double scale = std::max(std::abs(before), 1e-9);
  return std::abs(after - before) > threshold * scale;
}

}  // namespace

bool CostHistory::update(std::unordered_map<std::string, Entry>& map,
                         const std::string& key, double time_s, double rows,
                         const Entry* prior) {
  Entry& entry = map[key];
  if (entry.count == 0) {
    entry.time_ewma = time_s;
    entry.rows_ewma = rows;
    ++entry.count;
    // First observation for this key: new information unless it matches
    // the estimate the key was answered with until now.
    return prior == nullptr ||
           moved_materially(prior->time_ewma, time_s, kMaterialChange) ||
           moved_materially(prior->rows_ewma, rows, kMaterialChange);
  }
  double time_before = entry.time_ewma;
  double rows_before = entry.rows_ewma;
  entry.time_ewma = alpha_ * time_s + (1 - alpha_) * entry.time_ewma;
  entry.rows_ewma = alpha_ * rows + (1 - alpha_) * entry.rows_ewma;
  ++entry.count;
  return moved_materially(time_before, entry.time_ewma, kMaterialChange) ||
         moved_materially(rows_before, entry.rows_ewma, kMaterialChange);
}

void CostHistory::record(const std::string& repository,
                         const algebra::LogicalPtr& remote, double time_s,
                         size_t rows) {
  internal_check(remote != nullptr, "cannot record a null expression");
  Shard& shard = shard_for(repository);
  const double n = static_cast<double>(rows);
  bool material;
  {
    std::unique_lock lock(shard.mutex);
    const std::string close_key =
        repository + "|" + algebra::signature(remote);
    // estimate() answers a key without an exact entry from its close
    // entry, else its repository's: read that before either moves.
    const Entry* prior = nullptr;
    if (auto it = shard.close.find(close_key); it != shard.close.end()) {
      prior = &it->second;
    } else if (auto repo = shard.per_repository.find(repository);
               repo != shard.per_repository.end()) {
      prior = &repo->second;
    }
    material = update(shard.exact,
                      repository + "|" + algebra::to_algebra_string(remote),
                      time_s, n, prior);
    update(shard.close, close_key, time_s, n, nullptr);
    update(shard.per_repository, repository, time_s, n, nullptr);
  }
  if (material) {
    version_.fetch_add(1, std::memory_order_release);
  }
}

CostHistory::Estimate CostHistory::estimate(
    const std::string& repository, const algebra::LogicalPtr& remote) const {
  internal_check(remote != nullptr, "cannot estimate a null expression");
  Shard& shard = shard_for(repository);
  std::shared_lock lock(shard.mutex);
  auto exact_it =
      shard.exact.find(repository + "|" + algebra::to_algebra_string(remote));
  if (exact_it != shard.exact.end()) {
    return Estimate{exact_it->second.time_ewma, exact_it->second.rows_ewma,
                    Basis::Exact, exact_it->second.count};
  }
  auto close_it =
      shard.close.find(repository + "|" + algebra::signature(remote));
  if (close_it != shard.close.end()) {
    return Estimate{close_it->second.time_ewma, close_it->second.rows_ewma,
                    Basis::Close, close_it->second.count};
  }
  auto repo_it = shard.per_repository.find(repository);
  if (repo_it != shard.per_repository.end()) {
    return Estimate{repo_it->second.time_ewma, repo_it->second.rows_ewma,
                    Basis::Repository, repo_it->second.count};
  }
  return Estimate{};  // the paper's 0/1 default
}

size_t CostHistory::exact_entries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    total += shard.exact.size();
  }
  return total;
}

size_t CostHistory::repository_entries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    total += shard.per_repository.size();
  }
  return total;
}

size_t CostHistory::close_entries() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    total += shard.close.size();
  }
  return total;
}

void CostHistory::clear() {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mutex);
    shard.exact.clear();
    shard.close.clear();
    shard.per_repository.clear();
  }
  version_.fetch_add(1, std::memory_order_release);
}

}  // namespace disco::optimizer
