#include "stats/sampling.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/check.hpp"

namespace sfi::stats {

std::vector<u64> sample_without_replacement(u64 n, u64 k, Xoshiro256& rng) {
  require(k <= n, "sample_without_replacement k <= n");
  std::vector<u64> out;
  out.reserve(k);
  if (k == 0) return out;

  // Dense case: partial Fisher-Yates over an explicit pool.
  if (k * 3 >= n) {
    std::vector<u64> pool(n);
    std::iota(pool.begin(), pool.end(), u64{0});
    for (u64 i = 0; i < k; ++i) {
      const u64 j = i + rng.below(n - i);
      std::swap(pool[i], pool[j]);
      out.push_back(pool[i]);
    }
    return out;
  }

  // Sparse case: Floyd's algorithm.
  std::unordered_set<u64> seen;
  seen.reserve(static_cast<std::size_t>(k * 2));
  for (u64 j = n - k; j < n; ++j) {
    const u64 t = rng.below(j + 1);
    if (seen.insert(t).second) {
      out.push_back(t);
    } else {
      seen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

std::size_t weighted_index(std::span<const double> weights, Xoshiro256& rng) {
  require(!weights.empty(), "weighted_index needs weights");
  double total = 0.0;
  for (const double w : weights) {
    require(w >= 0.0, "weighted_index weights >= 0");
    total += w;
  }
  require(total > 0.0, "weighted_index total weight > 0");
  double x = rng.uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x <= 0.0) return i;
  }
  return weights.size() - 1;  // numerical slack lands on the last bucket
}

}  // namespace sfi::stats
