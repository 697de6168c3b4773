// Sampling utilities: k-of-n without replacement (Fisher–Yates over an index
// pool or Floyd's algorithm) and weighted category draws. These drive latch
// selection ("randomly choose latches from all latches in the design", paper
// Figure 1) and the Figure 2 resampling study.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "stats/rng.hpp"

namespace sfi::stats {

/// Choose k distinct values from [0, n) uniformly at random.
/// Uses Floyd's algorithm (O(k) expected) — suitable for k << n — and a
/// partial Fisher–Yates when k is a large fraction of n.
[[nodiscard]] std::vector<u64> sample_without_replacement(u64 n, u64 k,
                                                          Xoshiro256& rng);

/// Draw an index from a discrete distribution given non-negative weights.
/// Linear scan; intended for small weight vectors (per-unit cross-sections).
[[nodiscard]] std::size_t weighted_index(std::span<const double> weights,
                                         Xoshiro256& rng);

}  // namespace sfi::stats
