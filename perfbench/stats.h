// Statistics and seeded-input helpers of the repo benchmark
// (perfbench.cc), kept apart so stats_test.cc can pin them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "util/rng.h"

namespace s2::perfbench {

// Median of `samples` (mean of the two middle values for an even count);
// 0 when there are none.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return (samples[mid - 1] + samples[mid]) / 2;
}

// Medians of consecutive parts of `part` samples each; a trailing partial
// part is dropped.
inline std::vector<double> PartMedians(const std::vector<double>& samples,
                                       size_t part) {
  std::vector<double> medians;
  for (size_t lo = 0; part > 0 && lo + part <= samples.size(); lo += part) {
    medians.push_back(Median({samples.begin() + lo,
                              samples.begin() + lo + part}));
  }
  return medians;
}

// The lowest of the PartMedians: the median of the window's fastest
// stretch, which a host that changes speed for seconds at a time moves far
// less than the median of the whole window. The whole window's median when
// it holds no complete part.
inline double LowestPartMedian(const std::vector<double>& samples,
                               size_t part) {
  std::vector<double> medians = PartMedians(samples, part);
  if (medians.empty()) return Median(samples);
  return *std::min_element(medians.begin(), medians.end());
}

// Nearest-rank p-th percentile (0 < p < 100) of `samples`, or nullopt when
// fewer than `min_beyond` samples lie above it: a tail figure that rests
// on a handful of samples is not reported at all.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double p, size_t min_beyond = 10) {
  if (samples.empty() || p <= 0 || p >= 100) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * double(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  return samples[rank - 1];
}

// Operations a run attempted and how many of them failed. A failed
// operation is any wrong verdict, missing result, fallback or leak.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  bool correct() const { return attempted > 0 && failed == 0; }
};

// `count` draws from `ranking` under a Zipf law of exponent `skew`: the
// element at rank i comes up in proportion to 1 / (i + 1)^skew. skew 0 is
// uniform.
inline std::vector<uint32_t> ZipfDraws(util::Rng& rng, size_t count,
                                       const std::vector<uint32_t>& ranking,
                                       double skew) {
  std::vector<uint32_t> out;
  if (ranking.empty()) return out;
  std::vector<double> cumulative(ranking.size());
  double total = 0;
  for (size_t i = 0; i < ranking.size(); ++i) {
    total += 1.0 / std::pow(double(i + 1), skew);
    cumulative[i] = total;
  }
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    double u = rng.NextDouble() * total;
    size_t rank = static_cast<size_t>(
        std::upper_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    out.push_back(ranking[std::min(rank, ranking.size() - 1)]);
  }
  return out;
}

// ZipfDraws from [0, universe) over a seed-shuffled ranking, so which
// elements are popular also depends on the seed. The same seed always
// gives the same stream.
inline std::vector<uint32_t> SkewedStream(uint64_t seed, size_t count,
                                          size_t universe, double skew) {
  util::Rng rng(seed);
  std::vector<uint32_t> ranking(universe);
  std::iota(ranking.begin(), ranking.end(), 0u);
  rng.Shuffle(ranking);
  return ZipfDraws(rng, count, ranking, skew);
}

// A ranking of every member of `groups` whose ranks take the groups in
// turn (group 0, 1, ..., then 0 again), each group in a seed-shuffled
// order. Every seed then spreads the popular ranks over the groups the
// same way; only which member of a group holds a rank changes.
inline std::vector<uint32_t> StratifiedRanking(
    uint64_t seed, std::vector<std::vector<uint32_t>> groups) {
  util::Rng rng(seed);
  size_t longest = 0;
  for (std::vector<uint32_t>& group : groups) {
    rng.Shuffle(group);
    longest = std::max(longest, group.size());
  }
  std::vector<uint32_t> ranking;
  for (size_t i = 0; i < longest; ++i) {
    for (const std::vector<uint32_t>& group : groups) {
      if (i < group.size()) ranking.push_back(group[i]);
    }
  }
  return ranking;
}

}  // namespace s2::perfbench
