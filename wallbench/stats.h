// Order statistics for the wall-clock benchmark.
//
// A timing is reported as its median and its 90th percentile, each with
// the number of samples it was taken from. A percentile is only reported
// when at least kMinTail samples lie beyond it; with fewer, one outlier
// decides its value, so it is refused instead.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace wallbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank percentile: the sample at 1-based rank ceil(q * n) of the
/// sorted samples, with `beyond` = n - rank samples above that rank.
struct Percentile {
  double value = 0.0;
  std::size_t rank = 0;
  std::size_t beyond = 0;
};

/// The q-quantile (0 < q < 1) of `samples`, or nullopt when fewer than
/// kMinTail samples lie beyond it (always so for an empty input).
inline std::optional<Percentile> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  // The epsilon keeps q*n that should be whole (0.9 * 110) from rounding
  // up past its rank.
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinTail) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return Percentile{samples[rank - 1], rank, n - rank};
}

/// Midpoint median (mean of the two middle samples when n is even); 0 for
/// an empty input. Used for per-batch rates and set-up times, where the
/// sample count is small and no tail rule applies.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// The samples after the first `warmup` ones: the first operations of a
/// run fill caches and lazy state that later operations find ready.
inline std::vector<double> drop_warmup(const std::vector<double>& samples,
                                       std::size_t warmup) {
  if (samples.size() <= warmup) return {};
  return {samples.begin() + static_cast<std::ptrdiff_t>(warmup), samples.end()};
}

/// Rates of consecutive chunks of `chunk` operations: the chunk's items
/// (`items_per_op` each) over the sum of its latencies. A trailing partial
/// chunk is dropped. Throughput is the median of these, not total/elapsed:
/// one stalled chunk moves a median by at most one rank, where it would
/// drag a total down by its whole stall.
inline std::vector<double> chunk_rates(const std::vector<double>& latency_us,
                                       std::size_t chunk, double items_per_op = 1.0) {
  std::vector<double> rates;
  if (chunk == 0) return rates;
  for (std::size_t i = 0; i + chunk <= latency_us.size(); i += chunk) {
    double us = 0.0;
    for (std::size_t j = i; j < i + chunk; ++j) us += latency_us[j];
    if (us > 0.0) rates.push_back(static_cast<double>(chunk) * items_per_op * 1e6 / us);
  }
  return rates;
}

/// The median of chunk_rates over `chunks` equal chunks of `latency_us`
/// (single operations when there are fewer operations than chunks). The
/// host swings between a fast and a slow state every few seconds. A chunk
/// that spans seconds averages over those swings, while rates over single
/// operations or short chunks each fall in one state, and their median
/// jumps with the share of slow time.
inline double equal_chunk_rate(const std::vector<double>& latency_us, std::size_t chunks) {
  if (chunks == 0) return 0.0;
  return median(chunk_rates(latency_us, std::max<std::size_t>(1, latency_us.size() / chunks)));
}

/// Median and p90 of one latency series after warm-up exclusion.
struct LatencySummary {
  double p50 = 0.0;
  double p90 = 0.0;
  std::size_t samples = 0;  // after warm-up exclusion
  std::size_t beyond_p90 = 0;
  bool ok = false;  // false when the p90 tail rule refused the series
};

inline LatencySummary summarize_latency(const std::vector<double>& samples,
                                        std::size_t warmup) {
  LatencySummary out;
  std::vector<double> kept = drop_warmup(samples, warmup);
  out.samples = kept.size();
  auto p50 = percentile(kept, 0.50);
  auto p90 = percentile(kept, 0.90);
  if (!p50 || !p90) return out;
  out.p50 = p50->value;
  out.p90 = p90->value;
  out.beyond_p90 = p90->beyond;
  out.ok = true;
  return out;
}

/// Samples a run must collect so that summarize_latency accepts its p90
/// after dropping `warmup`: n - ceil(0.9 n) >= kMinTail holds from n = 100.
inline constexpr std::size_t min_samples_for_p90(std::size_t warmup) {
  return warmup + 10 * kMinTail;
}

}  // namespace wallbench
