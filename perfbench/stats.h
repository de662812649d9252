// Pure arithmetic of the benchmark: percentiles over latency samples, the
// window mean of a cumulative (count, mean) histogram, and number lookup in
// the daemons' stats JSON. Header-only so the self-test links nothing else.

#ifndef HOTMAN_PERFBENCH_STATS_H_
#define HOTMAN_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of the p-th percentile among n samples.
inline std::size_t NearestRank(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Samples strictly above the nearest-rank p-th percentile. A percentile is
/// reported only with at least ten of these (the p99 of 1 000 samples has
/// exactly ten).
inline std::size_t SamplesBeyond(std::size_t n, double p) {
  return n - NearestRank(n, p);
}

/// Nearest-rank p-th percentile; 0 for no samples.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// One reading of a cumulative latency histogram: its sample count and
/// mean since the process started.
struct HistReading {
  double count = 0.0;
  double mean = 0.0;
};

/// Mean of the samples recorded between two readings of the same
/// cumulative histograms (one per daemon), from the (mean x count)
/// differences: sum(m1*c1 - m0*c0) / sum(c1 - c0). 0 when nothing was
/// recorded in between.
inline double WindowMean(const std::vector<HistReading>& before,
                         const std::vector<HistReading>& after) {
  double sum = 0.0;
  double count = 0.0;
  for (std::size_t i = 0; i < before.size() && i < after.size(); ++i) {
    sum += after[i].mean * after[i].count - before[i].mean * before[i].count;
    count += after[i].count - before[i].count;
  }
  return count > 0.0 ? sum / count : 0.0;
}

/// The number after the last key of `path` in a JSON text, where each key
/// is searched for after the previous one (`{"counters", "gets_failed"}`,
/// `{"histograms", "get_latency_us", "mean_us"}`). Keys match whole quoted
/// names, so "get_latency_us" never matches "fast_get_latency_us".
inline std::optional<double> JsonNumber(
    std::string_view json, std::initializer_list<std::string_view> path) {
  std::size_t pos = 0;
  for (std::string_view key : path) {
    std::string needle(1, '"');
    needle.append(key).append("\":");
    pos = json.find(needle, pos);
    if (pos == std::string_view::npos) return std::nullopt;
    pos += needle.size();
  }
  const std::string tail(json.substr(pos, 32));
  char* end = nullptr;
  const double value = std::strtod(tail.c_str(), &end);
  if (end == tail.c_str()) return std::nullopt;
  return value;
}

}  // namespace perfbench

#endif  // HOTMAN_PERFBENCH_STATS_H_
