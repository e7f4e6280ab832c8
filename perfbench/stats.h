// Latency samples and percentiles for the end-to-end benchmark.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// The q-quantile (0 <= q <= 1) of `samples` by linear interpolation
/// between the closest ranks: position q * (n - 1) in sorted order. Returns
/// 0 for an empty sample. Sorts `samples` in place.
inline double Percentile(std::vector<double>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const double pos = q * static_cast<double>(samples->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples->size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (*samples)[lo] + frac * ((*samples)[hi] - (*samples)[lo]);
}

/// Samples that lie strictly beyond the q-quantile's rank: how many
/// observations a reported tail percentile rests on.
inline size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n - 1)));
  return n - 1 - std::min(rank, n - 1);
}

/// The quantile of a request kind's times that stands for the kind in the
/// reported request times (KindTimes::Typical). On a shared host a vCPU
/// can run at two speeds ~1.6x apart, for seconds at a time (seen on a
/// 4-vCPU Xeon KVM guest); a low quantile takes a kind's time from the
/// repetitions that ran at full speed, where a median flips with the share
/// of slow seconds in the run.
inline constexpr double kKindQuantile = 0.1;

/// Times of requests that repeat. A kind is one request a workload sends
/// a fixed number of times per cycle (a query, subject and semantics), and
/// every run sends whole cycles. Each kind gets the q-quantile of its times
/// over the run, and the figure is the mean of those over the run's
/// requests: the mean request time of the workload's mix, in which a host
/// stall that slows a minority of one kind's repetitions moves nothing.
class KindTimes {
 public:
  void Add(size_t kind, double ms) {
    if (kind >= times_.size()) times_.resize(kind + 1);
    times_[kind].push_back(ms);
    ++samples_;
  }
  void Merge(const KindTimes& other) {
    for (size_t k = 0; k < other.times_.size(); ++k) {
      for (double ms : other.times_[k]) Add(k, ms);
    }
  }
  double Typical(double q = 0.5) const {
    double sum = 0;
    for (std::vector<double> t : times_) {
      if (!t.empty()) sum += Percentile(&t, q) * static_cast<double>(t.size());
    }
    return samples_ == 0 ? 0 : sum / static_cast<double>(samples_);
  }
  size_t samples() const { return samples_; }

 private:
  std::vector<std::vector<double>> times_;
  size_t samples_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
