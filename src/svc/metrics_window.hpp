// Sliding-window live metrics for the resident simulator service.
//
// The batch driver reports end-of-run totals; a resident service needs
// "what does the last five minutes look like".  MetricsWindow keeps a
// ring of per-sample-period sub-windows: every observation lands in the
// newest sub-window, every sample reads the aggregate of all live
// sub-windows, and rotate() retires the oldest — a fixed-memory sliding
// window with sample-period granularity.
//
// Quantiles come from fixed log-spaced bucket histograms (no stored
// samples): 16 buckets per decade over [0.01 s, 1e6 s] bounds the
// relative error of a reported quantile by one bucket ratio (~15%)
// while keeping a sub-window at ~1 KiB regardless of event rate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dmr::svc {

/// Sliding-window histogram: a ring of per-interval fixed-bucket
/// histograms; add() feeds the newest, quantile() reads the aggregate,
/// rotate() retires the oldest interval.
class WindowedHistogram {
 public:
  /// `intervals` sub-windows of log-spaced buckets.
  explicit WindowedHistogram(int intervals);

  void add(double value);
  /// q in [0, 1]; returns the upper edge of the bucket holding the
  /// q-quantile of the windowed counts (0 when the window is empty —
  /// never NaN).
  double quantile(double q) const;
  std::uint64_t count() const { return total_; }
  double sum() const { return sum_; }
  double mean() const { return total_ > 0 ? sum_ / double(total_) : 0.0; }
  /// Retire the oldest interval and open a fresh one.
  void rotate();
  void clear();

  // Bucket layout (shared by every instance).
  static constexpr int kBucketsPerDecade = 16;
  static constexpr double kLo = 0.01;    // values below land in bucket 0
  static constexpr double kHi = 1.0e6;   // values above clamp to the top
  static int bucket_count();
  static int bucket_of(double value);
  static double bucket_upper(int bucket);

 private:
  std::vector<std::vector<std::uint32_t>> intervals_;  // [interval][bucket]
  std::vector<std::uint64_t> interval_counts_;
  std::vector<double> interval_sums_;
  int newest_ = 0;
  std::uint64_t total_ = 0;  // across live intervals
  double sum_ = 0.0;
};

/// One emitted metrics sample (a JSON line in the service's feed).
struct MetricsSample {
  double time = 0.0;
  /// Span the windowed figures cover (≤ the configured window while the
  /// service is younger than it).
  double window = 0.0;
  long long completed_total = 0;
  long long completed_in_window = 0;
  long long reconfigs_in_window = 0;
  double reconfigs_per_second = 0.0;
  /// Pending user jobs across the federation at sample time.
  int queue_depth = 0;
  /// Unconsumed entries in the submission ring at sample time (wall-side
  /// observability: not part of the deterministic replayed state).
  int ring_depth = 0;
  /// Node-weighted allocation fraction over the window (0 when the
  /// window is empty — never NaN).
  double utilization = 0.0;
  double wait_mean = 0.0;
  double wait_p50 = 0.0;
  double wait_p95 = 0.0;
  double wait_p99 = 0.0;
  double response_p50 = 0.0;
  double response_p95 = 0.0;
  double response_p99 = 0.0;
  long long submitted_total = 0;
  long long rejected_full_total = 0;
  long long rejected_stale_total = 0;
  /// Cumulative wait seconds per obs::BlockReason (enum-index order,
  /// open segments counted up to sample time).  Empty when the service
  /// runs without wait attribution; emitted as wait_cause_* JSON keys.
  std::vector<double> cause_seconds;
  /// Column key per cause_seconds entry ("easy_reservation", ...).
  std::vector<std::string> cause_keys;

  std::string to_json() const;
};

/// The service's windowed collectors: wait/response histograms plus the
/// reconfiguration and completion counts, one rotation per sample.
class MetricsWindow {
 public:
  /// `window` seconds of history at `sample_period` granularity.
  MetricsWindow(double window, double sample_period);

  void observe_completion(double wait, double response);
  void observe_reconfig();

  /// Fill the windowed fields of `sample` (time/queue/ring/utilization
  /// and the *_total counters are the caller's).
  void fill(MetricsSample& sample) const;
  /// Close the current sample period.
  void rotate();

  double window_seconds() const { return window_; }
  double sample_period() const { return period_; }
  int intervals() const { return intervals_; }
  long long completed_total() const { return completed_total_; }

 private:
  double window_;
  double period_;
  int intervals_;
  WindowedHistogram wait_;
  WindowedHistogram response_;
  std::vector<std::uint64_t> reconfigs_;    // per live interval
  std::vector<std::uint64_t> completions_;  // per live interval
  int newest_ = 0;
  long long completed_total_ = 0;
};

}  // namespace dmr::svc
