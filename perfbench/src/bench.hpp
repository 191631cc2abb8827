// perfbench — shared types of the repository benchmark.
//
// One process runs one workload: a golden probe (correctness against
// digests captured on the seed commit), then measured units until the
// time budget is spent.  Untraced runs (--trace 0) report the end-to-end
// metrics; traced runs (--trace 1) attach obs::Profiler, record spans
// around every call into a layer and report the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Default golden seed, and the held-out seed whose digests exist so a
/// claim can be re-checked on a seed nobody tuned on.
constexpr std::uint64_t kGoldenSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 2027;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t golden_seed = kGoldenSeed;
  /// Tiny sizes for the self-test (goldens are not checked: they pin the
  /// full-size workloads only).
  bool tiny = false;
  /// Fault injection for the self-test: "bad-golden" or "corrupt-recv".
  std::string inject;
  /// Traced runs write their spans here (Chrome trace JSON).
  std::string trace_out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one workload run reports.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  /// Human-readable reasons for every failure (printed to stderr).
  std::vector<std::string> problems;
  Metrics metrics;
  /// Free-form detail fields for the result line (workload parameters).
  std::map<std::string, std::string> detail;

  void fail(long long operations, std::string why) {
    failed += operations;
    problems.push_back(std::move(why));
  }
};

/// Nearest-rank-free quantile by linear interpolation (q in [0, 1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Values as a comma-separated list (detail fields of the record line).
std::string join(const std::vector<double>& values);

/// Peak resident set of this process in MiB (getrusage; no file reads).
double peak_rss_mb();

/// FNV-1a 64-bit hash, rendered as 16 hex digits: the golden digests
/// are hashes of the full-precision outcome strings.
std::string fnv1a_hex(const std::string& text);

/// The host fingerprint: CPU model, logical cores, compiler, build type,
/// flags, and a hash of those (`host_id`) that compare.py matches on.
/// `git_sha` is reported alongside but is not part of the host identity.
std::map<std::string, std::string> host_fingerprint();

}  // namespace perfbench
