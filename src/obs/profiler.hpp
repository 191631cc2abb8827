// obs::Profiler — wall-clock self-profiling of the simulator itself.
//
// The archive-scale roadmap item starts with "pull a real log through,
// profile, and rebuild the hot path"; this is the measurement half.
// As a lifecycle-stream subscriber (obs/sink.hpp), fed only through its
// Sink methods, it accumulates while a run executes:
//
//  - every dispatched event (sim::Engine's `dispatched` fact);
//  - the wall seconds of real schedule passes (rms::Manager);
//  - placement-decision wall seconds (fed::Federation);
//  - measured transfer wall seconds of dmr::redist strategies (modeled
//    reports carry simulated seconds and are not counted).
//
// report() folds the accumulators plus the process's peak RSS into a
// ProfileReport whose JSON row is what bench/engine_bench and
// bench/sweep append to BENCH_engine.json — the recorded perf
// trajectory every later optimization PR plots its speedup against.
//
// All mutation is relaxed-atomic: sweep attaches one profiler to every
// worker thread's scenario, and per-event cost must stay at one
// increment.  Unit tests hand-feed facts through an obs::Stream
// (tests/fact_feed.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/sink.hpp"

namespace dmr::obs {

/// One profiling result row (rendered into BENCH_engine.json).
struct ProfileReport {
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  double events_per_second = 0.0;
  long long jobs = 0;
  double jobs_per_second = 0.0;
  long long schedule_passes = 0;
  double schedule_seconds = 0.0;
  /// Mean wall time of one real schedule pass (0 when none ran).
  double seconds_per_pass = 0.0;
  long long placements = 0;
  double placement_seconds = 0.0;
  long long redists = 0;
  double redist_seconds = 0.0;
  /// Wall time not attributed to schedule/placement/redist: event
  /// dispatch, application-model arithmetic, metrics.
  double engine_seconds = 0.0;
  long peak_rss_kb = 0;

  /// The body of one bench-JSON row ("\"k\":v,...", no braces), so
  /// callers can splice bench-specific fields and provenance around it.
  std::string json_fields() const;
};

class Profiler : public Sink {
 public:
  Profiler() : Sink(kDispatched | kSchedulePass | kPlaced | kRedistReport) {}

  // --- stream subscription: the only way facts reach the profiler
  // (relaxed atomics; callable cross-thread) ---------------------------------

  void dispatched(const DispatchFact&) override {
    events_.fetch_add(1, std::memory_order_relaxed);
  }
  void schedule_pass(const PassFact& f) override {
    schedule_passes_.fetch_add(1, std::memory_order_relaxed);
    add(schedule_us_, f.wall_seconds);
  }
  void placed(const PlaceFact& f) override {
    placements_.fetch_add(1, std::memory_order_relaxed);
    add(placement_us_, f.wall_seconds);
  }
  /// Measured strategy reports only: modeled ones carry simulated time.
  void redist_report(const RedistFact& f) override;

  std::uint64_t events() const {
    return events_.load(std::memory_order_relaxed);
  }

  /// Fold the accumulators into a report for a run that took
  /// `wall_seconds` and completed `jobs` jobs.
  ProfileReport report(double wall_seconds, long long jobs) const;

  /// Peak resident set of this process in KiB (VmHWM from
  /// /proc/self/status; 0 where unavailable).
  static long peak_rss_kb();

 private:
  /// Wall seconds are accumulated as integer microseconds: atomic
  /// doubles need a CAS loop, integer fetch_add does not.
  static void add(std::atomic<std::uint64_t>& cell, double seconds) {
    if (seconds > 0.0) {
      cell.fetch_add(static_cast<std::uint64_t>(seconds * 1.0e6),
                     std::memory_order_relaxed);
    }
  }

  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> schedule_passes_{0};
  std::atomic<std::uint64_t> schedule_us_{0};
  std::atomic<std::uint64_t> placements_{0};
  std::atomic<std::uint64_t> placement_us_{0};
  std::atomic<std::uint64_t> redists_{0};
  std::atomic<std::uint64_t> redist_us_{0};
};

}  // namespace dmr::obs
