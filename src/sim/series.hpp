// Named step-series recorder.
//
// The workload driver records "allocated nodes", "running jobs" and
// "completed jobs" against virtual time; bench binaries turn the recorded
// series into the paper's evolution figures.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "util/chart.hpp"

namespace dmr::sim {

class SeriesRecorder {
 public:
  explicit SeriesRecorder(const Engine& engine) : engine_(&engine) {}

  /// Record the new value of a series at the engine's current time.
  void record(const std::string& series, double value);

  /// Record value = previous + delta (series starts at 0).
  void record_delta(const std::string& series, double delta);

  /// Stable pointer to the named series' storage (created empty when
  /// new).  Hot-path callers — the driver's per-start/per-end counters,
  /// fired hundreds of thousands of times on an archive replay — cache
  /// the handle once and record through record_into, skipping the
  /// per-record string construction and map lookup.  Bypasses the
  /// record_delta baseline, so don't mix the two on one series.
  util::StepSeries* series_handle(const std::string& name) {
    return &series_[name];
  }
  void record_into(util::StepSeries* series, double value) {
    series->add_point(engine_->now(), value);
  }

  bool has(const std::string& series) const {
    return series_.count(series) != 0;
  }
  const util::StepSeries& series(const std::string& name) const;
  std::vector<std::string> names() const;

  /// Time-weighted average of a series over [t0, t1].
  double average(const std::string& name, double t0, double t1) const;

  /// Dump "time,value" CSV lines for one series.
  std::string to_csv(const std::string& name) const;

 private:
  const Engine* engine_;
  std::map<std::string, util::StepSeries> series_;
  std::map<std::string, double> current_;
};

}  // namespace dmr::sim
