// Snapshot / restore / what-if forks for the resident service.
//
// The discrete-event core is bit-deterministic: events are ordered by
// (time, lane, scheduling order), submissions ride a canonical lane, and
// nothing in a run consumes wall-clock entropy.  That makes the cheapest
// possible snapshot also a *complete* one: capture the inputs — the
// service configuration, the accepted-submission log, and the simulated
// clock — and restore by replaying them through a fresh service.  The
// restored instance reaches the captured instant in the exact state the
// live one had (the property test asserts field-for-field equality of
// everything observable), which buys deterministic replay debugging for
// free: any live state is reproducible from its snapshot.
//
// Forks branch hypotheses from the captured instant: fork_and_run()
// replays the baseline and a mutated variant ("+64 nodes", "switch
// placement to least-loaded", "disable the shrink boost") side by side
// to a horizon and reports both windowed-metric endpoints plus their
// delta — the operator's "what if?" answered without touching the live
// instance.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "svc/service.hpp"

namespace dmr::svc {

struct Snapshot {
  ServiceConfig config;
  /// Accepted submissions in acceptance order (arrival times may lie
  /// beyond `time`: accepted early, still pending at the capture).
  std::vector<JobRequest> submissions;
  /// Simulated instant the snapshot captures.
  double time = 0.0;

  /// Compact text form (one header line, one line per submission); the
  /// measured "snapshot bytes" of the service bench.
  std::string serialize() const;
  /// Inverse of serialize().  The config is not part of the wire format
  /// (it holds live policy objects); the caller supplies it.
  static Snapshot deserialize(const std::string& text, ServiceConfig config);
};

/// Capture `service` at its current simulated instant.
Snapshot snapshot(const Service& service);

/// Rebuild a service in the captured state by deterministic replay.
std::unique_ptr<Service> restore(const Snapshot& snapshot);

/// One hypothetical mutation applied at the snapshot instant.
struct WhatIf {
  std::string label = "variant";
  /// Grow member `member` by `add_nodes` nodes (0 = no growth).
  int add_nodes = 0;
  int member = 0;
  std::string partition;
  /// Switch the placement policy (multi-cluster federations).
  std::optional<fed::Placement> placement;
  /// Flip Algorithm 1's shrink priority boost.
  std::optional<bool> shrink_boost;

  std::string describe() const;
};

/// One branch's endpoint: the last windowed sample plus batch metrics at
/// the horizon.
struct ForkRun {
  std::string label;
  MetricsSample last_sample;
  drv::WorkloadMetrics metrics;
  double wall_seconds = 0.0;
};

struct ForkReport {
  double from = 0.0;     // snapshot instant
  double horizon = 0.0;  // simulated time both branches ran to
  ForkRun baseline;
  ForkRun variant;

  /// variant - baseline deltas of the headline windowed figures.
  double delta_wait_p99() const {
    return variant.last_sample.wait_p99 - baseline.last_sample.wait_p99;
  }
  double delta_utilization() const {
    return variant.last_sample.utilization - baseline.last_sample.utilization;
  }
  long long delta_completed() const {
    return variant.last_sample.completed_total -
           baseline.last_sample.completed_total;
  }
  std::string to_json() const;
};

/// Replay baseline and what-if variant from `snapshot` to `horizon`
/// (absolute simulated time > snapshot.time) and report both endpoints.
ForkReport fork_and_run(const Snapshot& snapshot, const WhatIf& whatif,
                        double horizon);

}  // namespace dmr::svc
