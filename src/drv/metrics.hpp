// Workload-level metrics: the measures of Table II and the evolution
// series of Figs. 4-6 and 12.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rms/manager.hpp"
#include "util/stats.hpp"

namespace dmr::drv {

/// Per-partition slice of the utilization metric (heterogeneous runs).
/// Federated runs qualify the name as "<cluster>/<partition>".
struct PartitionUtilization {
  std::string name;
  int nodes = 0;
  double utilization = 0.0;
};

/// Per-member slice of a federated run's metrics (one entry per member
/// when the driver runs a multi-cluster federation; empty otherwise).
/// The federation-wide WorkloadMetrics fields are exact aggregates of
/// these: counts sum, utilization is the node-weighted average.
struct ClusterMetrics {
  std::string name;
  int nodes = 0;
  /// Jobs the placement policy routed here.
  int jobs = 0;
  double utilization = 0.0;
  /// Last end time among this member's completed jobs.
  double makespan = 0.0;
  util::Summary wait;
  long long expands = 0;
  long long shrinks = 0;
  long long checks = 0;
  long long aborted_expands = 0;
};

/// Aggregate seconds jobs spent waiting on one typed block cause
/// (obs::BlockReason), keyed by its JSON column name ("easy_reservation",
/// "insufficient_idle", ...).  Filled only when an obs::WaitAttributor is
/// attached; the entries sum to the total completed-job wait.
struct WaitCause {
  std::string key;
  double seconds = 0.0;
};

struct WorkloadMetrics {
  double makespan = 0.0;
  /// Time-weighted average of (allocated nodes / cluster nodes) over
  /// [first arrival, makespan] — Table II's "Avg. resource utilization
  /// rate".  The window starts at the first arrival, not 0, so staggered
  /// workloads are not diluted by dead lead-in time.
  double utilization = 0.0;
  /// Utilization per partition over the same window (one entry per
  /// partition when the cluster is heterogeneous; empty otherwise).
  std::vector<PartitionUtilization> partitions;
  /// Per-member metrics of a federated run (≥ 2 member clusters; empty
  /// otherwise).
  std::vector<ClusterMetrics> clusters;
  util::Summary wait;        // "Avg. job waiting time"
  util::Summary execution;   // "Avg. job execution time"
  util::Summary completion;  // "Avg. job completion time"
  /// Wait decomposition by cause (empty without an attached attributor).
  std::vector<WaitCause> wait_causes;
  int jobs = 0;
  long long expands = 0;
  long long shrinks = 0;
  long long checks = 0;
  /// Reconfiguring points the checking inhibitor swallowed (the RMS was
  /// never contacted); checks + inhibited_checks is every point reached.
  long long inhibited_checks = 0;
  long long aborted_expands = 0;
  /// Engine events dispatched so far (on an engine shared with other
  /// drivers, theirs count too).
  std::uint64_t events = 0;
  /// Incremental-scheduling telemetry: schedule() invocations, the
  /// passes that actually ran, and the passes avoided relative to the
  /// former run-on-every-mutation design.
  long long schedule_requests = 0;
  long long schedule_passes = 0;
  long long schedule_passes_saved = 0;
  /// Data moved by all reconfigurations (from the redist::Reports the
  /// driver records per resize) and the virtual time it cost.
  std::size_t bytes_redistributed = 0;
  double redistribution_seconds = 0.0;
};

/// Percentage gain of `flexible` over `fixed` for a smaller-is-better
/// quantity (the paper's bar labels).
double gain_percent(double fixed, double flexible);

/// Human-readable one-line summary.
std::string describe(const WorkloadMetrics& metrics);

}  // namespace dmr::drv
