// Shared workload builders and reporting helpers for the figure/table
// reproduction benches.
//
// Two canonical workloads, matching the paper's two experimental setups:
//  - the *preliminary study* (Section VIII): synthetic Flexible Sleep
//    jobs on a 20-node partition, sizes/runtimes/arrivals from the
//    Feitelson model (job size <= 20, step <= 60 s, mean arrival 10 s);
//  - the *realistic workload* (Section IX): CG / Jacobi / N-body jobs
//    (33% each, randomly sorted with a fixed seed) on a 64-node cluster,
//    each submitted at its maximum ("user-preferred fast execution")
//    size, Table I malleability parameters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dmr/observe.hpp"
#include "dmr/simulation.hpp"

namespace dmr::bench {

struct FsWorkloadOptions {
  int jobs = 10;
  int nodes = 20;
  /// Table I: FS runs 25 iterations (each a reconfiguring point).  The
  /// Section VIII text mentions "2 steps"; we follow Table I — with only
  /// 2 steps a job shrunk at its first point could never re-expand when
  /// the queue drains, which contradicts the Fig. 5 narrative.
  int steps = 25;
  double mean_arrival = 10.0;
  double max_step_runtime = 60.0; // "maximum runtime 60 s for each step"
  /// Hyperexponential runtime branches (at the submitted size).
  double short_runtime_mean = 60.0;
  double long_runtime_mean = 600.0;
  std::size_t data_bytes = std::size_t(1) << 30;  // 1 GB redistributed
  bool flexible = true;
  /// Fraction of jobs that are flexible (Fig. 8); 1.0 = all.
  double flexible_rate = 1.0;
  bool asynchronous = false;
  double sched_period = -1.0;     // inhibitor override (-1 = none)
  /// Runtime<->RMS negotiation cost per non-inhibited check.
  double check_overhead = 0.05;
  std::uint64_t seed = 2017;
  /// Observability sinks threaded into the driver (trace recorder and/or
  /// profiler); default-empty hooks keep the run on the zero-cost path.
  obs::Hooks hooks;
};

/// Build and run one FS workload; returns the workload metrics.
drv::WorkloadMetrics run_fs_workload(const FsWorkloadOptions& options);

struct RealisticWorkloadOptions {
  int jobs = 50;
  int nodes = 64;
  bool flexible = true;
  double mean_arrival = 60.0;
  std::uint64_t seed = 2017;
  /// Scale down per-app iteration counts for quick runs (1.0 = Table I).
  double iteration_scale = 1.0;
  drv::CostModel cost;
  bool shrink_priority_boost = true;
  bool backfill = true;
  /// Moldable submission (the paper's future-work extension).
  bool moldable = false;
  /// Observability sinks threaded into the driver (trace recorder and/or
  /// profiler); default-empty hooks keep the run on the zero-cost path.
  obs::Hooks hooks;
};

drv::WorkloadMetrics run_realistic_workload(
    const RealisticWorkloadOptions& options);

/// Archive-scale replay: a seeded Feitelson workload round-tripped
/// through SWF text (exactly the `make_swf | swf_replay` path, in
/// memory) and replayed rigidly — the event-engine stress workload.
/// 100k jobs at ~3 engine events each (arrival, start, one span) puts
/// ~300k events through the event heap while the scheduler sees only the
/// live-job window.
struct ArchiveWorkloadOptions {
  int jobs = 100000;
  /// Machine size; also balances the arrival rate against `load`.
  int nodes = 1024;
  int max_size = 128;          // largest job, nodes
  double load = 0.7;           // offered load in (0, 1]
  /// Iterations per job — one finish-step event each.  25 matches the
  /// paper's Table I FS run (and FsWorkloadOptions), so the event mix
  /// leans on the engine's steady-state step path, not job turnover.
  int steps = 25;
  std::uint64_t seed = 1;
  obs::Hooks hooks;
};

/// Synthesize the archive trace: generate_feitelson with the balanced
/// inter-arrival mean, serialize to SWF text, parse it back and shape
/// onto `nodes`.  Deterministic in the options; build once and share
/// across repetitions — only the replay is the measured section.
wl::Workload build_archive_workload(const ArchiveWorkloadOptions& options);

/// Replay `workload` rigidly through the driver; same digest contract
/// as realistic_outcome_digest (byte-identical iff the outcomes are).
/// `replay_seconds` (when non-null) receives the wall time of the
/// driver run alone — plan building and digest rendering are setup, and
/// at 100k jobs they would dilute the events/sec row.
std::string archive_outcome_digest(const wl::Workload& workload,
                                   const ArchiveWorkloadOptions& options,
                                   drv::WorkloadMetrics* metrics = nullptr,
                                   double* replay_seconds = nullptr);

/// Run the realistic workload and render every job's lifecycle
/// (id:submit:start:end, 17 significant digits) plus the headline
/// counters into one string — byte-identical across runs iff the
/// simulated outcomes are.  engine_bench compares digests with tracing
/// attached vs detached to prove observability never perturbs the
/// simulation.  When `metrics` is non-null the run's metrics are stored
/// there too.
std::string realistic_outcome_digest(const RealisticWorkloadOptions& options,
                                     drv::WorkloadMetrics* metrics = nullptr);

/// Run an FS workload and render the paper-style evolution chart
/// (allocated nodes / running jobs / completed jobs over time).
std::string fs_timeline_chart(const FsWorkloadOptions& options,
                              std::size_t columns = 72,
                              std::size_t height = 6);

/// Realistic-workload timeline (Fig. 12).
std::string realistic_timeline_chart(const RealisticWorkloadOptions& options,
                                     std::size_t columns = 72,
                                     std::size_t height = 6);

/// Paper-style header for bench output.
void print_header(const std::string& figure, const std::string& what);

}  // namespace dmr::bench
