// Virtual-time workload driver: runs a whole workload (fixed, flexible or
// mixed) through the resource manager on the discrete-event engine.
//
// Each job executes its application model in spans of steps, one engine
// event per span.  A span ends at the job's finish or at the first step
// end whose reconfiguring point the checking inhibitor lets through (a
// rigid job is one span).  There a flexible job calls the DMR
// reconfiguring point (through the same Manager policy/protocol code the
// real-mode runtime uses), pays the modeled redistribution cost, and
// continues at the granted size.  The points the inhibitor swallows
// inside a span change no state, so they cost no event: span ends are
// computed with the same per-step `t += duration` additions a
// step-by-step run makes, so every instant is bit-identical; the landing
// is queued with sim::Engine::schedule_span, so same-instant ties fall as
// the per-step events' did; and WorkloadMetrics::inhibited_checks counts
// the swallowed points.  This is the machinery behind Figs. 3-12 and
// Table II.
//
// The driver talks to a fed::Federation — one member cluster by default
// (built from DriverConfig::rms, behaviourally identical to driving the
// manager directly), or a multi-cluster federation when
// DriverConfig::federation names members.  All members share the one
// sim::Engine clock; submissions route through the federation's
// placement policy and every other protocol step lands on the owning
// member, so federated and single-cluster runs exercise the same code.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/models.hpp"
#include "dmr/engine.hpp"
#include "dmr/session.hpp"
#include "drv/cost_model.hpp"
#include "drv/metrics.hpp"
#include "fed/federation.hpp"
#include "obs/hooks.hpp"
#include "obs/trace.hpp"
#include "rms/manager.hpp"
#include "sim/engine.hpp"
#include "sim/series.hpp"

namespace dmr::drv {

/// One workload entry bound to an application model.
struct JobPlan {
  double arrival = 0.0;
  apps::AppModel model;
  /// Nodes requested at submission (the paper submits at the size giving
  /// the best individual performance).
  int submit_nodes = 1;
  /// Whether this job exposes reconfiguring points.
  bool flexible = false;
  /// Moldable submission: the scheduler may start the job below its
  /// requested size (the paper's future-work extension).
  bool moldable = false;
  /// Backfill estimate; 0 derives it from the model at the submit size.
  double time_limit = 0.0;
  /// Partition constraint (empty = may run anywhere / span partitions).
  /// In a federation, also a routing constraint: only members with the
  /// named partition are eligible.
  std::string partition;
};

struct DriverConfig {
  /// Single-cluster configuration; ignored when `federation` has members.
  rms::RmsConfig rms;
  /// Multi-cluster mode: when `federation.clusters` is non-empty the
  /// driver runs the whole workload through this federation instead of
  /// a single manager built from `rms`.
  fed::FederationConfig federation;
  CostModel cost;
  /// Use dmr_icheck_status semantics (decide now, apply next step).
  bool asynchronous = false;
  /// Override every model's inhibitor period (negative = keep models').
  double sched_period_override = -1.0;
  /// Runtime <-> RMS negotiation cost charged on every non-inhibited
  /// check (the overhead the checking inhibitor exists to curb; only
  /// noticeable for micro-step applications, Section VIII-E).
  double check_overhead_seconds = 0.05;
  /// Observers to attach (all null by default = no overhead).  The
  /// driver subscribes them to every layer's lifecycle stream, in the
  /// order auditor, attributor, the driver itself, trace, profiler; the
  /// pointed-to objects must outlive the driver.
  obs::Hooks hooks;
};

class WorkloadDriver : private obs::Sink {
 public:
  WorkloadDriver(sim::Engine& engine, DriverConfig config);

  /// Subscribe `sink` to every layer of this run — engine, federation,
  /// member managers and the driver's own redist_report facts — after
  /// the DriverConfig::hooks observers.
  void attach(obs::Sink& sink);
  /// The run's fan-out: every attached subscriber, in attach order.
  /// Layers above the driver (the resident service) emit through it.
  obs::Stream& stream() { return stream_; }

  /// Queue a plan for run() to submit at its arrival.  Throws
  /// std::invalid_argument when the arrival is not finite or lies before
  /// the current simulated clock — the driver never silently reorders a
  /// stale submission.
  void add(JobPlan plan);

  /// Incremental feed (service mode): schedule the submission right now,
  /// whether or not the engine is already running.  The arrival must not
  /// precede the current simulated clock (std::invalid_argument
  /// otherwise, same contract as add()).  Arrival events ride
  /// sim::Lane::Arrival, so a submission scheduled mid-run interleaves
  /// with same-instant events exactly like one scheduled up front — the
  /// property the snapshot/replay machinery depends on.
  void submit_at(JobPlan plan);

  /// Run to completion; returns the workload metrics (federation-wide,
  /// with per-member ClusterMetrics on multi-cluster runs).
  WorkloadMetrics run();

  /// Metrics over the jobs completed *so far* — callable mid-run (the
  /// resident service samples it between run_until() slices) and equal
  /// to run()'s result once the workload drains.  Empty windows (no
  /// arrivals yet, or nothing completed) yield zeroed metrics, never
  /// NaN.
  WorkloadMetrics collect_metrics() const;

  /// Jobs whose sessions completed so far.
  int completed() const { return completed_; }

  /// The figure step series ("allocated", "running", "completed", and
  /// per-member / per-partition "allocated@..." / "allocated:...").
  const sim::SeriesRecorder& trace() const { return trace_; }
  /// The federation the driver runs against (a single member unless
  /// DriverConfig::federation named more).
  const fed::Federation& federation() const { return federation_; }
  fed::Federation& federation_mutable() { return federation_; }
  /// First member's manager — the whole system on single-cluster runs.
  const rms::Manager& manager() const { return federation_.manager(0); }
  /// Mutable access for attaching a single-member subscriber (e.g.
  /// rms::Accounting) before run().
  rms::Manager& manager_mutable() { return federation_.manager(0); }

 private:
  /// One job's execution state.  The reconfiguring-point protocol lives
  /// entirely in the shared dmr::ReconfigEngine — the driver only models
  /// time: step durations, redistribution delays and check overhead.
  struct Exec {
    JobPlan plan;
    rms::JobId id = rms::kInvalidJob;
    int steps_left = 0;
    /// Steps covered by the pending span event.
    int span_steps = 0;
    /// Constructed in place at submission (no per-job heap allocation).
    std::optional<::dmr::Session> session;
    /// Reconfiguring-point protocol state — only a flexible job ever
    /// negotiates, so rigid jobs never allocate one.
    std::unique_ptr<::dmr::ReconfigEngine> engine;
  };

  Exec& enqueue(JobPlan plan);
  /// Arrival cursor: schedule the next add()ed plan's arrival, if any.
  void schedule_next_arrival();
  void submit(Exec& exec);
  /// The driver's own subscription: start handling, completions, and
  /// the step series.
  void started(const obs::JobFact& f) override;
  void finished(const obs::JobFact& f) override;
  void alloc_changed(const obs::AllocFact& f) override;
  /// First reconfiguring point, right after the allocation (Listing 2
  /// checks at the top of the very first iteration: jobs submitted at
  /// their maximum are "scaled-down as soon as possible").
  void begin_execution(Exec& exec);
  /// Continue after a reconfiguring point: pay `delay`, finish a pending
  /// shrink, then run the next step.
  void proceed_after_check(Exec& exec, double delay);
  /// Schedule one event for the span of steps from now to the job's
  /// finish or its next reconfiguring point the inhibitor lets through.
  void schedule_step(Exec& exec);
  /// The span's last step ended: finish, or run the reconfiguring point.
  void finish_span(Exec& exec);
  /// Runs the reconfiguring point; returns the delay before the next
  /// step may start (0 when no action).
  double reconfiguring_point(Exec& exec);
  /// Prices the outcome's data movement and stamps its redistribution
  /// fields from the modeled redist::Report.
  double apply_outcome(Exec& exec, rms::DmrOutcome& outcome);
  /// Per-member slices + partition utilizations for run()'s metrics.
  void collect_cluster_metrics(WorkloadMetrics& metrics, double first_arrival,
                               double makespan) const;

  sim::Engine& engine_;
  DriverConfig config_;
  fed::Federation federation_;
  /// Shared virtual-clock connection all job sessions go through.
  std::shared_ptr<::dmr::Connection> connection_;
  obs::Stream stream_;
  /// Chrome-trace subscriber, when DriverConfig::hooks.trace is set.
  std::unique_ptr<obs::Sink> trace_sink_;
  sim::SeriesRecorder trace_;
  util::StepSeries* completed_series_;
  util::StepSeries* allocated_series_;
  util::StepSeries* running_series_;
  /// Per member: last allocated nodes and running jobs (federation-wide
  /// totals are their sums).
  std::vector<int> member_allocated_;
  std::vector<int> member_running_;
  /// A deque so Exec addresses stay stable for the event callbacks while
  /// jobs keep arriving — without a heap allocation per job.
  std::deque<Exec> execs_;
  /// add()ed jobs, sorted by arrival in run(); the arrival event of
  /// arrivals_[next_arrival_] is the one pending.
  std::vector<Exec*> arrivals_;
  std::size_t next_arrival_ = 0;
  /// Job id -> execution state; hashed (never iterated) — the id lookup
  /// runs on every job start/end.
  std::unordered_map<rms::JobId, Exec*> by_id_;
  int completed_ = 0;
  /// Reconfiguring points the inhibitor swallowed inside landed spans.
  long long inhibited_checks_ = 0;
  /// Workload-wide data-movement totals (from the modeled Reports).
  std::size_t bytes_redistributed_ = 0;
  double redistribution_seconds_ = 0.0;
};

}  // namespace dmr::drv
