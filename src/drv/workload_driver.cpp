#include "drv/workload_driver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "chk/auditor.hpp"
#include "obs/attr.hpp"
#include "util/log.hpp"

namespace dmr::drv {

namespace {

/// A single-member federation built from the plain RmsConfig keeps one
/// driver code path: routing to one cluster is the identity, so the run
/// is behaviourally identical to driving the manager directly.
fed::FederationConfig make_federation(const DriverConfig& config) {
  if (!config.federation.clusters.empty()) return config.federation;
  fed::FederationConfig single;
  single.clusters.push_back(fed::ClusterSpec{"local", config.rms});
  return single;
}

}  // namespace

WorkloadDriver::WorkloadDriver(sim::Engine& engine, DriverConfig config)
    : obs::Sink(obs::kStarted | obs::kFinished | obs::kAllocChanged),
      engine_(engine),
      config_(config),
      federation_(make_federation(config)),
      connection_(std::make_shared<::dmr::Connection>(
          federation_, [this] { return engine_.now(); })),
      trace_(engine),
      completed_series_(trace_.series_handle("completed")),
      allocated_series_(trace_.series_handle("allocated")),
      running_series_(trace_.series_handle("running")),
      member_allocated_(static_cast<std::size_t>(federation_.cluster_count())),
      member_running_(static_cast<std::size_t>(federation_.cluster_count())) {
  // Attach order is notification order: the checkers see a transition
  // before the driver reacts to it (the start handling schedules the
  // job's first event), the recorders after.
  const obs::Hooks& hooks = config_.hooks;
  if (hooks.auditor != nullptr) attach(*hooks.auditor);
  if (hooks.attr != nullptr) attach(*hooks.attr);
  attach(*this);
  if (hooks.trace != nullptr) {
    std::vector<std::string> members;
    for (int c = 0; c < federation_.cluster_count(); ++c) {
      members.push_back(federation_.cluster_name(c));
    }
    trace_sink_ = obs::make_trace_sink(*hooks.trace, members);
    attach(*trace_sink_);
  }
  if (hooks.profiler != nullptr) attach(*hooks.profiler);
}

void WorkloadDriver::attach(obs::Sink& sink) {
  engine_.attach(sink);
  federation_.attach(sink);
  stream_.attach(sink);
}

void WorkloadDriver::finished(const obs::JobFact& f) {
  if (f.job.spec.internal_resizer) return;
  ++completed_;
  trace_.record_into(completed_series_, completed_);
}

void WorkloadDriver::alloc_changed(const obs::AllocFact& f) {
  const auto member = static_cast<std::size_t>(f.member);
  member_allocated_[member] = f.allocated;
  member_running_[member] = f.running;
  int allocated = 0;
  int running = 0;
  for (std::size_t m = 0; m < member_allocated_.size(); ++m) {
    allocated += member_allocated_[m];
    running += member_running_[m];
  }
  trace_.record_into(allocated_series_, allocated);
  trace_.record_into(running_series_, running);
  const bool multi = federation_.cluster_count() > 1;
  const std::string& name = federation_.cluster_name(f.member);
  if (multi) trace_.record("allocated@" + name, f.allocated);
  // Per-partition occupancy of the member that changed, for the
  // heterogeneous utilization report (qualified by member on federated
  // runs).
  const rms::Cluster& cluster = federation_.manager(f.member).cluster();
  if (cluster.partition_count() > 1) {
    for (int p = 0; p < cluster.partition_count(); ++p) {
      const std::string series =
          multi ? "allocated:" + name + "/" + cluster.partition(p).name
                : "allocated:" + cluster.partition(p).name;
      trace_.record(series, cluster.allocated_in(p));
    }
  }
}

WorkloadDriver::Exec& WorkloadDriver::enqueue(JobPlan plan) {
  if (!std::isfinite(plan.arrival)) {
    throw std::invalid_argument("WorkloadDriver: job '" + plan.model.name +
                                "' has a non-finite arrival " +
                                std::to_string(plan.arrival));
  }
  if (plan.arrival < engine_.now()) {
    throw std::invalid_argument(
        "WorkloadDriver: job '" + plan.model.name + "' arrival " +
        std::to_string(plan.arrival) + " precedes the simulated clock " +
        std::to_string(engine_.now()) +
        " (stale submissions are rejected, not reordered)");
  }
  if (plan.time_limit <= 0.0) {
    // Scale the estimate by the slowest node speed the job can land on
    // anywhere in the federation: its named partition's speed where
    // pinned, the slowest spanning-pool speed otherwise.  Overestimating
    // the limit keeps the EASY reservation conservative; underestimating
    // would let backfill squat on reserved nodes.
    const double speed = federation_.conservative_speed(plan.partition);
    plan.time_limit = plan.model.step_seconds(plan.submit_nodes) *
                      plan.model.iterations * 1.2 / speed;
  }
  Exec& exec = execs_.emplace_back();
  exec.plan = std::move(plan);
  return exec;
}

void WorkloadDriver::add(JobPlan plan) {
  arrivals_.push_back(&enqueue(std::move(plan)));
}

void WorkloadDriver::submit_at(JobPlan plan) {
  Exec& exec = enqueue(std::move(plan));
  engine_.schedule_at(
      exec.plan.arrival, [this, e = &exec] { submit(*e); },
      sim::Lane::Arrival);
}

void WorkloadDriver::schedule_next_arrival() {
  if (next_arrival_ == arrivals_.size()) return;
  engine_.schedule_at(
      arrivals_[next_arrival_]->plan.arrival,
      [this] {
        submit(*arrivals_[next_arrival_++]);
        schedule_next_arrival();
      },
      sim::Lane::Arrival);
}

void WorkloadDriver::submit(Exec& exec) {
  rms::JobSpec spec;
  spec.name = exec.plan.model.name;
  spec.requested_nodes = exec.plan.submit_nodes;
  spec.min_nodes = exec.plan.model.request.min_procs;
  spec.max_nodes = exec.plan.model.request.max_procs;
  spec.preferred_nodes = exec.plan.model.request.preferred;
  spec.factor = exec.plan.model.request.factor;
  spec.flexible = exec.plan.flexible;
  spec.moldable = exec.plan.moldable;
  spec.time_limit = exec.plan.time_limit;
  spec.partition = exec.plan.partition;
  exec.session.emplace(connection_);
  exec.id = exec.session->submit(std::move(spec));
  if (exec.plan.flexible) {
    const double period = config_.sched_period_override >= 0.0
                              ? config_.sched_period_override
                              : exec.plan.model.sched_period;
    exec.engine =
        std::make_unique<::dmr::ReconfigEngine>(*exec.session, period);
  }
  by_id_[exec.id] = &exec;
  exec.session->schedule();
}

void WorkloadDriver::started(const obs::JobFact& f) {
  const auto it = by_id_.find(f.job.id);
  if (it == by_id_.end()) return;  // a resizer, not one of ours
  Exec& exec = *it->second;
  exec.steps_left = exec.plan.model.iterations;
  // Defer to a fresh event: this fact fires inside a Manager scheduling
  // pass, and the first reconfiguring point itself mutates the manager
  // (reentrancy hazard otherwise).
  engine_.schedule_after(0.0, [this, &exec] { begin_execution(exec); });
}

void WorkloadDriver::begin_execution(Exec& exec) {
  double delay = 0.0;
  if (exec.plan.flexible) delay = reconfiguring_point(exec);
  proceed_after_check(exec, delay);
}

void WorkloadDriver::proceed_after_check(Exec& exec, double delay) {
  if (delay <= 0.0) {
    // No redistribution to pay for; a zero-cost shrink (no modeled state)
    // still completes its drain before the next step.  A rigid job never
    // negotiates, so it can never have a pending shrink — skip the
    // (mutex-guarded) no-op on the archive replay's hot path.
    if (exec.plan.flexible) exec.engine->complete_shrink();
    schedule_step(exec);
    return;
  }
  engine_.schedule_after(delay, [this, &exec] {
    // A shrink's draining nodes are released once the redistribution
    // (the modeled delay) completes; no-op otherwise.
    exec.engine->complete_shrink();
    schedule_step(exec);
  });
}

void WorkloadDriver::schedule_step(Exec& exec) {
  const rms::Job& job = federation_.job(exec.id);
  // Synchronous iterations: the slowest node in the allocation gates the
  // step (speed 1.0 everywhere on a homogeneous cluster).  Only a
  // reconfiguring point changes the allocation, so the duration holds
  // for the whole span.
  const double speed = federation_.cluster_for(exec.id).min_speed(job.nodes);
  const double duration =
      exec.plan.model.step_seconds(job.allocated()) / speed;
  // The span runs to the job's finish or to the first step end whose
  // reconfiguring point the inhibitor lets through; the points in
  // between change no state.  One `t += duration` per step, as one
  // event per step would compute it, keeps every instant bit-identical,
  // and the engine queues the landing as the last link of a chain of
  // steps, so same-instant ties order as the per-step events would.
  std::optional<::dmr::Inhibitor> gate;
  if (exec.plan.flexible) gate = exec.engine->inhibitor();
  double last_start = engine_.now();
  double t = last_start;
  int steps = 0;
  do {
    last_start = t;
    t += duration;
    ++steps;
  } while (steps < exec.steps_left && !(gate && gate->would_allow(t)));
  exec.span_steps = steps;
  engine_.schedule_span(last_start, duration,
                        [this, &exec] { finish_span(exec); });
}

void WorkloadDriver::finish_span(Exec& exec) {
  exec.steps_left -= exec.span_steps;
  if (exec.plan.flexible) inhibited_checks_ += exec.span_steps - 1;
  if (exec.steps_left <= 0) {
    exec.session->finish();
    return;
  }
  proceed_after_check(exec, reconfiguring_point(exec));
}

double WorkloadDriver::apply_outcome(Exec& exec, rms::DmrOutcome& outcome) {
  if (outcome.action == rms::Action::None) return 0.0;
  const rms::Job& job = federation_.job(exec.id);
  // For an expand the allocation has already grown, so the pre-resize
  // size is allocated - added; for a shrink the draining nodes are still
  // attached, so allocated *is* the old size.
  const int previous =
      outcome.action == rms::Action::Expand
          ? job.allocated() - static_cast<int>(outcome.added_nodes.size())
          : job.allocated();
  // The modeled movement is the Report this substrate "measures": it
  // flows into the outcome, the shared engine's totals and the workload
  // metrics exactly like a real redistribution would.  Transfer
  // bandwidth scales with the allocation's gating partition speed.
  const double node_speed =
      federation_.cluster_for(exec.id).min_speed(job.nodes);
  const redist::Report moved = config_.cost.movement(
      exec.plan.model.state_bytes, previous, outcome.new_size, node_speed);
  outcome.bytes_redistributed = moved.bytes_moved;
  outcome.redistribution_seconds = moved.seconds;
  exec.engine->record_redistribution(moved);
  // The stamped outcome is the carrier: workload totals read it back.
  bytes_redistributed_ += outcome.bytes_redistributed;
  redistribution_seconds_ += outcome.redistribution_seconds;
  // A modeled report has no registry; it must account for exactly the
  // plan's declared state bytes.
  stream_.emit(obs::kRedistReport, &obs::Sink::redist_report,
               obs::RedistFact{moved, exec.plan.model.state_bytes,
                               engine_.now(), true,
                               federation_.cluster_of(exec.id), exec.id,
                               outcome.action, previous, outcome.new_size});
  return config_.cost.protocol_seconds(outcome.new_size) +
         outcome.redistribution_seconds;
}

double WorkloadDriver::reconfiguring_point(Exec& exec) {
  // The negotiate/defer/apply protocol is the shared engine's job; the
  // driver only prices the result in virtual time.  The asynchronous
  // call overlaps negotiation with the next step, so the per-check
  // overhead is hidden (that is its selling point).
  auto outcome = exec.engine->check(
      config_.asynchronous ? ::dmr::Mode::Async : ::dmr::Mode::Sync,
      exec.plan.model.request);
  if (!outcome) return 0.0;  // inhibited: the RMS was never contacted
  const double overhead =
      config_.asynchronous ? 0.0 : config_.check_overhead_seconds;
  return overhead + apply_outcome(exec, *outcome);
}

void WorkloadDriver::collect_cluster_metrics(WorkloadMetrics& metrics,
                                             double first_arrival,
                                             double makespan) const {
  const bool multi = federation_.cluster_count() > 1;
  for (int c = 0; c < federation_.cluster_count(); ++c) {
    const std::string& name = federation_.cluster_name(c);
    const rms::Manager& manager = federation_.manager(c);
    const rms::Cluster& cluster = manager.cluster();
    if (cluster.partition_count() > 1) {
      for (int p = 0; p < cluster.partition_count(); ++p) {
        PartitionUtilization part;
        part.name = multi ? name + "/" + cluster.partition(p).name
                          : cluster.partition(p).name;
        part.nodes = cluster.partition(p).nodes;
        const std::string series = "allocated:" + part.name;
        if (trace_.has(series)) {
          part.utilization =
              trace_.average(series, first_arrival, makespan) / part.nodes;
        }
        metrics.partitions.push_back(std::move(part));
      }
    }
    if (!multi) continue;
    ClusterMetrics member;
    member.name = name;
    member.nodes = cluster.size();
    const std::string series = "allocated@" + name;
    if (trace_.has(series)) {
      member.utilization =
          trace_.average(series, first_arrival, makespan) / member.nodes;
    }
    std::vector<double> waits;
    for (const rms::Job* job : manager.jobs()) {
      if (job->state != rms::JobState::Completed) continue;
      ++member.jobs;
      waits.push_back(job->wait_time());
      member.makespan = std::max(member.makespan, job->end_time);
    }
    member.wait = util::summarize(std::move(waits));
    member.expands = manager.counters().expands;
    member.shrinks = manager.counters().shrinks;
    member.checks = manager.counters().checks;
    member.aborted_expands = manager.counters().aborted_expands;
    metrics.clusters.push_back(std::move(member));
  }
}

WorkloadMetrics WorkloadDriver::run() {
  // Stream the add()ed plans through one pending arrival event: the
  // queue holds the next arrival only, not the whole backlog.  A stable
  // sort keeps same-instant arrivals in add() order, the order in which
  // arrivals scheduled up front would fire.
  by_id_.reserve(execs_.size());
  const auto pending =
      arrivals_.begin() + static_cast<std::ptrdiff_t>(next_arrival_);
  std::stable_sort(pending, arrivals_.end(), [](const Exec* a, const Exec* b) {
    return a->plan.arrival < b->plan.arrival;
  });
  schedule_next_arrival();
  engine_.run();
  if (!federation_.all_done()) {
    throw std::logic_error("WorkloadDriver: engine drained with live jobs");
  }
  return collect_metrics();
}

WorkloadMetrics WorkloadDriver::collect_metrics() const {
  WorkloadMetrics metrics;
  std::vector<double> waits, execs, completions;
  double makespan = 0.0;
  for (const rms::Job* job : federation_.jobs()) {
    if (job->state != rms::JobState::Completed) continue;
    waits.push_back(job->wait_time());
    execs.push_back(job->execution_time());
    completions.push_back(job->completion_time());
    makespan = std::max(makespan, job->end_time);
    ++metrics.jobs;
  }
  metrics.makespan = makespan;
  metrics.wait = util::summarize(std::move(waits));
  metrics.execution = util::summarize(std::move(execs));
  metrics.completion = util::summarize(std::move(completions));
  // Utilization integrates over [first arrival, makespan]: a staggered
  // workload's dead lead-in (nothing submitted yet) is not the cluster's
  // fault and used to understate the metric.  An empty window — no
  // arrivals yet, or nothing completed (makespan == first arrival) —
  // leaves utilization at 0 instead of dividing by a zero-length span.
  double first_arrival = makespan;
  for (const auto& exec : execs_) {
    first_arrival = std::min(first_arrival, exec.plan.arrival);
  }
  if (!execs_.empty() && trace_.has("allocated") && makespan > first_arrival) {
    metrics.utilization =
        trace_.average("allocated", first_arrival, makespan) /
        federation_.total_nodes();
    collect_cluster_metrics(metrics, first_arrival, makespan);
  }
  const rms::Manager::Counters counters = federation_.counters();
  metrics.expands = counters.expands;
  metrics.shrinks = counters.shrinks;
  metrics.checks = counters.checks;
  metrics.inhibited_checks = inhibited_checks_;
  metrics.aborted_expands = counters.aborted_expands;
  metrics.events = engine_.executed();
  metrics.schedule_requests = counters.schedule_requests;
  metrics.schedule_passes = counters.schedule_passes;
  metrics.schedule_passes_saved = counters.schedule_passes_saved;
  metrics.bytes_redistributed = bytes_redistributed_;
  metrics.redistribution_seconds = redistribution_seconds_;
  if (config_.hooks.attr != nullptr) {
    const std::vector<double> totals = config_.hooks.attr->cause_totals();
    metrics.wait_causes.reserve(static_cast<std::size_t>(
        obs::kBlockReasonCount));
    for (int r = 0; r < obs::kBlockReasonCount; ++r) {
      metrics.wait_causes.push_back(WaitCause{
          obs::block_reason_key(static_cast<obs::BlockReason>(r)),
          totals[static_cast<std::size_t>(r)]});
    }
  }
  return metrics;
}

}  // namespace dmr::drv
