#include "svc/service.hpp"

#include <algorithm>
#include <stdexcept>

#include "apps/models.hpp"

namespace dmr::svc {

namespace {

/// The driver config the service actually runs: the caller's, with the
/// service-owned attributor patched in when wait attribution is on and
/// no external one was supplied.  config_ itself stays untouched so
/// snapshots/forks never carry a dangling hook pointer.
drv::DriverConfig attributed_driver(const ServiceConfig& config,
                                    obs::WaitAttributor* attr) {
  drv::DriverConfig patched = config.driver;
  if (config.attribute_waits && patched.hooks.attr == nullptr) {
    patched.hooks.attr = attr;
  }
  return patched;
}

}  // namespace

Service::Service(ServiceConfig config)
    : obs::Sink(obs::kFinished | obs::kResized),
      config_(config),
      attr_ptr_(config.driver.hooks.attr != nullptr
                    ? config.driver.hooks.attr
                    : (config.attribute_waits ? &attr_ : nullptr)),
      driver_(engine_, attributed_driver(config, &attr_)),
      queue_(config.queue_capacity),
      window_(config.window, config.sample_period) {
  // The windowed collectors subscribe to the same stream the trace does.
  driver_.attach(*this);
  // The sampler chain: one Lane::Sample event per period, rescheduling
  // itself forever.  Sample events fire after every state-changing event
  // at the same instant, so a sample at t reports the settled state.
  sampler_ = [this] {
    take_sample();
    engine_.schedule_after(config_.sample_period, sampler_, sim::Lane::Sample);
  };
  engine_.schedule_after(config_.sample_period, sampler_, sim::Lane::Sample);
}

void Service::finished(const obs::JobFact& f) {
  if (f.job.spec.internal_resizer) return;
  window_.observe_completion(f.job.wait_time(), f.job.completion_time());
}

void Service::resized(const obs::JobFact&, Action, int, int) {
  window_.observe_reconfig();
}

bool Service::submit(JobRequest request) {
  if (request.arrival < engine_.now()) {
    ++rejected_stale_;
    return false;
  }
  if (first_arrival_ < 0.0 || request.arrival < first_arrival_) {
    first_arrival_ = request.arrival;
  }
  log_.push_back(request);
  driver_.submit_at(to_plan(request));
  ++accepted_;
  return true;
}

void Service::pump() {
  JobRequest request;
  while (queue_.pop(request)) submit(std::move(request));
}

void Service::advance_to(double t) {
  if (t < engine_.now()) {
    throw std::invalid_argument("Service: advance_to into the past");
  }
  pump();
  engine_.run_until(t);
}

bool Service::drain(double max_sim_time) {
  for (;;) {
    pump();
    if (all_done() && queue_.empty()) return true;
    if (engine_.now() >= max_sim_time) return false;
    advance_to(std::min(max_sim_time, engine_.now() + config_.sample_period));
  }
}

drv::JobPlan Service::to_plan(const JobRequest& request) const {
  if (request.nodes <= 0 || request.steps <= 0 || request.runtime < 0.0) {
    throw std::invalid_argument("Service: malformed job request");
  }
  drv::JobPlan plan;
  plan.arrival = request.arrival;
  plan.model = apps::fs_model(request.steps, request.nodes,
                              request.runtime / request.steps,
                              request.max_nodes, request.state_bytes);
  plan.model.request.min_procs = std::max(1, request.min_nodes);
  plan.model.request.max_procs = std::max(request.nodes, request.max_nodes);
  plan.submit_nodes = request.nodes;
  const bool rigid =
      request.min_nodes == request.nodes && request.max_nodes == request.nodes;
  plan.flexible = request.flexible && !rigid;
  plan.moldable = request.moldable;
  plan.partition = request.partition;
  return plan;
}

void Service::take_sample() {
  MetricsSample sample;
  sample.time = engine_.now();
  window_.fill(sample);
  const fed::Federation& federation = driver_.federation();
  int pending = 0;
  for (int c = 0; c < federation.cluster_count(); ++c) {
    // Queue depth is a count; the unsorted view costs no priority sort.
    pending += static_cast<int>(
        federation.manager(c).pending_unsorted().size());
  }
  sample.queue_depth = pending;
  sample.ring_depth = static_cast<int>(queue_.size());
  // Utilization over the trailing window, clipped to the first arrival:
  // an empty window (nothing submitted yet, or a zero-length span)
  // reports 0 instead of dividing by zero.
  const double t1 = engine_.now();
  double t0 = std::max(0.0, t1 - window_.window_seconds());
  if (first_arrival_ >= 0.0) t0 = std::max(t0, first_arrival_);
  const sim::SeriesRecorder& trace = driver_.trace();
  if (first_arrival_ >= 0.0 && t1 > t0 && trace.has("allocated")) {
    sample.utilization =
        trace.average("allocated", t0, t1) / federation.total_nodes();
  }
  sample.submitted_total = accepted_;
  sample.rejected_full_total =
      static_cast<long long>(queue_.rejected_full());
  sample.rejected_stale_total = rejected_stale_;
  if (attr_ptr_ != nullptr) {
    // Open segments count up to the sample instant so a live view shows
    // waits as they accrue, not only after the job starts.
    sample.cause_seconds = attr_ptr_->cause_totals(t1);
    sample.cause_keys.reserve(
        static_cast<std::size_t>(obs::kBlockReasonCount));
    for (int r = 0; r < obs::kBlockReasonCount; ++r) {
      sample.cause_keys.push_back(
          obs::block_reason_key(static_cast<obs::BlockReason>(r)));
    }
  }
  // Lane::Sample fires after every state change at the same instant, so
  // subscribers see the settled post-event state.
  driver_.stream().emit(
      obs::kSampled, &obs::Sink::sampled,
      obs::SampleFact{federation, t1, sample.ring_depth, sample.utilization});
  window_.rotate();
  samples_.push_back(sample);
  lines_.push_back(sample.to_json());
  if (sink_) sink_(lines_.back());
}

void Service::add_nodes(int count, int member, const std::string& partition) {
  driver_.federation_mutable().add_nodes(member, count, partition);
  driver_.federation_mutable().schedule(engine_.now());
}

void Service::set_placement(fed::Placement placement) {
  driver_.federation_mutable().set_placement(placement);
}

void Service::set_shrink_boost(bool enabled) {
  fed::Federation& federation = driver_.federation_mutable();
  for (int c = 0; c < federation.cluster_count(); ++c) {
    federation.manager(c).set_shrink_priority_boost(enabled);
  }
}

}  // namespace dmr::svc
