// svc::Service — the simulator as a long-running resident service.
//
// Everything else in the repo is batch: build a workload, run() it to
// completion, print end-of-run totals.  The paper's point is a *resident*
// RMS reacting to a live job stream, so the service turns the machinery
// inside out:
//
//  - submissions stream in through a bounded SPSC ring (svc::SubmitQueue)
//    with explicit QueueFull backpressure, and are fed into the live
//    driver while simulated time advances — jobs arrive *during* the
//    run, not before it;
//  - a metrics sampler rides the event loop (sim::Lane::Sample, one
//    event per sample period) and emits sliding-window JSON-lines:
//    utilization, queue depth, reconfigurations/sec and histogram-backed
//    p50/p95/p99 wait/response quantiles;
//  - snapshot() captures the service state at a simulated instant as
//    (config, accepted-submission log, clock); svc::restore() rebuilds
//    it by deterministic replay, and svc::fork_and_run() branches
//    what-if hypotheses (add nodes, switch placement, flip shrink boost)
//    from the same instant (see svc/snapshot.hpp).
//
// Time model: the caller owns the pace.  advance_to(t) pumps the ring
// and runs the event loop to simulated time t; drain() advances in
// sample-period slices until the workload completes.  The service never
// calls Engine::run() — the sampler chain keeps the event queue
// non-empty by design, which is exactly what "resident" means.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "drv/workload_driver.hpp"
#include "obs/attr.hpp"
#include "svc/metrics_window.hpp"
#include "svc/submit_queue.hpp"

namespace dmr::svc {

struct ServiceConfig {
  /// Cluster / federation / cost configuration the driver runs against.
  drv::DriverConfig driver;
  /// Submission ring capacity (rounded up to a power of two).
  std::size_t queue_capacity = 1024;
  /// Metrics cadence: one sample (and one window rotation) per period of
  /// simulated time.
  double sample_period = 30.0;
  /// Sliding-window span the samples cover.
  double window = 300.0;
  /// Attach the service-owned obs::WaitAttributor so samples carry
  /// wait_cause_* decompositions (ignored when driver.hooks.attr is
  /// already set by the caller).  Attribution is observation only; the
  /// simulated outcome is identical either way.
  bool attribute_waits = true;
};

class Service : private obs::Sink {
 public:
  explicit Service(ServiceConfig config);
  /// Pinned: engine events capture `this`, and it is a subscriber of
  /// the driver's stream.
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // --- ingest ----------------------------------------------------------------

  /// The submission ring.  Producers push JobRequests (typically from
  /// another thread); the service drains it on every advance.
  SubmitQueue& queue() { return queue_; }

  /// Submit directly, bypassing the ring (same validation/logging path
  /// the pump uses).  Returns false and counts a stale rejection when
  /// `request.arrival` precedes the simulated clock.
  bool submit(JobRequest request);

  /// Drain the ring into the driver without advancing time.
  void pump();

  // --- time ------------------------------------------------------------------

  double now() const { return engine_.now(); }

  /// Pump the ring, then advance simulated time to `t`, emitting metrics
  /// samples on cadence along the way.
  void advance_to(double t);

  /// Advance in sample-period slices (pumping each slice) until every
  /// accepted job completed and the ring is empty, or simulated time
  /// reaches `max_sim_time`.  Returns true when the workload drained.
  bool drain(double max_sim_time = 1.0e9);

  // --- observability ---------------------------------------------------------

  /// Emitted samples, in time order (JSON lines mirror sample_records).
  const std::vector<std::string>& sample_lines() const { return lines_; }
  const std::vector<MetricsSample>& sample_records() const { return samples_; }
  /// Streaming sink for sample JSON lines (stdout tailers); called in
  /// addition to the in-memory log.
  void set_sample_sink(std::function<void(const std::string&)> sink) {
    sink_ = std::move(sink);
  }

  /// Batch metrics over the jobs completed so far (callable any time).
  drv::WorkloadMetrics metrics() const { return driver_.collect_metrics(); }

  long long accepted() const { return accepted_; }
  long long rejected_stale() const { return rejected_stale_; }
  int completed() const { return driver_.completed(); }
  /// Every accepted submission completed.  (The federation's own
  /// all_done() is trivially true before arrival events fire, so the
  /// service counts accepted vs completed instead.)
  bool all_done() const { return driver_.completed() == accepted_; }

  const drv::WorkloadDriver& driver() const { return driver_; }
  drv::WorkloadDriver& driver_mutable() { return driver_; }
  /// The live wait attributor (caller-supplied or service-owned); null
  /// when the service runs without attribution.
  const obs::WaitAttributor* attribution() const { return attr_ptr_; }
  const ServiceConfig& config() const { return config_; }
  /// Accepted submissions in acceptance order (the snapshot log).
  const std::vector<JobRequest>& submission_log() const { return log_; }

  // --- live what-if hooks ----------------------------------------------------

  /// Grow a member cluster by `count` nodes right now and reschedule, so
  /// pending jobs can take the new capacity immediately.
  void add_nodes(int count, int member = 0, const std::string& partition = "");
  /// Swap the federation's placement policy for future submissions.
  void set_placement(fed::Placement placement);
  /// Flip Algorithm 1's shrink priority boost on every member.
  void set_shrink_boost(bool enabled);

 private:
  /// JobRequest -> JobPlan (the FS model, mirroring plans_from_workload).
  drv::JobPlan to_plan(const JobRequest& request) const;
  void take_sample();
  /// The metrics window's subscription: completions and applied
  /// resizes of user jobs.
  void finished(const obs::JobFact& f) override;
  void resized(const obs::JobFact& f, Action action, int from, int to) override;

  ServiceConfig config_;
  sim::Engine engine_;
  /// Service-owned attributor, wired into the driver's hooks when
  /// attribute_waits is set and the caller supplied none.  Declared
  /// before driver_: the driver's constructor reads the patched hooks.
  obs::WaitAttributor attr_;
  /// The effective attributor (caller-supplied wins); null when off.
  obs::WaitAttributor* attr_ptr_ = nullptr;
  drv::WorkloadDriver driver_;
  SubmitQueue queue_;
  MetricsWindow window_;
  std::vector<JobRequest> log_;
  std::vector<MetricsSample> samples_;
  std::vector<std::string> lines_;
  /// The self-rescheduling sampler event (captures only `this`; the
  /// engine holds copies, so no ownership cycle).
  std::function<void()> sampler_;
  std::function<void(const std::string&)> sink_;
  long long accepted_ = 0;
  long long rejected_stale_ = 0;
  double first_arrival_ = -1.0;
};

}  // namespace dmr::svc
