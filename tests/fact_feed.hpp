// Hand-fed lifecycle facts for the subscriber unit tests.
//
// chk::Auditor, obs::WaitAttributor and obs::Profiler take facts only
// through their obs::Sink methods.  A FactFeed emits exactly the facts a
// test case names through a real obs::Stream, so the tests exercise the
// same dispatch path a run does: job facts borrow hand-built rms::Job
// records (created on first use, kept at stable addresses) and a real,
// idle one-member rms::Manager, so the conservation sweeps an auditor
// runs on expand / shrink facts see a clean cluster.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "dmr/observe.hpp"
#include "dmr/redist.hpp"
#include "dmr/simulation.hpp"

namespace dmr::test {

class FactFeed {
 public:
  /// Attach `sinks` to the feed's stream, in argument order.
  template <typename... Sinks>
  explicit FactFeed(Sinks&... sinks) : manager_(idle_cluster()) {
    (stream_.attach(sinks), ...);
  }

  /// The record job facts about `id` carry (set spec fields here, e.g.
  /// spec.internal_resizer, before emitting).
  rms::Job& job(JobId id) {
    rms::Job& record = jobs_[id];
    record.id = id;
    return record;
  }

  // --- job facts ---------------------------------------------------------------

  void submitted(JobId id, double now, const std::string& name = "") {
    job(id).spec.name = name;
    stream_.emit(obs::kSubmitted, &obs::Sink::submitted, fact(id, now));
  }
  void started(JobId id, double now) {
    stream_.emit(obs::kStarted, &obs::Sink::started, fact(id, now));
  }
  /// An expansion granted (2 -> 4 nodes).
  void resized(JobId id, double now) {
    stream_.emit(obs::kResized, &obs::Sink::resized, fact(id, now),
                 Action::Expand, 2, 4);
  }
  void shrink_begun(JobId id, double now) {
    stream_.emit(obs::kShrinkBegun, &obs::Sink::shrink_begun, fact(id, now),
                 1);
  }
  /// A completed drain.
  void shrink_ended(JobId id, double now) {
    stream_.emit(obs::kShrinkEnded, &obs::Sink::shrink_ended, fact(id, now),
                 true);
  }
  void finished(JobId id, double now) {
    stream_.emit(obs::kFinished, &obs::Sink::finished, fact(id, now));
  }
  void blocked(JobId id, double now, obs::BlockReason reason,
               JobId blocker) {
    stream_.emit(obs::kBlocked, &obs::Sink::blocked, fact(id, now), reason,
                 blocker);
  }

  // --- engine, federation, scheduler and redistribution facts --------------

  /// A plain event's key: a one-link chain rooted at its origin.
  void dispatched(double time, int lane, double origin, std::uint64_t seq,
                  double clock, std::uint64_t watermark) {
    dispatched(obs::EventKey{time, lane, origin, false, origin, seq, seq},
               clock, watermark);
  }
  void dispatched(const obs::EventKey& key, double clock,
                  std::uint64_t watermark) {
    stream_.emit(obs::kDispatched, &obs::Sink::dispatched,
                 obs::DispatchFact{key, clock, watermark});
  }
  /// `id` routed to federation member `member`.
  void placed(JobId id, int member, double now, double wall_seconds = 0.0) {
    const std::string cluster = "member" + std::to_string(member);
    const std::string policy = "feed";
    const std::string rejected;
    stream_.emit(obs::kPlaced, &obs::Sink::placed,
                 obs::PlaceFact{job(id), member, cluster, policy, 0, rejected,
                                now, wall_seconds});
  }
  void schedule_pass(double wall_seconds) {
    stream_.emit(obs::kSchedulePass, &obs::Sink::schedule_pass,
                 obs::PassFact{manager_, 0, 0.0, wall_seconds, 1, 0});
  }
  /// A strategy's measured report (`simulated`: the driver's model).
  void redist(const redist::Report& report, std::size_t registered_bytes,
              double now, bool simulated = false) {
    stream_.emit(obs::kRedistReport, &obs::Sink::redist_report,
                 obs::RedistFact{report, registered_bytes, now, simulated, 0,
                                 kInvalidJob, Action::None, 0, 0});
  }

 private:
  static rms::RmsConfig idle_cluster() {
    rms::RmsConfig config;
    config.nodes = 4;
    return config;
  }
  obs::JobFact fact(JobId id, double now) {
    return obs::JobFact{manager_, job(id), 0, now};
  }

  rms::Manager manager_;
  std::map<JobId, rms::Job> jobs_;
  obs::Stream stream_;
};

}  // namespace dmr::test
