// obs::Sink / obs::Stream — the one lifecycle stream every layer emits
// into (include/dmr/observe.hpp describes the facts, attach order, how
// consumed facts are derived, and how to add a subscriber).  Each fact
// has one emit site and one no-op virtual method here; fact structs
// borrow their job and manager for the duration of the call only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dmr/types.hpp"

namespace dmr::rms {
class Manager;
struct Job;
}  // namespace dmr::rms
namespace dmr::fed {
class Federation;
}
namespace dmr::redist {
struct Report;
}

namespace dmr::obs {

enum class BlockReason : int;  // obs/attr.hpp

/// One bit per fact: what a Sink consumes, what a Stream wants.
enum Fact : std::uint32_t {
  kSubmitted = 1u << 0,
  kStarted = 1u << 1,
  kResized = 1u << 2,
  kShrinkBegun = 1u << 3,
  kShrinkEnded = 1u << 4,
  kFinished = 1u << 5,
  kBlocked = 1u << 6,
  kSchedulePass = 1u << 7,
  kNegotiated = 1u << 8,
  kApplied = 1u << 9,
  kPlaced = 1u << 10,
  kAllocChanged = 1u << 11,
  kDispatched = 1u << 12,
  kRedistReport = 1u << 13,
  kSampled = 1u << 14,
};

// `member` is the federation member index (0 outside a federation) and
// `now` simulated seconds.  Job facts include internal resizer jobs (the
// lifecycle DFA covers them); user-job subscribers skip them.
struct JobFact {
  const rms::Manager& manager;
  const rms::Job& job;
  int member;
  double now;
};

/// A schedule() call that ran `passes` scheduling rounds.
struct PassFact {
  const rms::Manager& manager;
  int member;
  double now;
  double wall_seconds;
  long long passes;
  std::size_t started;
};

/// A submission routed to member `cluster`, which had `queue_depth`
/// eligible user jobs queued; `rejected` lists the members (comma
/// separated) that could not hold the job at all.
struct PlaceFact {
  const rms::Job& job;
  int member;
  const std::string& cluster;
  const std::string& policy;
  int queue_depth;
  const std::string& rejected;
  double now;
  double wall_seconds;
};

/// A member's allocated nodes and running jobs (user jobs) after a change.
struct AllocFact {
  int member;
  double now;
  int allocated;
  int running;
};

/// An event's position in sim::Engine's total order (the ordering note
/// at the top of sim/engine.hpp defines each field).  Events fire in
/// (time, lane, origin, chain, seq) order, where the chain part is
/// (late, root, root_seq): early chains first, by descending root, then
/// late chains by ascending root, then root_seq.
struct EventKey {
  double time;
  int lane;
  double origin;
  bool late;
  double root;
  std::uint64_t root_seq;
  std::uint64_t seq;
};

/// Strictly-before in the engine's order.
inline bool precedes(const EventKey& a, const EventKey& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.lane != b.lane) return a.lane < b.lane;
  if (a.origin != b.origin) return a.origin < b.origin;
  if (a.late != b.late) return b.late;
  if (a.root != b.root) return a.late ? a.root < b.root : a.root > b.root;
  if (a.root_seq != b.root_seq) return a.root_seq < b.root_seq;
  return a.seq < b.seq;
}

/// An event leaving the engine queue: `clock` is the engine time before
/// it advances, `watermark` the next sequence number (events that
/// coexisted in the queue have lower ones).
struct DispatchFact {
  EventKey key;
  double clock;
  std::uint64_t watermark;
};

/// One side of a redistribution: modeled by the driver (`simulated`:
/// seconds of simulated time from `now`) or measured by a strategy (wall
/// seconds, now = 0, no job).
struct RedistFact {
  const redist::Report& report;
  std::size_t registered_bytes;
  double now;
  bool simulated;
  int member;
  JobId job;
  Action action;
  int from;
  int to;
};

/// One resident-service metrics sample.
struct SampleFact {
  const fed::Federation& federation;
  double now;
  int ring_depth;
  double utilization;
};

class Sink {
 public:
  /// `facts`: the Fact bits this subscriber consumes.
  explicit Sink(std::uint32_t facts) : facts_(facts) {}
  virtual ~Sink() = default;

  std::uint32_t facts() const { return facts_; }

  virtual void submitted(const JobFact&) {}
  virtual void started(const JobFact&) {}
  /// Expansion granted, or shrink completed.
  virtual void resized(const JobFact&, Action, int /*from*/, int /*to*/) {}
  virtual void shrink_begun(const JobFact&, int /*draining_nodes*/) {}
  /// Drain completed, or aborted with nodes still draining.
  virtual void shrink_ended(const JobFact&, bool /*completed*/) {}
  /// Completed or cancelled (job.state tells which).
  virtual void finished(const JobFact&) {}
  virtual void blocked(const JobFact&, BlockReason, JobId /*blocker*/) {}
  virtual void schedule_pass(const PassFact&) {}
  /// The negotiate / apply phase of a reconfiguring point (`aborted`: an
  /// expansion the scheduler could not grant).
  virtual void negotiated(const JobFact&, Action, double /*wall_s*/) {}
  virtual void applied(const JobFact&, Action, bool /*aborted*/,
                       double /*wall_s*/) {}
  virtual void placed(const PlaceFact&) {}
  virtual void alloc_changed(const AllocFact&) {}
  virtual void dispatched(const DispatchFact&) {}
  virtual void redist_report(const RedistFact&) {}
  virtual void sampled(const SampleFact&) {}

 private:
  std::uint32_t facts_;
};

/// The ordered fan-out an emitting layer holds by value: subscribers are
/// notified in attach order, each only for the facts it consumes.
class Stream {
 public:
  /// Append `sink` (not owned; must outlive the emitter).
  void attach(Sink& sink) {
    sinks_.push_back(&sink);
    facts_ |= sink.facts();
  }
  /// Whether any subscriber consumes `fact`: emit sites test this before
  /// paying for a fact's payload (wall clock, diagnostics, strings).
  bool wants(std::uint32_t fact) const { return (facts_ & fact) != 0; }

  /// Deliver `fact` through `method` (e.g. &Sink::started) to its
  /// consumers; a no-op after one bit test when there are none.
  template <typename... Params, typename... Args>
  void emit(std::uint32_t fact, void (Sink::*method)(Params...),
            const Args&... args) {
    if (!wants(fact)) return;
    for (Sink* sink : sinks_) {
      if ((sink->facts() & fact) != 0) (sink->*method)(args...);
    }
  }

 private:
  std::vector<Sink*> sinks_;
  std::uint32_t facts_ = 0;
};

}  // namespace dmr::obs
