// obs::TraceRecorder — structured tracing in Chrome trace-event JSON.
//
// The paper's core artifacts are *timelines*: jobs expanding and
// shrinking across a cluster over simulated time.  The recorder captures
// them as a Perfetto / chrome://tracing loadable file:
//
//  - per-job lifecycle spans (submit -> wait -> run, with expand/shrink
//    instant events) as nestable async events keyed by job id, grouped
//    under the owning member cluster's process track;
//  - spans for schedule passes and reconfiguration negotiate/apply
//    phases ("X" complete events whose duration is the *wall* time the
//    pass burned, placed at the simulated instant it ran);
//  - drain phases and redistribution executions as async spans covering
//    their simulated duration;
//  - federation placement decisions as instant events;
//  - counter tracks ("C" events: allocated nodes, running jobs, queue
//    depth, ring depth, ...).
//
// Timestamps are simulated seconds converted to trace microseconds, so
// the Perfetto timeline *is* the paper's virtual-time axis.  The
// recorder has no clock of its own: every record call takes the
// timestamp explicitly.  The simulation layers never call it —
// make_trace_sink() builds the lifecycle-stream subscriber that renders
// their facts into events.  The ring is bounded: when it fills, *new*
// events are dropped and counted — dropped() and the written JSON
// surface the loss, never silent truncation.  All entry points are
// mutex-guarded.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sink.hpp"

namespace dmr::obs {

/// One recorded trace event (the writer renders it to JSON).
struct TraceEvent {
  double ts_us = 0.0;      ///< simulated time in trace microseconds
  double dur_us = 0.0;     ///< "X" events: span duration (wall or sim)
  double value = 0.0;      ///< "C" events: the counter sample
  std::uint64_t id = 0;    ///< async events: scoping id (the job id)
  std::uint32_t pid = 0;   ///< process track (0 = federation, c+1 = member c)
  std::uint32_t tid = 0;   ///< thread track within the process
  char ph = 'i';           ///< trace-event phase: X i C b n e
  std::string name;
  std::string cat;         ///< async events: category scoping the id
  std::string args;        ///< pre-rendered JSON object body ("\"k\":v,...")
};

class TraceRecorder {
 public:
  /// Ring capacity in events; the ring never grows and never silently
  /// truncates — overflow increments dropped() instead.
  explicit TraceRecorder(std::size_t capacity = std::size_t(1) << 20);

  // --- track naming (metadata; bounded by track count, not ring space) ------

  void set_process_name(std::uint32_t pid, std::string name);
  void set_thread_name(std::uint32_t pid, std::uint32_t tid, std::string name);

  // --- spans and instants on a (pid, tid) track -----------------------------

  /// Complete span at a simulated instant whose duration is measured in
  /// *wall* microseconds (schedule passes and negotiate/apply phases run
  /// in zero simulated time but real wall time).
  void complete(std::uint32_t pid, std::uint32_t tid, double ts_seconds,
                double wall_dur_us, std::string name, std::string args = {});

  /// Thread-scoped instant event.
  void instant(std::uint32_t pid, std::uint32_t tid, double ts_seconds,
               std::string name, std::string args = {});

  // --- nestable async spans, keyed by (pid, cat, id) ------------------------

  void async_begin(std::uint32_t pid, double ts_seconds, std::string cat,
                   std::uint64_t id, std::string name, std::string args = {});
  void async_instant(std::uint32_t pid, double ts_seconds, std::string cat,
                     std::uint64_t id, std::string name,
                     std::string args = {});
  void async_end(std::uint32_t pid, double ts_seconds, std::string cat,
                 std::uint64_t id, std::string name = {});

  // --- counter tracks, keyed by (pid, name) ---------------------------------

  void counter(std::uint32_t pid, double ts_seconds, std::string name,
               double value);

  // --- introspection / output ----------------------------------------------

  std::size_t recorded() const;
  std::uint64_t dropped() const;
  std::size_t capacity() const { return capacity_; }

  /// Render the whole trace as one Chrome trace-event JSON object:
  /// {"displayTimeUnit":"ms","otherData":{"dropped_events":N},
  ///  "traceEvents":[...]}.  Metadata (track names) first, then the ring
  /// in record order.  When events were dropped, a final instant event
  /// flags the loss on the timeline itself.
  void write_json(std::ostream& out) const;
  std::string to_json() const;
  /// write_json to `path`; throws std::runtime_error when unwritable.
  void write_file(const std::string& path) const;

 private:
  void push(TraceEvent event);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  std::uint64_t dropped_ = 0;
  std::map<std::uint32_t, std::string> process_names_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::string>
      thread_names_;
};

/// The Chrome-trace subscriber: renders one run's lifecycle facts into
/// `trace`.  Federation facts land on process 0, member c's on process
/// c + 1 (thread 0 "schedule", thread 1 "reconfig"); `members` names the
/// federation's members in order.  The sink keeps per-run state (queue
/// depths, counts, open drain spans), so each run gets its own; several
/// runs may share one recorder.
std::unique_ptr<Sink> make_trace_sink(TraceRecorder& trace,
                                      const std::vector<std::string>& members);

}  // namespace dmr::obs
