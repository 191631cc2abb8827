// obs::Hooks — the attach bundle for a simulated run's observers.
//
// DriverConfig::hooks names up to four caller-owned observers.  The
// driver subscribes each one to the run's lifecycle stream
// (obs/sink.hpp) — engine, federation, every member manager and the
// driver itself — in the order auditor, attributor, the driver's own
// subscriber, trace, profiler; the trace recorder gets a trace sink
// that renders the facts into it.  No layer keeps these pointers: the
// stream is the only instrumentation path, and a null field attaches
// nothing.  The pointed-to objects must outlive the run.
#pragma once

#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace dmr::chk {
class Auditor;
}

namespace dmr::obs {

class WaitAttributor;

struct Hooks {
  /// Chrome trace-event timeline.
  TraceRecorder* trace = nullptr;
  /// Wall-clock self-profile.
  Profiler* profiler = nullptr;
  /// Runtime invariant checker (chk::Auditor).
  chk::Auditor* auditor = nullptr;
  /// Wait-time attribution (obs::WaitAttributor): typed BlockReason
  /// segments that sum to each job's wait.
  WaitAttributor* attr = nullptr;
};

}  // namespace dmr::obs
