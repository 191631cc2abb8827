// chk::Auditor — the opt-in runtime invariant checker.
//
// The stack's headline guarantees (deterministic replay, digest-identical
// runs with observability attached, snapshot/fork equality) are pinned by
// end-to-end property tests that say *that* a run diverged, never
// *where*.  The auditor is the "where": a subscriber of the lifecycle
// stream (obs/sink.hpp), it receives every layer's transitions through
// its Sink methods, and only through them, and machine-checks the
// invariants the tests rely on:
//
//  - per-job lifecycle DFA: submitted -> queued -> running
//    {-> reconfiguring -> running}* -> done; every other edge is a
//    violation carrying the job id and the simulated time;
//  - node conservation in rms::Manager / rms::Cluster: per partition
//    idle + allocated == total, draining nodes are always owned, no node
//    appears in two allocations, and every job's node list matches the
//    cluster's owner table exactly;
//  - event-queue ordering in sim::Engine: the clock never moves
//    backwards, and two events that coexisted in the queue dispatch in
//    the engine's key order (obs::precedes);
//  - federation identity: every member's job ids stay inside its
//    disjoint kClusterIdStride range and route back to the member that
//    placed them;
//  - redistribution byte conservation: each dmr::redist Report accounts
//    for exactly the registered buffer bytes, with moved <= total and
//    sane transfer/lane/second counts.
//
// Violations are collected into a structured chk::Report (JSON with the
// same provenance fields as the BENCH_*.json rows); Options::fail_fast
// instead aborts the run at the first violation by throwing AuditError.
// Detached (the default), every emit site is one bit test.
//
// Full conservation sweeps (check_manager) run after every schedule()
// call that ran a pass, after an expansion is granted, when a shrink
// begins and when it completes; the resident service's samples add a
// federation sweep plus a sweep of every member.  check_manager and
// check_federation are also callable directly.  Unit tests hand-feed
// facts through an obs::Stream (tests/fact_feed.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "dmr/types.hpp"
#include "obs/sink.hpp"

namespace dmr::rms {
class Manager;
}
namespace dmr::fed {
class Federation;
}

namespace dmr::chk {

/// One invariant breach: which rule, where, and when (simulated time; 0
/// for wall-clock contexts like a real redistribution strategy).
struct Violation {
  std::string invariant;
  std::string message;
  ::dmr::JobId job = ::dmr::kInvalidJob;
  double sim_time = 0.0;
};

/// The structured audit result: violations plus how much checking
/// actually happened (a report with zero checks is not a clean bill).
struct Report {
  std::vector<Violation> violations;
  long long lifecycle_edges = 0;
  long long event_dispatches = 0;
  long long conservation_audits = 0;
  long long placement_checks = 0;
  long long federation_audits = 0;
  long long redist_reports = 0;
  /// Violations past Options::max_violations are counted, not stored.
  long long dropped_violations = 0;

  bool ok() const { return violations.empty() && dropped_violations == 0; }
  long long total_checks() const {
    return lifecycle_edges + event_dispatches + conservation_audits +
           placement_checks + federation_audits + redist_reports;
  }
  /// One JSON object with sorted, stable keys and the BENCH_*.json
  /// provenance fields (git_sha / timestamp / threads).
  std::string json() const;
  /// Human-readable multi-line summary (one line per violation).
  std::string describe() const;
};

/// Thrown by a fail-fast auditor at the first violation.
class AuditError : public std::logic_error {
 public:
  explicit AuditError(const Violation& violation);
  const Violation violation;
};

/// All entry points are serialized on an internal mutex: the simulation
/// side is single-threaded, but redist strategies record() reports from
/// concurrent rank threads, and one auditor may see both in one run.
class Auditor : public obs::Sink {
 public:
  struct Options {
    /// Throw AuditError at the first violation instead of collecting.
    bool fail_fast = false;
    /// Stored-violation cap; the rest are counted in dropped_violations
    /// (reported, never silently lost).
    std::size_t max_violations = 64;
  };

  Auditor() : Auditor(Options{}) {}
  explicit Auditor(Options options);

  // --- stream subscription: the only way facts reach the auditor ---------

  // Per-job lifecycle DFA edges (internal resizer jobs included).
  void submitted(const obs::JobFact& f) override;
  void started(const obs::JobFact& f) override;
  /// An expansion was applied (legal only while running); also sweeps
  /// the manager.  Shrinks are checked on shrink_ended.
  void resized(const obs::JobFact& f, Action action, int, int) override;
  /// running -> reconfiguring, plus a manager sweep.
  void shrink_begun(const obs::JobFact& f, int) override;
  /// reconfiguring -> running; a completed drain also sweeps the manager.
  void shrink_ended(const obs::JobFact& f, bool completed) override;
  /// Completion or cancellation: queued/running/reconfiguring -> done.
  void finished(const obs::JobFact& f) override;
  void schedule_pass(const obs::PassFact& f) override {
    check_manager(f.manager, f.now);
  }
  /// The placed id must lie inside the member's disjoint id range.
  void placed(const obs::PlaceFact& f) override;
  /// Event ordering: the clock never moves backwards, and events that
  /// coexisted in the queue (seq below the previous pop's watermark)
  /// dispatch in the engine's key order (obs::precedes).
  void dispatched(const obs::DispatchFact& f) override;
  /// Byte conservation: the report accounts for exactly the registered
  /// bytes (modeled reports pass their own total).
  void redist_report(const obs::RedistFact& f) override;
  /// The service's sample heartbeat: federation plus every member.
  void sampled(const obs::SampleFact& f) override;

  // --- full sweeps -----------------------------------------------------------

  /// Every member's job table stays inside its id range and routes back
  /// to the member that owns it.
  void check_federation(const fed::Federation& federation, double now);
  /// Node conservation in one manager: recompute idle/allocated/draining
  /// from the node table and cross-check counters, partitions, and every
  /// job's node list against the owner table.
  void check_manager(const rms::Manager& manager, double now);

  // --- results ---------------------------------------------------------------

  /// Copy of the collected report (copied under the lock; safe to call
  /// while rank threads are still recording).
  Report report() const;
  bool ok() const { return report().ok(); }
  void reset();

 private:
  enum class Phase { Queued, Running, Reconfiguring, Done };
  static const char* phase_name(Phase phase);

  /// Record (or, fail-fast, throw) one violation.
  void violate(const char* invariant, ::dmr::JobId job, double now,
               std::string message);
  /// DFA edge helper: job must currently be in `from`; moves it to `to`.
  void lifecycle_edge(const obs::JobFact& f, Phase from, Phase to,
                      const char* edge);

  Options options_;
  mutable std::mutex mutex_;
  Report report_;
  std::map<::dmr::JobId, Phase> phases_;

  // Last dispatched event, for the ordering check.
  bool has_last_event_ = false;
  obs::EventKey last_key_{};
  std::uint64_t last_watermark_ = 0;
};

}  // namespace dmr::chk
