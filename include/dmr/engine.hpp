// dmr::ReconfigEngine — the one reconfiguring-point state machine.
//
// Every substrate used to carry its own copy of the negotiate -> (defer)
// -> apply -> drain-ACK -> complete/abort-shrink sequence: the real-mode
// runtime in rt::DmrRuntime and the discrete-event workload driver in
// drv::WorkloadDriver.  This class is the single remaining
// implementation.  It is clock-agnostic (time comes from the session's
// clock), substrate-agnostic (completion of the data movement is
// reported back through complete_shrink()/abort_shrink(), whatever
// "data movement" means for the caller), and mode-agnostic (the same
// object serves dmr_check_status and dmr_icheck_status semantics).
#pragma once

#include <functional>
#include <mutex>
#include <optional>

#include "dmr/inhibitor.hpp"
#include "dmr/session.hpp"
#include "dmr/types.hpp"
#include "redist/strategy.hpp"

namespace dmr {

class ReconfigEngine {
 public:
  /// Observer fired (after the engine lock is released) whenever an
  /// outcome with action != None is applied — the completion hook
  /// substrates use to start their redistribution work.  May call back
  /// into the engine.
  using ApplyHook = std::function<void(const Outcome&)>;

  explicit ReconfigEngine(Session& session, double inhibitor_period = 0.0,
                          ApplyHook on_apply = {});

  /// One reconfiguring point.
  ///
  ///  - std::nullopt: the inhibitor swallowed the call; the RMS was not
  ///    contacted.
  ///  - Sync: the outcome of negotiate + apply (dmr_check_status).
  ///  - Async: the outcome of applying the *previously* negotiated
  ///    decision (Action::None on the first call); a fresh negotiation is
  ///    scheduled for the next point unless an action was just applied
  ///    (dmr_icheck_status).
  ///
  /// Throws std::logic_error after the session finished.
  std::optional<Outcome> check(Mode mode, const Request& request);

  /// A shrink stays pending until the substrate drains the retiring
  /// ranks' data and calls complete_shrink() (paper: the management node
  /// collected every ACK) — or gives up with abort_shrink().
  bool shrink_pending() const;
  /// Release the draining nodes; no-op when no shrink is pending.
  void complete_shrink();
  /// Keep the allocation; no-op when no shrink is pending.
  void abort_shrink();

  /// Forget the inhibition window (fresh process set after a resize).
  void reset_inhibitor();
  void set_inhibitor_period(double period);
  double inhibitor_period() const;
  /// A copy of the inhibitor's current window, for side-effect-free
  /// look-ahead (Inhibitor::would_allow) without taking the engine lock
  /// per query.
  Inhibitor inhibitor() const;

  /// Observer fired (outside the engine lock) for every recorded
  /// redistribution report — the calibration tap: hosts typically bind
  /// it to drv::CostModel::observe so simulated resize costs track
  /// measured movement.
  using RedistObserver = std::function<void(const redist::Report&)>;
  void set_redist_observer(RedistObserver observer);

  /// Record the measured (or modeled) cost of one completed
  /// redistribution.  Substrates call this once per resize; the totals
  /// feed Outcome reporting and cost-model calibration.
  void record_redistribution(const redist::Report& report);
  /// Most recent redistribution report (zeroed before the first resize).
  redist::Report last_redistribution() const;
  /// Sum over every redistribution recorded on this engine.
  redist::Report total_redistribution() const;

  Session& session() { return session_; }
  JobId job() const { return session_.job(); }

 private:
  Session& session_;
  ApplyHook on_apply_;
  RedistObserver redist_observer_;
  mutable std::mutex mu_;
  Inhibitor inhibitor_;
  /// Decision negotiated at the previous asynchronous point, to be
  /// applied at the next one (possibly outdated by then).
  std::optional<Decision> deferred_;
  redist::Report last_redistribution_;
  redist::Report total_redistribution_;
  bool shrink_pending_ = false;
};

}  // namespace dmr
