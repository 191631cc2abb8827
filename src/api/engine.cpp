#include "dmr/engine.hpp"

#include <stdexcept>
#include <utility>

namespace dmr {

ReconfigEngine::ReconfigEngine(Session& session, double inhibitor_period,
                               ApplyHook on_apply)
    : session_(session),
      on_apply_(std::move(on_apply)),
      inhibitor_(inhibitor_period) {}

std::optional<Outcome> ReconfigEngine::check(Mode mode,
                                             const Request& request) {
  Outcome applied;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (session_.finished()) {
      throw std::logic_error("ReconfigEngine: check after finish");
    }
    if (!inhibitor_.allow(session_.now())) return std::nullopt;

    if (mode == Mode::Sync) {
      // A synchronous point negotiates against the *current* state, which
      // supersedes any decision still deferred from an earlier
      // asynchronous point — drop it so a later Async call cannot apply
      // a long-outdated decision.
      deferred_.reset();
      applied = session_.check(request);
    } else {
      // Apply the decision negotiated at the previous point (if any),
      // then schedule a fresh negotiation whose result the *next* point
      // will apply — possibly against a changed system state
      // (Section VIII-C).
      const std::optional<Decision> previous =
          std::exchange(deferred_, std::nullopt);
      if (previous && previous->action != Action::None) {
        applied = session_.apply(*previous);
      }
      if (applied.action == Action::None) {
        deferred_ = session_.decide(request);
      }
    }

    if (applied.action == Action::Shrink && !applied.aborted) {
      shrink_pending_ = true;
    }
  }
  // Outside the lock: the hook may call back into the engine (e.g. to
  // start and later complete the redistribution work).
  if (applied.action != Action::None && on_apply_) on_apply_(applied);
  return applied;
}

bool ReconfigEngine::shrink_pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shrink_pending_;
}

void ReconfigEngine::complete_shrink() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!shrink_pending_) return;
  shrink_pending_ = false;
  session_.complete_shrink();
}

void ReconfigEngine::abort_shrink() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!shrink_pending_) return;
  shrink_pending_ = false;
  session_.abort_shrink();
}

void ReconfigEngine::set_redist_observer(RedistObserver observer) {
  std::lock_guard<std::mutex> lock(mu_);
  redist_observer_ = std::move(observer);
}

void ReconfigEngine::record_redistribution(const redist::Report& report) {
  RedistObserver observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_redistribution_ = report;
    total_redistribution_ += report;
    observer = redist_observer_;
  }
  // Outside the lock: the observer may query the engine.
  if (observer) observer(report);
}

redist::Report ReconfigEngine::last_redistribution() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_redistribution_;
}

redist::Report ReconfigEngine::total_redistribution() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_redistribution_;
}

void ReconfigEngine::reset_inhibitor() {
  std::lock_guard<std::mutex> lock(mu_);
  inhibitor_.reset();
}

void ReconfigEngine::set_inhibitor_period(double period) {
  std::lock_guard<std::mutex> lock(mu_);
  inhibitor_.set_period(period);
}

double ReconfigEngine::inhibitor_period() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inhibitor_.period();
}

Inhibitor ReconfigEngine::inhibitor() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inhibitor_;
}

}  // namespace dmr
