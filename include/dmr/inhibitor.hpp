// The "checking inhibitor" of Section V-A.
//
// Iterative applications with short steps would otherwise negotiate with
// the RMS every iteration; the inhibitor ignores DMR API calls that occur
// within `period` of the last answered one.  The paper tunes this knob
// through NANOX_SCHED_PERIOD; we read DMR_SCHED_PERIOD as the default.
#pragma once

namespace dmr {

class Inhibitor {
 public:
  /// period <= 0 disables inhibition (every check goes through).
  explicit Inhibitor(double period = 0.0) : period_(period) {}

  /// Construct from the DMR_SCHED_PERIOD environment variable.
  static Inhibitor from_env(double fallback = 0.0);

  double period() const { return period_; }
  void set_period(double period) { period_ = period; }

  /// Whether a check at `now` would be allowed, without arming the
  /// window: the side-effect-free look-ahead of allow().
  bool would_allow(double now) const {
    return period_ <= 0.0 || !(armed_ && now - last_ < period_);
  }

  /// Returns true when a check at `now` is allowed; a granted check arms
  /// the inhibition window.
  bool allow(double now) {
    if (!would_allow(now)) return false;
    if (period_ > 0.0) {
      armed_ = true;
      last_ = now;
    }
    return true;
  }

  /// Forget the window (used after a completed resize so the new process
  /// set starts fresh).
  void reset() { armed_ = false; }

 private:
  double period_;
  double last_ = 0.0;
  bool armed_ = false;
};

}  // namespace dmr
