// Real-mode malleable application loop (Listings 2-3 of the paper).
//
// An application provides an AppState with four capabilities: initialize,
// compute one step, send its state into a spawn inter-communicator, and
// reconstruct it on the other side.  run_malleable() owns the iterate ->
// check -> (spawn + offload + retire) loop: when the DMR runtime returns
// an action, every old rank collectively spawns the new process set,
// offloads its data (the OmpSs "onto" tasks), completes the shrink drain
// protocol when applicable, and exits — execution continues in the new
// communicator, exactly as the `taskwait` semantics of Listing 2.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dmr/reconfig_point.hpp"
#include "redist/strategy.hpp"
#include "smpi/universe.hpp"

namespace dmr::rt {

using ResizeDecision = ::dmr::ResizeDecision;

/// Application-state interface for malleable execution.
class AppState {
 public:
  virtual ~AppState() = default;

  /// Fresh start on the initial process set.
  virtual void init(int rank, int nprocs) = 0;

  /// One solver iteration over the current communicator.
  virtual void compute_step(const smpi::Comm& world, int step) = 0;

  /// Offload this old rank's share into the new configuration (expand or
  /// shrink; `new_size` ranks on the remote side of `inter`).
  virtual void send_state(const smpi::Comm& inter, int my_old_rank,
                          int old_size, int new_size) = 0;

  /// Rebuild local state on a freshly spawned rank from the parent side.
  virtual void recv_state(const smpi::Comm& parent, int my_new_rank,
                          int old_size, int new_size) = 0;

  /// Collective: rank 0 returns the full serialized application state
  /// (others return empty).  Used by the checkpoint/restart baseline and
  /// by tests asserting that resizes preserve state.
  virtual std::vector<std::byte> serialize_global(const smpi::Comm& world) = 0;

  /// Collective inverse: rank 0 passes the bytes, every rank rebuilds its
  /// block for the current communicator size.
  virtual void deserialize_global(const smpi::Comm& world,
                                  std::span<const std::byte> bytes) = 0;

  /// Inject the session's redistribution strategy.  No-op for states
  /// that hand-roll their movement; BufferedAppState routes all
  /// registered buffers through it.
  virtual void use_strategy(std::shared_ptr<redist::Strategy> strategy) {
    (void)strategy;
  }

  /// Measured cost of this rank's last send_state/recv_state, when the
  /// state tracks one (BufferedAppState does); nullptr otherwise.
  virtual const redist::Report* last_redist_report() const {
    return nullptr;
  }
};

using StateFactory = std::function<std::unique_ptr<AppState>()>;

/// Scripted decision hook: lets benches force a resize schedule without a
/// resource manager (e.g. Fig. 1 resizes 48 -> {12, 24, 48}).
using ForcedDecision =
    std::function<std::optional<ResizeDecision>(int step, int current_size)>;

struct MalleableConfig {
  int total_steps = 1;
  /// The DMR API arguments (min / max / factor / preferred).
  ::dmr::Request request;
  double inhibitor_period = 0.0;
  /// Use dmr_icheck_status instead of dmr_check_status.
  bool asynchronous = false;
  /// When set, bypass the runtime negotiation entirely.
  ForcedDecision forced_decision;
  /// First step at which checks begin (step 0 check usually wasted).
  int first_check_step = 1;
  /// Redistribution strategy handed to every rank's state; falls back to
  /// the session's strategy (Session::redist_strategy), then to "p2p".
  std::shared_ptr<redist::Strategy> strategy;
};

/// One completed resize, with wall-clock timing of the non-solving phase.
struct ResizeRecord {
  int step = 0;
  int old_size = 0;
  int new_size = 0;
  Action action = Action::None;
  /// Seconds from "old rank 0 starts the spawn" to "new rank 0 finished
  /// receiving its state" — the paper's "spawning" bar in Fig. 1.
  double spawn_seconds = 0.0;
  /// Measured movement aggregated over the new process set: total bytes
  /// and transfers received, over the slowest rank's wall time (zero
  /// when the state does not use registered buffers).
  std::size_t bytes_redistributed = 0;
  int redistribution_transfers = 0;
  double redistribution_seconds = 0.0;
};

struct RunReport {
  std::vector<ResizeRecord> resizes;
  int final_size = 0;
  int steps_executed = 0;
  double total_seconds = 0.0;
};

/// Launch the application on `initial_size` ranks and return a future
/// that completes when the final process set finishes the last step.
/// `point` may be null when `config.forced_decision` drives resizes.
std::future<RunReport> start_malleable(
    smpi::Universe& universe, std::shared_ptr<::dmr::ReconfigPoint> point,
    MalleableConfig config, StateFactory factory, int initial_size,
    std::vector<std::string> hosts = {});

/// Convenience blocking wrapper.
RunReport run_malleable(smpi::Universe& universe,
                        std::shared_ptr<::dmr::ReconfigPoint> point,
                        MalleableConfig config, StateFactory factory,
                        int initial_size,
                        std::vector<std::string> hosts = {});

}  // namespace dmr::rt
