// BufferedAppState: AppState implemented generically over registered
// buffers.
//
// Subclasses register their distributed structures once (typically in
// the constructor) and never touch the wire again: state offload /
// reconstruction on resizes runs through the session's pluggable
// redist::Strategy, and the global checkpoint format used by the C/R
// baseline is derived from the same registrations — rank-local blocks
// are assembled into (and sliced back out of) canonical global order.
#pragma once

#include <memory>

#include "redist/strategy.hpp"
#include "rt/malleable_app.hpp"

namespace dmr::rt {

class BufferedAppState : public AppState {
 public:
  explicit BufferedAppState(std::shared_ptr<redist::Strategy> strategy = {});

  /// The rank-local buffer registrations (wire order = registration
  /// order; must match across every rank of both process sets).
  redist::Registry& registry() { return registry_; }
  const redist::Registry& registry() const { return registry_; }

  /// Strategy in use; defaults to make_strategy("p2p") when none was
  /// injected.
  redist::Strategy& strategy();

  void use_strategy(std::shared_ptr<redist::Strategy> strategy) final;
  const redist::Report* last_redist_report() const final;

  // Generic data movement over the registered buffers.
  void send_state(const smpi::Comm& inter, int my_old_rank, int old_size,
                  int new_size) final;
  void recv_state(const smpi::Comm& parent, int my_new_rank, int old_size,
                  int new_size) final;
  std::vector<std::byte> serialize_global(const smpi::Comm& world) override;
  void deserialize_global(const smpi::Comm& world,
                          std::span<const std::byte> bytes) override;

 protected:
  /// Called after recv_state / deserialize_global installed the new
  /// geometry, so subclasses can refresh rank-derived members.
  virtual void on_layout_changed(int rank, int nprocs);

 private:
  std::shared_ptr<redist::Strategy> strategy_;
  redist::Registry registry_;
  redist::Report last_report_;
  bool has_report_ = false;
};

}  // namespace dmr::rt
