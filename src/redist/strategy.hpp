// Redistribution strategies: pluggable engines that move every
// registered buffer across the old -> new process set of a resize.
//
// One interface, two shipped implementations:
//  - PipelinedChunks  rank-to-rank transfers of the plan_transfers
//                     overlap plan, sliced into chunks and streamed with
//                     a bounded window (mscclpp-style channel
//                     pipelining); "p2p" is the same executor with no
//                     chunking and no window, one message per transfer
//                     (the DMR way);
//  - CheckpointRoute  the C/R baseline routed through the ckpt store,
//                     unified behind the same API.
// Every execution yields a Report — measured bytes / transfers / seconds
// — which feeds drv::CostModel so simulated resize costs are calibrated
// from observed movement.
#pragma once

#include <memory>
#include <string_view>

#include "obs/sink.hpp"
#include "redist/buffer.hpp"

namespace dmr::smpi {
class Comm;
}  // namespace dmr::smpi

namespace dmr::redist {

/// Measured cost of one side of a redistribution.
struct Report {
  std::size_t bytes_moved = 0;  ///< bytes that crossed the old->new link
  std::size_t bytes_total = 0;  ///< global bytes of all registered buffers
  int transfers = 0;            ///< point-to-point messages (or file ops)
  double seconds = 0.0;         ///< wall time of this side of the movement
  /// Parallel transfer lanes the movement used (min(old, new) for the
  /// point-to-point strategies; 1 for the store-routed baseline).  Lets
  /// cost models normalize a measured bandwidth to per-lane terms.
  int lanes = 1;
  bool via_checkpoint = false;  ///< routed through stable storage

  /// Serial accumulation (totals across resizes): sums seconds.
  Report& operator+=(const Report& other);
  /// Merge a concurrently-measured sibling (another rank of the same
  /// resize): sums bytes/transfers but keeps the slowest wall time, so
  /// bandwidth() stays an aggregate effective rate.
  void merge_concurrent(const Report& other);
  /// Effective throughput in bytes/second (0 when nothing was timed).
  double bandwidth() const {
    return seconds > 0.0 ? static_cast<double>(bytes_moved) / seconds : 0.0;
  }
};

/// Where a strategy half runs: one side of the spawn inter-communicator.
struct Endpoint {
  const smpi::Comm* link = nullptr;  ///< inter-comm to the other side
  int rank = 0;                      ///< rank within this side's group
  int old_size = 0;
  int new_size = 0;
};

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Old-side half: offload every registered buffer into the link.
  /// Called once per old rank; implementations must be safe to run
  /// concurrently from every rank thread.
  virtual Report send(const Endpoint& endpoint, const Registry& registry) = 0;

  /// New-side half: populate every registered buffer from the link,
  /// resizing local storage to the new layout.
  virtual Report recv(const Endpoint& endpoint, Registry& registry) = 0;

  /// Subscribe `sink` to the `redist_report` fact: every measured
  /// send/recv Report (wall seconds, now = 0).  Attach before the
  /// strategy runs; subscribers are called from rank threads and must
  /// be thread-safe.
  void attach(obs::Sink& sink) { stream_.attach(sink); }

 protected:
  /// Implementations call this on every measured Report with the
  /// registry it moved (rank threads included).
  void record(const Report& report, const Registry& registry);

 private:
  obs::Stream stream_;
};

/// Factory by name: "p2p" (PipelinedChunks with an unbounded chunk and
/// window), "pipelined" (PipelinedChunks with the default options) or
/// "checkpoint" (the checkpoint route, writing under a fresh temporary
/// directory).
std::shared_ptr<Strategy> make_strategy(std::string_view name);

}  // namespace dmr::redist
