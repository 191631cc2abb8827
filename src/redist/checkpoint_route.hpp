// CheckpointRoute: the Checkpoint/Restart baseline unified behind the
// Strategy interface.  Each old rank writes one shard per registered
// buffer into a ckpt::CheckpointStore (real file I/O — this is the Fig. 1
// "through stable storage" detour), signals readiness over the link, and
// each new rank reads the shards it needs and assembles its local block.
#pragma once

#include <filesystem>
#include <memory>

#include "ckpt/checkpoint.hpp"
#include "redist/strategy.hpp"

namespace dmr::redist {

struct CheckpointRouteOptions {
  /// Shard directory; empty picks a fresh per-process temp directory
  /// that is removed when the strategy is destroyed.
  std::filesystem::path directory;
  /// Force shards to stable storage (the honest C/R cost).  Defaults off
  /// so tests and smoke benches stay fast; Fig. 1-style runs enable it.
  bool fsync = false;
};

class CheckpointRoute final : public Strategy {
 public:
  explicit CheckpointRoute(CheckpointRouteOptions options = {});
  ~CheckpointRoute() override;

  Report send(const Endpoint& endpoint, const Registry& registry) override;
  Report recv(const Endpoint& endpoint, Registry& registry) override;

  ckpt::CheckpointStore& store() { return *store_; }

 private:
  std::unique_ptr<ckpt::CheckpointStore> store_;
  std::filesystem::path owned_directory_;  // removed on destruction
};

}  // namespace dmr::redist
