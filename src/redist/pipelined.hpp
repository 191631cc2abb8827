// PipelinedChunks: chunked, bounded-in-flight transfers over the spawn
// link, in the style of mscclpp's proxy channels — large transfers are
// sliced into fixed-size chunks and streamed with a bounded window of
// outstanding operations, overlapping the copy-in of one chunk with the
// flight of the next instead of materializing whole-buffer messages.
//
// Both sides derive the chunks from the same plan_transfers plan, so
// every element of every Block / BlockCyclic buffer crosses the link
// exactly once.  With an unbounded chunk and window (make_strategy("p2p"))
// each transfer of the plan is exactly one message.
#pragma once

#include "redist/strategy.hpp"

namespace dmr::redist {

struct PipelinedOptions {
  /// Slice size; transfers smaller than this go out as one chunk.
  std::size_t chunk_bytes = std::size_t(64) << 10;
  /// Maximum outstanding nonblocking operations per rank.
  int max_in_flight = 4;
};

class PipelinedChunks final : public Strategy {
 public:
  explicit PipelinedChunks(PipelinedOptions options = {});

  Report send(const Endpoint& endpoint, const Registry& registry) override;
  Report recv(const Endpoint& endpoint, Registry& registry) override;

  const PipelinedOptions& options() const { return options_; }

 private:
  PipelinedOptions options_;
};

}  // namespace dmr::redist
