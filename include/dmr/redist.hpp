// dmr::redist — the data-redistribution subsystem.
//
// Applications register their resize-relevant state as typed buffers
// (dmr::Buffer: element size, global count, layout) in a per-rank
// dmr::redist::Registry; on a resize a pluggable redist::Strategy moves
// every registered buffer across the old -> new process set and reports
// the measured cost (redist::Report), which calibrates drv::CostModel.
//
// Shipped strategies: PipelinedChunks (rank-to-rank transfers of the
// plan_transfers overlap plan, in chunked bounded-in-flight streams;
// make_strategy("p2p") is the same executor with no chunking and no
// window) and CheckpointRoute (the C/R baseline through the ckpt store).
#pragma once

#include "redist/buffer.hpp"            // IWYU pragma: export
#include "redist/checkpoint_route.hpp"  // IWYU pragma: export
#include "redist/pipelined.hpp"         // IWYU pragma: export
#include "redist/strategy.hpp"          // IWYU pragma: export

namespace dmr {

/// The buffer descriptor applications fill when registering state.
using Buffer = redist::Buffer;
using redist::Layout;

}  // namespace dmr
