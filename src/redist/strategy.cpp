#include "redist/strategy.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <stdexcept>

#include "redist/checkpoint_route.hpp"
#include "redist/pipelined.hpp"

namespace dmr::redist {

Report& Report::operator+=(const Report& other) {
  bytes_moved += other.bytes_moved;
  bytes_total += other.bytes_total;
  transfers += other.transfers;
  seconds += other.seconds;
  lanes = std::max(lanes, other.lanes);
  via_checkpoint = via_checkpoint || other.via_checkpoint;
  return *this;
}

void Report::merge_concurrent(const Report& other) {
  bytes_moved += other.bytes_moved;
  bytes_total = std::max(bytes_total, other.bytes_total);
  transfers += other.transfers;
  seconds = std::max(seconds, other.seconds);
  lanes = std::max(lanes, other.lanes);
  via_checkpoint = via_checkpoint || other.via_checkpoint;
}

void Strategy::record(const Report& report, const Registry& registry) {
  // Real strategies run in wall time; there is no simulated clock to
  // stamp, so the fact carries t=0.
  stream_.emit(obs::kRedistReport, &obs::Sink::redist_report,
               obs::RedistFact{report, registry.total_bytes(), 0.0, false, -1,
                               kInvalidJob, Action::None, 0, 0});
}

std::shared_ptr<Strategy> make_strategy(std::string_view name) {
  if (name == "p2p") {
    return std::make_shared<PipelinedChunks>(
        PipelinedOptions{SIZE_MAX, INT_MAX});
  }
  if (name == "pipelined") return std::make_shared<PipelinedChunks>();
  if (name == "checkpoint") return std::make_shared<CheckpointRoute>();
  throw std::invalid_argument("make_strategy: unknown strategy '" +
                              std::string(name) + "'");
}

}  // namespace dmr::redist
