#include "apps/flexible_sleep.hpp"

#include <chrono>
#include <thread>

namespace dmr::apps {

void FlexibleSleepState::init(int rank, int nprocs) {
  const redist::BlockDistribution dist(config_.array_elements, nprocs);
  local_.resize(dist.count(rank));
  const std::size_t base = dist.begin(rank);
  for (std::size_t i = 0; i < local_.size(); ++i) {
    local_[i] = config_.fill_base + static_cast<double>(base + i);
  }
  steps_done_ = 0;
}

void FlexibleSleepState::compute_step(const smpi::Comm& world, int step) {
  (void)step;
  if (config_.work_seconds > 0.0) {
    const double share = config_.work_seconds / world.size();
    std::this_thread::sleep_for(std::chrono::duration<double>(share));
  }
  for (double& value : local_) value += 1.0;
  ++steps_done_;
}

}  // namespace dmr::apps
