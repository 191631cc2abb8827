#include "apps/nbody.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace dmr::apps {

namespace {
void accumulate_force(const Particle& on, const Particle& from,
                      double softening, double acc[3]) {
  double d[3];
  for (int k = 0; k < 3; ++k) d[k] = from.pos[k] - on.pos[k];
  const double dist2 =
      d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + softening * softening;
  const double inv = 1.0 / std::sqrt(dist2);
  const double inv3 = inv * inv * inv;
  for (int k = 0; k < 3; ++k) acc[k] += from.mass * d[k] * inv3;
}

void step_block(std::vector<Particle>& mine,
                const std::vector<Particle>& all, std::size_t my_begin,
                const NbodyConfig& config) {
  for (std::size_t i = 0; i < mine.size(); ++i) {
    double acc[3] = {0.0, 0.0, 0.0};
    const std::size_t my_global = my_begin + i;
    for (std::size_t j = 0; j < all.size(); ++j) {
      if (j == my_global) continue;
      accumulate_force(mine[i], all[j], config.softening, acc);
    }
    for (int k = 0; k < 3; ++k) {
      mine[i].vel[k] += config.dt * acc[k];
      mine[i].pos[k] += config.dt * mine[i].vel[k];
    }
  }
}
}  // namespace

Particle nbody_initial_particle(std::size_t index,
                                const NbodyConfig& config) {
  // Hash the (seed, index) pair into a private stream so generation is
  // position-independent.
  std::uint64_t state = config.seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  util::Rng rng(util::splitmix64(state));
  Particle p;
  const double radius = 1.0 + rng.uniform();
  const double theta = rng.uniform(0.0, 2.0 * 3.14159265358979323846);
  const double z = rng.uniform(-0.25, 0.25);
  p.pos[0] = radius * std::cos(theta);
  p.pos[1] = radius * std::sin(theta);
  p.pos[2] = z;
  // Mild tangential motion, so the system evolves without flying apart.
  p.vel[0] = -0.1 * std::sin(theta);
  p.vel[1] = 0.1 * std::cos(theta);
  p.vel[2] = 0.0;
  p.mass = 0.5 + rng.uniform();
  p.weight = 1.0;
  return p;
}

NbodyDiagnostics nbody_diagnostics(const std::vector<Particle>& particles) {
  NbodyDiagnostics d;
  for (const Particle& p : particles) {
    for (int k = 0; k < 3; ++k) d.momentum[k] += p.mass * p.vel[k];
    d.kinetic += 0.5 * p.mass *
                 (p.vel[0] * p.vel[0] + p.vel[1] * p.vel[1] +
                  p.vel[2] * p.vel[2]);
    d.mass += p.mass;
  }
  return d;
}

void nbody_reference_step(std::vector<Particle>& particles,
                          const NbodyConfig& config) {
  const std::vector<Particle> snapshot = particles;
  step_block(particles, snapshot, 0, config);
}

void NbodyState::init(int rank, int nprocs) {
  const redist::BlockDistribution dist(config_.particles, nprocs);
  local_.resize(dist.count(rank));
  const std::size_t base = dist.begin(rank);
  for (std::size_t i = 0; i < local_.size(); ++i) {
    local_[i] = nbody_initial_particle(base + i, config_);
  }
}

void NbodyState::compute_step(const smpi::Comm& world, int step) {
  (void)step;
  // "At the end of the iteration, all the processes have worked with the
  // whole set of particles": allgather the snapshot, then advance the
  // local block against it.
  const std::vector<Particle> all =
      world.allgatherv(std::span<const Particle>(local_));
  const redist::BlockDistribution dist(config_.particles, world.size());
  step_block(local_, all, dist.begin(world.rank()), config_);
}

}  // namespace dmr::apps
