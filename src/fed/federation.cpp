#include "fed/federation.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/clock.hpp"
#include "util/log.hpp"

namespace dmr::fed {

namespace {

std::invalid_argument unplaceable(const JobSpec& spec) {
  return std::invalid_argument(
      "Federation: no member cluster can run '" + spec.name + "' (" +
      std::to_string(spec.requested_nodes) + " nodes" +
      (spec.partition.empty() ? std::string()
                              : ", partition '" + spec.partition + "'") +
      ")");
}

}  // namespace

Federation::Federation(FederationConfig config) : config_(std::move(config)) {
  if (config_.clusters.empty()) {
    throw std::invalid_argument("Federation: no member clusters");
  }
  if (static_cast<JobId>(config_.clusters.size()) >= kClusterIdStride) {
    throw std::invalid_argument("Federation: too many member clusters");
  }
  managers_.reserve(config_.clusters.size());
  for (std::size_t c = 0; c < config_.clusters.size(); ++c) {
    ClusterSpec& spec = config_.clusters[c];
    if (spec.name.empty()) {
      throw std::invalid_argument("Federation: member cluster without a name");
    }
    for (std::size_t other = 0; other < c; ++other) {
      if (config_.clusters[other].name == spec.name) {
        throw std::invalid_argument("Federation: duplicate member name '" +
                                    spec.name + "'");
      }
    }
    spec.rms.first_job_id =
        static_cast<JobId>(c) * kClusterIdStride + 1;
    managers_.push_back(
        std::make_unique<rms::Manager>(spec.rms, static_cast<int>(c)));
    total_nodes_ += managers_.back()->cluster().size();
  }
  policy_ = config_.policy ? config_.policy
                           : std::shared_ptr<PlacementPolicy>(
                                 make_placement(config_.placement));
  placements_.assign(managers_.size(), 0);
}

int Federation::cluster_of(JobId id) const {
  const JobId cluster = (id - 1) / kClusterIdStride;
  if (id < 1 || cluster >= static_cast<JobId>(managers_.size())) {
    throw std::out_of_range("Federation: job id " + std::to_string(id) +
                            " outside every member's range");
  }
  return static_cast<int>(cluster);
}

rms::Manager& Federation::owner(JobId id) {
  return *managers_[static_cast<std::size_t>(cluster_of(id))];
}

const rms::Manager& Federation::owner(JobId id) const {
  return *managers_[static_cast<std::size_t>(cluster_of(id))];
}

const rms::Cluster& Federation::cluster_for(JobId id) const {
  return owner(id).cluster();
}

const rms::Job& Federation::job(JobId id) const { return owner(id).job(id); }

std::vector<ClusterStatus> Federation::statuses(const JobSpec& spec,
                                                double /*now*/) const {
  std::vector<ClusterStatus> all;
  all.reserve(managers_.size());
  for (int c = 0; c < cluster_count(); ++c) {
    const rms::Cluster& cluster = managers_[static_cast<std::size_t>(c)]
                                      ->cluster();
    ClusterStatus status;
    status.index = c;
    status.name = cluster_name(c);
    status.total_nodes = cluster.size();
    if (spec.partition.empty()) {
      status.capacity = cluster.size();
      status.idle_nodes = cluster.idle();
      status.max_speed = status.min_speed = cluster.partition(0).speed;
      for (int p = 1; p < cluster.partition_count(); ++p) {
        status.max_speed = std::max(status.max_speed, cluster.partition(p).speed);
        status.min_speed = std::min(status.min_speed, cluster.partition(p).speed);
      }
    } else {
      const int pinned = cluster.partition_index(spec.partition);
      if (pinned != rms::kAnyPartition) {
        status.capacity = cluster.partition(pinned).nodes;
        status.idle_nodes = cluster.idle_in(pinned);
        status.max_speed = status.min_speed = cluster.partition(pinned).speed;
      }
      // capacity stays 0 when the member lacks the partition: ineligible.
    }
    // Routing only sums the queue — the unsorted view skips the
    // priority sort a fresh `now` would force on every submission.
    for (const rms::Job* pending :
         managers_[static_cast<std::size_t>(c)]->pending_unsorted()) {
      ++status.pending_jobs;
      status.pending_nodes += pending->requested_nodes;
    }
    all.push_back(std::move(status));
  }
  return all;
}

JobId Federation::submit(JobSpec spec, double now) {
  if (spec.requested_nodes <= 0) {
    throw std::invalid_argument("Federation: bad node request for " +
                                spec.name);
  }
  const bool observed = stream_.wants(obs::kPlaced);
  int picked = 0;
  int queue_depth = 0;
  std::string rejected;
  double wall = 0.0;
  if (managers_.size() == 1) {
    // Single-member fast path: routing has exactly one answer, so skip
    // the status snapshot and the policy call (an allocation and a queue
    // walk per submission — archive replays submit hundreds of
    // thousands of times).
    const rms::Cluster& cluster = managers_.front()->cluster();
    int capacity = cluster.size();
    if (!spec.partition.empty()) {
      const int pinned = cluster.partition_index(spec.partition);
      capacity =
          pinned == rms::kAnyPartition ? 0 : cluster.partition(pinned).nodes;
    }
    if (spec.requested_nodes > capacity) throw unplaceable(spec);
    if (observed) {
      queue_depth =
          static_cast<int>(managers_.front()->pending_unsorted().size());
    }
  } else {
    const std::vector<ClusterStatus> all = statuses(spec, now);
    std::vector<int> eligible;
    for (const ClusterStatus& status : all) {
      if (spec.requested_nodes <= status.capacity) {
        eligible.push_back(status.index);
      } else if (observed) {
        // Placement provenance: the members that could not hold the job.
        if (!rejected.empty()) rejected += ",";
        rejected += status.name;
      }
    }
    if (eligible.empty()) throw unplaceable(spec);
    const double wall_start = observed ? util::wall_seconds() : 0.0;
    picked = policy_->place(spec, all, eligible);
    if (std::find(eligible.begin(), eligible.end(), picked) == eligible.end()) {
      throw std::logic_error("Federation: policy '" + policy_->name() +
                             "' picked ineligible member " +
                             std::to_string(picked));
    }
    if (observed) {
      wall = util::wall_seconds() - wall_start;
      queue_depth = all[static_cast<std::size_t>(picked)].pending_jobs;
    }
  }
  ++placements_[static_cast<std::size_t>(picked)];
  DMR_DEBUG("fed") << "route '" << spec.name << "' (" << spec.requested_nodes
                   << " nodes) -> " << cluster_name(picked) << " via "
                   << policy_->name();
  rms::Manager& member = *managers_[static_cast<std::size_t>(picked)];
  const JobId id = member.submit(std::move(spec), now);
  if (observed) {
    stream_.emit(obs::kPlaced, &obs::Sink::placed,
                 obs::PlaceFact{member.job(id), picked, cluster_name(picked),
                                policy_->name(), queue_depth, rejected, now,
                                wall});
  }
  return id;
}

void Federation::cancel(JobId id, double now) { owner(id).cancel(id, now); }

void Federation::job_finished(JobId id, double now) {
  owner(id).job_finished(id, now);
}

std::vector<JobId> Federation::schedule(double now) {
  std::vector<JobId> started;
  for (auto& manager : managers_) {
    const auto member = manager->schedule(now);
    started.insert(started.end(), member.begin(), member.end());
  }
  return started;
}

Outcome Federation::dmr_check(JobId id, const Request& request, double now) {
  return owner(id).dmr_check(id, request, now);
}

Decision Federation::dmr_decide(JobId id, const Request& request, double now) {
  return owner(id).dmr_decide(id, request, now);
}

Outcome Federation::dmr_apply(JobId id, const Decision& decision, double now) {
  return owner(id).dmr_apply(id, decision, now);
}

void Federation::complete_shrink(JobId id, double now) {
  owner(id).complete_shrink(id, now);
}

void Federation::abort_shrink(JobId id, double now) {
  owner(id).abort_shrink(id, now);
}

JobView Federation::query(JobId id) const { return owner(id).query(id); }

bool Federation::all_done() const {
  return std::all_of(managers_.begin(), managers_.end(),
                     [](const auto& manager) { return manager->all_done(); });
}

rms::Manager::Counters Federation::counters() const {
  rms::Manager::Counters total;
  for (const auto& manager : managers_) {
    const rms::Manager::Counters& c = manager->counters();
    total.expands += c.expands;
    total.shrinks += c.shrinks;
    total.no_actions += c.no_actions;
    total.aborted_expands += c.aborted_expands;
    total.checks += c.checks;
    total.schedule_requests += c.schedule_requests;
    total.schedule_passes += c.schedule_passes;
    total.schedule_passes_saved += c.schedule_passes_saved;
  }
  return total;
}

std::vector<const rms::Job*> Federation::jobs() const {
  std::vector<const rms::Job*> all;
  for (const auto& manager : managers_) {
    const auto& member = manager->jobs();
    all.insert(all.end(), member.begin(), member.end());
  }
  return all;
}

double Federation::conservative_speed(const std::string& partition) const {
  double slowest = 1.0;
  bool found = false;
  for (const auto& manager : managers_) {
    const rms::Cluster& cluster = manager->cluster();
    double speed = 1.0;
    if (!partition.empty()) {
      const int pinned = cluster.partition_index(partition);
      if (pinned == rms::kAnyPartition) continue;  // cannot host the job
      speed = cluster.partition(pinned).speed;
    } else {
      // Every partition counts, including a single slow one: a spanning
      // job can land anywhere, and underestimating the limit would let
      // backfill squat on EASY-reserved nodes.
      for (int p = 0; p < cluster.partition_count(); ++p) {
        speed = std::min(speed, cluster.partition(p).speed);
      }
    }
    slowest = found ? std::min(slowest, speed) : speed;
    found = true;
  }
  return slowest;
}

void Federation::set_placement(Placement placement) {
  config_.placement = placement;
  config_.policy.reset();
  policy_ = std::shared_ptr<PlacementPolicy>(make_placement(placement));
}

void Federation::set_placement_policy(std::shared_ptr<PlacementPolicy> policy) {
  if (!policy) {
    throw std::invalid_argument("Federation: null placement policy");
  }
  config_.policy = policy;
  policy_ = std::move(policy);
}

void Federation::add_nodes(int member, int count,
                           const std::string& partition) {
  manager(member).add_nodes(count, partition);
  total_nodes_ += count;
}

void Federation::attach(obs::Sink& sink) {
  stream_.attach(sink);
  for (auto& manager : managers_) manager->attach(sink);
}

}  // namespace dmr::fed
