#include "rms/manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/attr.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace dmr::rms {

namespace {

Cluster make_cluster(const RmsConfig& config) {
  if (!config.partitions.empty()) return Cluster(config.partitions);
  return Cluster(config.nodes);
}

}  // namespace

Manager::Manager(RmsConfig config, int member)
    : config_(std::move(config)),
      cluster_(make_cluster(config_)),
      next_id_(config_.first_job_id),
      member_(member) {
  config_.scheduler.weights.cluster_size = cluster_.size();
  cluster_.set_alloc_policy(config_.scheduler.alloc);
}

void Manager::rescale_time_limit(Job& job, double now, double ratio) {
  // Keep the backfill shadow estimates honest across resizes (the real
  // integration would issue an `scontrol update TimeLimit`): the
  // remaining wall time scales with old_size/new_size.
  if (job.start_time < 0.0 || ratio <= 0.0) return;
  const double elapsed = std::max(0.0, now - job.start_time);
  const double remaining = std::max(0.0, job.spec.time_limit - elapsed);
  job.spec.time_limit = elapsed + remaining * ratio;
}

Job& Manager::job_mutable(JobId id) {
  const std::size_t index = job_index(id);
  if (index == kNoJob) {
    throw std::out_of_range("Manager: unknown job " + std::to_string(id));
  }
  return jobs_[index];
}

const Job& Manager::job(JobId id) const {
  const std::size_t index = job_index(id);
  if (index == kNoJob) {
    throw std::out_of_range("Manager: unknown job " + std::to_string(id));
  }
  return jobs_[index];
}

bool Manager::eligible(const Job& job) const {
  if (!job.pending()) return false;
  if (job.spec.depends_on) {
    const Job* dep = find_job(*job.spec.depends_on);
    if (dep == nullptr || !dep->running()) return false;
  }
  return true;
}

void Manager::mark_queue_changed() {
  placements_dirty_ = true;
  ++queue_version_;
}

void Manager::remove_from(std::vector<Job*>& list, const Job* job) {
  const auto it = std::find(list.begin(), list.end(), job);
  if (it != list.end()) {
    *it = list.back();
    list.pop_back();
  }
}

JobId Manager::submit(JobSpec spec, double now) {
  int partition = kAnyPartition;
  int capacity = cluster_.size();
  if (!spec.partition.empty()) {
    partition = cluster_.partition_index(spec.partition);
    if (partition == kAnyPartition) {
      throw std::invalid_argument("Manager: unknown partition '" +
                                  spec.partition + "' for " + spec.name);
    }
    capacity = cluster_.partition(partition).nodes;
  }
  if (spec.requested_nodes <= 0 || spec.requested_nodes > capacity) {
    throw std::invalid_argument("Manager: bad node request for " + spec.name);
  }
  if (spec.min_nodes < 1 || spec.max_nodes < spec.min_nodes) {
    throw std::invalid_argument("Manager: bad malleability bounds for " +
                                spec.name);
  }
  Job job;
  job.id = next_id_++;
  job.spec = std::move(spec);
  job.partition = partition;
  job.requested_nodes = job.spec.requested_nodes;
  job.submit_time = now;
  job.state = JobState::Pending;
  const JobId id = job.id;
  DMR_DEBUG("rms") << "submit job " << id << " '" << job.spec.name << "' ("
                   << job.requested_nodes << " nodes) at t=" << now;
  Job& stored = jobs_.emplace_back(std::move(job));
  dependents_.emplace_back();  // keeps the dense index parallel to jobs_
  pending_jobs_.push_back(&stored);
  if (stored.spec.depends_on) {
    const std::size_t parent = job_index(*stored.spec.depends_on);
    // An unknown parent was dead weight in the old map too: the job can
    // never become eligible, and nothing would ever cancel through it.
    if (parent != kNoJob) dependents_[parent].push_back(id);
  }
  if (!stored.spec.internal_resizer) {
    user_jobs_.push_back(&stored);
    ++unfinished_user_jobs_;
  }
  mark_queue_changed();
  stream_.emit(obs::kSubmitted, &obs::Sink::submitted, fact(stored, now));
  return id;
}

void Manager::start_job(Job& job, double now) {
  job.nodes = cluster_.allocate(job.id, job.requested_nodes, job.partition);
  job.state = JobState::Running;
  job.start_time = now;
  job.priority_boost = false;
  remove_from(pending_jobs_, &job);
  running_jobs_.push_back(&job);
  if (!job.spec.internal_resizer) {
    user_allocated_nodes_ += job.allocated();
    ++user_running_jobs_;
  }
  ++queue_version_;
  DMR_DEBUG("rms") << "start job " << job.id << " on " << job.allocated()
                   << " nodes at t=" << now;
  stream_.emit(obs::kStarted, &obs::Sink::started, fact(job, now));
  notify_alloc(now);
}

void Manager::add_nodes(int count, const std::string& partition) {
  int index = 0;
  if (!partition.empty()) {
    index = cluster_.partition_index(partition);
    if (index == kAnyPartition) {
      throw std::invalid_argument("Manager: add_nodes to unknown partition '" +
                                  partition + "'");
    }
  }
  cluster_.add_nodes(count, index);
  // The multifactor size weight normalizes by the cluster size; keep it
  // in step so priorities stay comparable after the growth.
  config_.scheduler.weights.cluster_size = cluster_.size();
  // Idle nodes change no allocation: no alloc_changed fact.
  mark_queue_changed();
}

std::vector<JobId> Manager::schedule(double now) {
  ++counters_.schedule_requests;
  std::vector<JobId> started;
  if (!placements_dirty_) {
    ++counters_.schedule_passes_saved;
    return started;
  }
  const bool timed = stream_.wants(obs::kSchedulePass);
  const bool diagnose = stream_.wants(obs::kBlocked);
  const double wall_start = timed ? util::wall_seconds() : 0.0;
  const long long passes_before = counters_.schedule_passes;
  placements_dirty_ = false;
  const bool heterogeneous = cluster_.partition_count() > 1;
  // Iterate only while a start can enable further starts: a started job
  // with a pending dependent (resizer jobs depend on their parent
  // running) or a molded head leaving idle nodes behind.  The former
  // unconditional loop burned one full confirming pass per call.
  // The view scratch keeps its vector capacities across passes and
  // calls: schedule() runs twice per job on a replay, and a fresh
  // allocation per pending/running snapshot showed up at archive scale.
  ScheduleView& view = view_scratch_;
  for (;;) {
    ++counters_.schedule_passes;
    view.now = now;
    view.idle_nodes = cluster_.idle();
    view.pending.clear();
    for (Job* job : pending_jobs_) {
      if (eligible(*job)) view.pending.push_back(job);
    }
    sort_pending(view.pending, now, config_.scheduler.weights);
    view.pending_sorted = true;
    view.running.clear();
    view.running.reserve(running_jobs_.size());
    for (const Job* job : running_jobs_) view.running.push_back(job);
    view.node_draining.clear();
    if (cluster_.draining_count() > 0) {
      view.node_draining = cluster_.draining_flags();
    }
    if (heterogeneous) {
      view.node_partition = cluster_.node_partitions();
      view.idle_per_partition.resize(
          static_cast<std::size_t>(cluster_.partition_count()));
      for (int p = 0; p < cluster_.partition_count(); ++p) {
        view.idle_per_partition[static_cast<std::size_t>(p)] =
            cluster_.idle_in(p);
      }
      view.idle_node_ids = cluster_.idle_node_ids();
    }
    std::vector<BlockDiag> blocked;
    std::vector<Job*> to_start = schedule_pass(
        view, config_.scheduler, diagnose ? &blocked : nullptr);
    // Report before the starts: a job diagnosed here and started by a
    // later round of this same fixpoint only accrues a zero-length
    // segment at `now`.
    for (const BlockDiag& diag : blocked) {
      stream_.emit(obs::kBlocked, &obs::Sink::blocked, fact(*diag.job, now),
                   diag.cause, diag.blocker);
    }
    Job* molded = nullptr;
    if (to_start.empty()) {
      // Moldable extension: when nothing rigid fits, the *head* job (and
      // only the head — molding past a blocked head would starve it) may
      // start smaller than requested, down to its minimum.
      if (!view.pending.empty()) {
        Job* head = view.pending.front();
        const int head_idle = head->partition == kAnyPartition
                                  ? view.idle_nodes
                                  : cluster_.idle_in(head->partition);
        if (head->spec.moldable && head->spec.min_nodes <= head_idle &&
            head_idle > 0) {
          molded = head;
          const int size = std::min(molded->requested_nodes, head_idle);
          DMR_DEBUG("rms") << "molding job " << molded->id << " from "
                           << molded->requested_nodes << " to " << size
                           << " nodes";
          molded->requested_nodes = size;
          to_start.push_back(molded);
        }
      }
      if (to_start.empty()) break;
    }
    bool starts_may_cascade = false;
    for (Job* job : to_start) {
      const std::size_t dep_index = job_index(job->id);
      if (dep_index != kNoJob) {
        for (JobId child : dependents_[dep_index]) {
          if (this->job(child).pending()) {
            starts_may_cascade = true;
            break;
          }
        }
      }
      start_job(*job, now);
      started.push_back(job->id);
    }
    // A molded start can leave idle nodes a newly exposed moldable head
    // could still use.
    if (molded != nullptr) starts_may_cascade = true;
    if (!starts_may_cascade) {
      // A rigid-only round cannot enable more rigid starts, but a
      // moldable job waiting behind it still can (the pass only molds
      // when nothing rigid starts): give those a molding round before
      // declaring the fixpoint.
      if (cluster_.idle() > 0 &&
          std::any_of(pending_jobs_.begin(), pending_jobs_.end(),
                      [this](const Job* job) {
                        return job->spec.moldable && eligible(*job);
                      })) {
        continue;
      }
      // The former design re-ran a whole pass here just to confirm the
      // fixpoint.
      ++counters_.schedule_passes_saved;
      break;
    }
  }
  if (diagnose) {
    // Jobs the pass never saw: pending but ineligible because their
    // dependency is not running yet.
    for (const Job* job : pending_jobs_) {
      if (eligible(*job)) continue;
      stream_.emit(obs::kBlocked, &obs::Sink::blocked, fact(*job, now),
                   obs::BlockReason::kDependency,
                   job->spec.depends_on ? *job->spec.depends_on : 0);
    }
  }
  if (timed) {
    stream_.emit(obs::kSchedulePass, &obs::Sink::schedule_pass,
                 obs::PassFact{*this, member_, now,
                               util::wall_seconds() - wall_start,
                               counters_.schedule_passes - passes_before,
                               started.size()});
  }
  return started;
}

void Manager::finish_job(Job& job, double now, JobState final_state) {
  const bool was_pending = job.pending();
  bool released_nodes = false;
  if (job.running()) {
    // job.nodes is exactly the owned set (harvest_resizer detaches its
    // nodes before finishing the resizer), so release it directly
    // instead of re-deriving it from a whole-cluster scan.
    released_nodes = !job.nodes.empty();
    if (released_nodes) cluster_.release(job.id, job.nodes);
    if (!job.spec.internal_resizer) {
      user_allocated_nodes_ -= job.allocated();
      --user_running_jobs_;
    }
    job.nodes.clear();
    remove_from(running_jobs_, &job);
  }
  if (was_pending) remove_from(pending_jobs_, &job);
  job.state = final_state;
  job.end_time = now;
  if (!job.spec.internal_resizer) --unfinished_user_jobs_;
  stream_.emit(obs::kFinished, &obs::Sink::finished, fact(job, now));
  ++queue_version_;
  // Released nodes or a removed queue entry (a new head) can both change
  // the next placement decision; a node-less exit (resizer harvest)
  // cannot.
  if (released_nodes || was_pending) placements_dirty_ = true;
  cancel_dependents(job.id, now);
  notify_alloc(now);
}

void Manager::cancel_dependents(JobId parent, double now) {
  // Resizer jobs are only meaningful while their parent runs.
  const std::size_t index = job_index(parent);
  if (index == kNoJob || dependents_[index].empty()) return;
  const std::vector<JobId> to_cancel = std::move(dependents_[index]);
  dependents_[index].clear();
  for (JobId id : to_cancel) {
    Job& dependent = job_mutable(id);
    if (!dependent.finished()) {
      finish_job(dependent, now, JobState::Cancelled);
    }
  }
}

void Manager::cancel(JobId id, double now) {
  Job& job = job_mutable(id);
  if (job.finished()) return;
  DMR_DEBUG("rms") << "cancel job " << id << " at t=" << now;
  finish_job(job, now, JobState::Cancelled);
  schedule(now);
}

void Manager::job_finished(JobId id, double now) {
  Job& job = job_mutable(id);
  if (!job.running()) {
    throw std::logic_error("Manager: job_finished on non-running job");
  }
  DMR_DEBUG("rms") << "finish job " << id << " at t=" << now;
  finish_job(job, now, JobState::Completed);
  schedule(now);
}

void Manager::update_requested_nodes(JobId id, int nodes, double now) {
  Job& job = job_mutable(id);
  const int capacity = job.partition == kAnyPartition
                           ? cluster_.size()
                           : cluster_.partition(job.partition).nodes;
  if (nodes < 0 || nodes > capacity) {
    throw std::invalid_argument("Manager: bad node update");
  }
  job.requested_nodes = nodes;
  if (job.pending()) {
    mark_queue_changed();
    schedule(now);
  }
}

JobId Manager::submit_resizer(JobId parent, int extra_nodes, double now) {
  const Job& parent_job = job(parent);
  JobSpec spec;
  spec.name = parent_job.spec.name + ":resizer";
  spec.requested_nodes = extra_nodes;
  spec.min_nodes = extra_nodes;
  spec.max_nodes = extra_nodes;
  spec.flexible = false;
  spec.time_limit = parent_job.spec.time_limit;
  spec.depends_on = parent;
  spec.internal_resizer = true;
  // The harvested nodes join the parent's allocation, so they must come
  // from the parent's eligible pool.
  spec.partition = parent_job.spec.partition;
  const JobId id = submit(std::move(spec), now);
  // "RJ is set to the maximum priority, facilitating its execution."
  // submit() already marked the queue changed; no snapshot can have been
  // rebuilt since, so the boost needs no second invalidation.
  job_mutable(id).priority_boost = true;
  return id;
}

std::vector<int> Manager::harvest_resizer(JobId resizer, double now) {
  Job& rj = job_mutable(resizer);
  if (!rj.running()) {
    throw std::logic_error("Manager: harvesting a non-running resizer");
  }
  const JobId parent = rj.spec.depends_on.value();
  // Protocol steps 2-4: zero-size update detaches the nodes, the resizer
  // is cancelled, and the original job absorbs the allocation.
  std::vector<int> nodes = rj.nodes;
  cluster_.transfer(resizer, parent, nodes);
  rj.nodes.clear();
  rj.requested_nodes = 0;
  finish_job(rj, now, JobState::Cancelled);
  Job& parent_job = job_mutable(parent);
  parent_job.nodes.insert(parent_job.nodes.end(), nodes.begin(), nodes.end());
  parent_job.requested_nodes = parent_job.allocated();
  user_allocated_nodes_ += static_cast<int>(nodes.size());
  return nodes;
}

PolicyDecision Manager::dmr_decide(JobId id, const DmrRequest& request,
                                   double now) {
  Job& job = job_mutable(id);
  if (!job.running()) {
    throw std::logic_error("Manager: dmr_decide on non-running job");
  }
  ++counters_.checks;
  PolicyView view;
  view.job = &job;
  if (job.partition == kAnyPartition) {
    view.idle_nodes = cluster_.idle();
    view.pending = pending_snapshot(now);
  } else {
    // A pinned job can only grow within — and release nodes back into —
    // its own partition, so the policy must see that pool and only the
    // queued jobs its nodes could serve (same partition or unpinned).
    // Cluster-wide idle would let it negotiate expansions its partition
    // cannot grant.
    view.idle_nodes = cluster_.idle_in(job.partition);
    for (const Job* pending : pending_snapshot(now)) {
      if (pending->partition == kAnyPartition ||
          pending->partition == job.partition) {
        view.pending.push_back(pending);
      }
    }
  }
  if (!stream_.wants(obs::kNegotiated)) {
    return reconfiguration_policy(view, request);
  }
  const double wall_start = util::wall_seconds();
  PolicyDecision decision = reconfiguration_policy(view, request);
  stream_.emit(obs::kNegotiated, &obs::Sink::negotiated, fact(job, now),
               decision.action, util::wall_seconds() - wall_start);
  return decision;
}

DmrOutcome Manager::dmr_check(JobId id, const DmrRequest& request,
                              double now) {
  return dmr_apply(id, dmr_decide(id, request, now), now);
}

DmrOutcome Manager::dmr_apply(JobId id, const PolicyDecision& decision,
                              double now) {
  if (!stream_.wants(obs::kApplied)) return dmr_apply_impl(id, decision, now);
  const double wall_start = util::wall_seconds();
  DmrOutcome outcome = dmr_apply_impl(id, decision, now);
  stream_.emit(obs::kApplied, &obs::Sink::applied, fact(job(id), now),
               outcome.action, outcome.aborted,
               util::wall_seconds() - wall_start);
  return outcome;
}

DmrOutcome Manager::dmr_apply_impl(JobId id, const PolicyDecision& decision,
                                   double now) {
  Job& job = job_mutable(id);
  if (!job.running()) {
    throw std::logic_error("Manager: dmr_apply on non-running job");
  }

  DmrOutcome outcome;
  outcome.action = decision.action;
  outcome.new_size = decision.new_size;

  switch (decision.action) {
    case Action::None:
      ++counters_.no_actions;
      return outcome;

    case Action::Expand: {
      const int extra = decision.new_size - job.allocated();
      if (extra <= 0) {  // stale async decision already overtaken
        outcome.action = Action::None;
        outcome.aborted = true;
        ++counters_.aborted_expands;
        return outcome;
      }
      const JobId rj = submit_resizer(id, extra, now);
      schedule(now);
      if (!this->job(rj).running()) {
        // The scheduler gave the nodes to somebody else (or a race left
        // too few): abort, as the runtime would on its wait timeout.
        cancel(rj, now);
        outcome.action = Action::None;
        outcome.new_size = 0;
        outcome.aborted = true;
        ++counters_.aborted_expands;
        return outcome;
      }
      outcome.added_nodes = harvest_resizer(rj, now);
      ++job.expansions;
      ++counters_.expands;
      rescale_time_limit(job, now,
                         static_cast<double>(decision.new_size - extra) /
                             static_cast<double>(decision.new_size));
      stream_.emit(obs::kResized, &obs::Sink::resized, fact(job, now),
                   Action::Expand, decision.new_size - extra,
                   decision.new_size);
      notify_alloc(now);
      DMR_DEBUG("rms") << "job " << id << " expanded to " << job.allocated()
                       << " nodes at t=" << now;
      return outcome;
    }

    case Action::Shrink: {
      const int release_count = job.allocated() - decision.new_size;
      if (release_count <= 0) {  // stale async decision already overtaken
        outcome.action = Action::None;
        outcome.aborted = true;
        return outcome;
      }
      // Drain the tail of the allocation; data is folded onto the head
      // ranks (Listing 3's sender/receiver grouping keeps receivers on
      // the surviving nodes).
      outcome.draining_nodes.assign(
          job.nodes.end() - release_count, job.nodes.end());
      cluster_.set_draining(outcome.draining_nodes, true);
      // The imminent releases widen the EASY backfill window (the
      // drain-aware shadow): the next schedule request must run a pass.
      placements_dirty_ = true;
      rescale_time_limit(job, now,
                         static_cast<double>(job.allocated()) /
                             static_cast<double>(decision.new_size));
      outcome.boosted = decision.boost_target;
      if (decision.boost_target != kInvalidJob &&
          config_.shrink_priority_boost) {
        Job& target = job_mutable(decision.boost_target);
        if (target.pending()) {
          target.priority_boost = true;
          mark_queue_changed();
        }
      }
      ++counters_.shrinks;
      stream_.emit(obs::kShrinkBegun, &obs::Sink::shrink_begun, fact(job, now),
                   static_cast<int>(outcome.draining_nodes.size()));
      DMR_DEBUG("rms") << "job " << id << " shrinking to "
                       << decision.new_size << " nodes at t=" << now;
      return outcome;
    }
  }
  return outcome;
}

void Manager::complete_shrink(JobId id, double now) {
  Job& job = job_mutable(id);
  std::vector<int> draining;
  for (int node_id : job.nodes) {
    if (cluster_.node(node_id).draining) draining.push_back(node_id);
  }
  if (draining.empty()) {
    throw std::logic_error("Manager: complete_shrink with no draining nodes");
  }
  const int old_size = job.allocated();
  cluster_.release(id, draining);
  auto& nodes = job.nodes;
  nodes.erase(std::remove_if(nodes.begin(), nodes.end(),
                             [&](int node_id) {
                               return std::find(draining.begin(),
                                                draining.end(),
                                                node_id) != draining.end();
                             }),
              nodes.end());
  job.requested_nodes = job.allocated();
  user_allocated_nodes_ -= static_cast<int>(draining.size());
  ++job.shrinks;
  mark_queue_changed();
  stream_.emit(obs::kShrinkEnded, &obs::Sink::shrink_ended, fact(job, now),
               /*completed=*/true);
  stream_.emit(obs::kResized, &obs::Sink::resized, fact(job, now),
               Action::Shrink, old_size, job.allocated());
  notify_alloc(now);
  DMR_DEBUG("rms") << "job " << id << " shrunk to " << job.allocated()
                   << " nodes at t=" << now;
  schedule(now);
}

void Manager::abort_shrink(JobId id, double now) {
  Job& job = job_mutable(id);
  std::vector<int> draining;
  for (int node_id : job.nodes) {
    if (cluster_.node(node_id).draining) draining.push_back(node_id);
  }
  cluster_.set_draining(draining, false);
  // The releases the drain-aware shadow promised are off again.
  placements_dirty_ = true;
  // An abort with no draining nodes never had a begun shrink to end.
  if (!draining.empty()) {
    stream_.emit(obs::kShrinkEnded, &obs::Sink::shrink_ended, fact(job, now),
                 /*completed=*/false);
  }
  DMR_DEBUG("rms") << "job " << id << " shrink aborted at t=" << now;
}

::dmr::JobView Manager::query(JobId id) const {
  const Job& record = job(id);
  ::dmr::JobView view;
  view.id = record.id;
  view.name = record.spec.name;
  view.state = record.state;
  view.allocated = record.allocated();
  for (int node_id : record.nodes) {
    view.hosts.push_back(cluster_.node_name(node_id));
    if (!cluster_.node(node_id).draining) {
      view.surviving_hosts.push_back(cluster_.node_name(node_id));
    }
  }
  view.priority_boost = record.priority_boost;
  view.expansions = record.expansions;
  view.shrinks = record.shrinks;
  view.submit_time = record.submit_time;
  view.start_time = record.start_time;
  view.end_time = record.end_time;
  return view;
}

const std::vector<const Job*>& Manager::pending_unsorted() const {
  if (pending_cache_version_ != queue_version_) {
    pending_cache_.clear();
    for (const Job* job : pending_jobs_) {
      if (job->spec.internal_resizer) continue;
      if (!eligible(*job)) continue;
      pending_cache_.push_back(job);
    }
    pending_cache_version_ = queue_version_;
    pending_cache_sorted_ = false;
  }
  return pending_cache_;
}

const std::vector<const Job*>& Manager::pending_snapshot(double now) const {
  pending_unsorted();
  // Priorities are age-based, so the sort key moves with `now`; relative
  // order is stable below the age cap, but re-sorting the (small) live
  // queue is cheap and exact.
  if (!pending_cache_sorted_ || pending_cache_now_ != now) {
    sort_pending(pending_cache_, now, config_.scheduler.weights);
    pending_cache_now_ = now;
    pending_cache_sorted_ = true;
  }
  return pending_cache_;
}

const std::vector<const Job*>& Manager::running_snapshot() const {
  if (running_cache_version_ != queue_version_) {
    running_cache_.clear();
    for (const Job* job : running_jobs_) {
      if (!job->spec.internal_resizer) running_cache_.push_back(job);
    }
    // Submission order, matching the pre-cache behaviour (the index list
    // is unordered because removal swaps with the back).
    std::sort(running_cache_.begin(), running_cache_.end(),
              [](const Job* a, const Job* b) { return a->id < b->id; });
    running_cache_version_ = queue_version_;
  }
  return running_cache_;
}

void Manager::notify_alloc(double now) {
  stream_.emit(obs::kAllocChanged, &obs::Sink::alloc_changed,
               obs::AllocFact{member_, now, user_allocated_nodes_,
                              user_running_jobs_});
}

}  // namespace dmr::rms
