// fed::Federation — a multi-cluster resource manager behind one dmr::Rms.
//
// The federation owns one rms::Manager per member cluster (each with its
// own node inventory, possibly heterogeneous partitions) and routes job
// submissions between them at submit time through a pluggable
// fed::PlacementPolicy.  Everything after submission — scheduling,
// backfill, the DMR reconfiguring-point protocol, shrink draining — runs
// unchanged inside the member that owns the job: the paper's
// single-cluster machinery composes into a federation without touching
// the protocol code, because dmr::Rms was designed as exactly this seam.
//
// Identity: member c assigns job ids from the half-open range
// [c*kClusterIdStride+1, (c+1)*kClusterIdStride], so every id is
// globally unique and routes back to its owner by integer division — no
// translation table, and rms::Job records keep their ids across the
// boundary.
//
// Time: the federation is as clock-agnostic as its members.  Every
// mutation takes `now`, so all members share whatever clock the caller
// uses — one sim::Engine in the virtual-time driver, the wall clock in
// real mode.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dmr/rms.hpp"
#include "fed/placement.hpp"
#include "obs/sink.hpp"
#include "rms/manager.hpp"

namespace dmr::fed {

/// One member cluster: a name (used in metrics and trace series) plus
/// the full manager configuration (nodes or partitions, scheduler
/// policy, shrink boost, allocation policy).  `rms.first_job_id` is
/// overwritten with the member's id range.
struct ClusterSpec {
  std::string name;
  rms::RmsConfig rms;
};

struct FederationConfig {
  std::vector<ClusterSpec> clusters;
  /// Built-in placement policy used when `policy` is null.
  Placement placement = Placement::RoundRobin;
  /// Custom policy (shared so configs stay copyable); overrides
  /// `placement` when set.
  std::shared_ptr<PlacementPolicy> policy;
};

/// Job ids per member: member c owns (c*stride, (c+1)*stride].
constexpr ::dmr::JobId kClusterIdStride = 1'000'000'000;

class Federation : public ::dmr::Rms {
 public:
  explicit Federation(FederationConfig config);
  /// Pinned: subscribers and drivers hold references to the members.
  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  // --- dmr::Rms: submit routes, the rest forwards to the owner ---------------

  /// Route and submit.  Throws std::invalid_argument when no member can
  /// ever run the job (too big for every eligible pool, or a partition
  /// name no member has).
  JobId submit(JobSpec spec, double now) override;
  void cancel(JobId id, double now) override;
  void job_finished(JobId id, double now) override;
  /// Scheduling pass on every member (each no-ops unless its own
  /// placements are dirty); returns all started ids.
  std::vector<JobId> schedule(double now) override;
  Outcome dmr_check(JobId id, const Request& request, double now) override;
  Decision dmr_decide(JobId id, const Request& request, double now) override;
  Outcome dmr_apply(JobId id, const Decision& decision, double now) override;
  void complete_shrink(JobId id, double now) override;
  void abort_shrink(JobId id, double now) override;
  JobView query(JobId id) const override;

  // --- members ---------------------------------------------------------------

  int cluster_count() const { return static_cast<int>(managers_.size()); }
  const std::string& cluster_name(int cluster) const {
    return config_.clusters.at(static_cast<std::size_t>(cluster)).name;
  }
  rms::Manager& manager(int cluster) {
    return *managers_.at(static_cast<std::size_t>(cluster));
  }
  const rms::Manager& manager(int cluster) const {
    return *managers_.at(static_cast<std::size_t>(cluster));
  }
  /// Member index owning `id` (from the id range; the id need not exist).
  int cluster_of(JobId id) const;
  /// The owning member's cluster inventory.
  const rms::Cluster& cluster_for(JobId id) const;
  /// The owning member's job record.
  const rms::Job& job(JobId id) const;
  /// Sum of the members' node counts.
  int total_nodes() const { return total_nodes_; }
  /// True when no member has a pending or running user job.
  bool all_done() const;
  /// Member counters summed into one federation-wide view.
  rms::Manager::Counters counters() const;
  /// Every member's user-visible jobs, member order then submission
  /// order (built per call; iterate, don't store).
  std::vector<const rms::Job*> jobs() const;
  /// Jobs routed to each member so far (index = member index).
  const std::vector<long long>& placements() const { return placements_; }
  const PlacementPolicy& placement_policy() const { return *policy_; }

  // --- live reconfiguration (service-mode what-if hooks) ---------------------

  /// Swap the placement policy at runtime; affects submissions from now
  /// on (jobs already routed stay where they are).
  void set_placement(Placement placement);
  void set_placement_policy(std::shared_ptr<PlacementPolicy> policy);
  /// Grow `member`'s cluster by `count` idle nodes (in `partition`, the
  /// member's first partition when empty).
  void add_nodes(int member, int count, const std::string& partition = "");

  /// Slowest speed a job constrained to `partition` (empty = any) could
  /// be gated by on any member able to host it: the pinned partition's
  /// speed where named, the member's slowest partition for spanning
  /// jobs.  Drivers use it for conservative time limits when the
  /// landing cluster is not yet known.
  double conservative_speed(const std::string& partition) const;

  // --- instrumentation -------------------------------------------------------

  /// Subscribe `sink` to the `placed` fact (one per submission, the
  /// single-member fast path included) and to every member's facts.
  void attach(obs::Sink& sink);

 private:
  rms::Manager& owner(JobId id);
  const rms::Manager& owner(JobId id) const;
  /// Status snapshot of every member, specialized to `spec`'s pool.
  std::vector<ClusterStatus> statuses(const JobSpec& spec, double now) const;

  FederationConfig config_;
  std::vector<std::unique_ptr<rms::Manager>> managers_;
  std::shared_ptr<PlacementPolicy> policy_;
  std::vector<long long> placements_;
  int total_nodes_ = 0;
  obs::Stream stream_;
};

}  // namespace dmr::fed
