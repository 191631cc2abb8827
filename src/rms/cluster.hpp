// Node inventory and allocation tracking.
//
// Nodes are the allocation unit, matching the paper's setup of one MPI
// rank per node (intra-node parallelism belongs to OpenMP/OmpSs and is
// outside the resource manager's concern).
//
// A cluster is a set of *partitions*: contiguous node ranges with their
// own name and speed factor (step time on a node scales with 1/speed).
// The paper's homogeneous testbed is the single-partition special case;
// heterogeneous clusters open the mixed-hardware scenario class the paper
// could not explore.  Jobs may be constrained to one partition or span
// partitions freely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rms/job.hpp"

namespace dmr::chk {
struct TestBackdoor;
}

namespace dmr::rms {

/// Any partition (unconstrained job) in partition-indexed APIs.
constexpr int kAnyPartition = -1;

/// Node-selection policy for unconstrained (spanning) allocations on a
/// heterogeneous cluster.  Constrained jobs always take lowest-id nodes
/// within their partition; single-partition clusters are unaffected.
enum class AllocPolicy {
  /// Lowest node id first (the original order).  Simple and
  /// deterministic, but a spanning job straddles partition boundaries
  /// as soon as the first partition has any allocation, fragmenting
  /// every pool it touches.
  LowestId,
  /// Best-fit packing: the whole grant lands in the fullest partition
  /// that can still hold it; when none fits, partitions are consumed in
  /// descending idle count so the job spans as few partitions as
  /// possible and whole pools stay free for pinned jobs.
  Pack,
};

std::string to_string(AllocPolicy policy);

/// The partition order a Pack-policy spanning grant of `count` nodes
/// consumes, given per-partition idle counts: the fullest partition
/// that still holds the whole grant (best fit), or partitions in
/// descending idle count when none does (fewest partitions spanned).
/// Ties break on the lower index.  One shared implementation serves
/// Cluster::allocate and the scheduler's pass, so the pass predicts
/// exactly what the cluster grants.
std::vector<int> pack_partition_order(
    const std::vector<int>& idle_per_partition, int count);

/// One homogeneous slice of the cluster.
struct Partition {
  std::string name;
  int nodes = 0;
  /// Relative node speed: 1.0 = reference hardware; a 0.5 node takes
  /// twice as long per application step.
  double speed = 1.0;
};

struct Node {
  int id = -1;
  std::string name;
  /// Owning job, or kInvalidJob when idle.
  JobId owner = kInvalidJob;
  /// Draining: still owned, but scheduled for release after the shrink
  /// drain protocol completes (no new work may land on it).
  bool draining = false;
  /// Partition index this node belongs to.
  int partition = 0;
  /// Speed factor inherited from the partition.
  double speed = 1.0;
};

class Cluster {
 public:
  explicit Cluster(int node_count, std::string name_prefix = "vnode");
  /// Heterogeneous cluster: one node range per partition, ids assigned in
  /// declaration order.  Node names are "<partition><local-index>".
  explicit Cluster(std::vector<Partition> partitions);

  int size() const { return static_cast<int>(nodes_.size()); }
  int idle() const { return idle_count_; }
  int allocated() const { return size() - idle_count_; }

  // --- partitions ------------------------------------------------------------

  int partition_count() const { return static_cast<int>(partitions_.size()); }
  /// Node-selection policy for spanning allocations (default LowestId).
  /// The scheduler's pass mirrors whatever is set here, so change it only
  /// between passes (the manager sets it once at construction).
  void set_alloc_policy(AllocPolicy policy) { alloc_policy_ = policy; }
  AllocPolicy alloc_policy() const { return alloc_policy_; }
  const Partition& partition(int index) const {
    return partitions_.at(static_cast<std::size_t>(index));
  }
  /// Index of the named partition, or kAnyPartition when `name` is empty
  /// or unknown (callers validate when they need a hard failure).
  int partition_index(const std::string& name) const;
  int idle_in(int partition) const;
  int allocated_in(int partition) const;
  /// Slowest speed factor among `node_ids` (1.0 for an empty list): the
  /// gating speed of a synchronous-stepping job on those nodes.
  double min_speed(const std::vector<int>& node_ids) const;
  /// Partition index of every node, indexed by node id.
  const std::vector<int>& node_partitions() const { return node_partition_; }

  const Node& node(int id) const {
    return nodes_.at(static_cast<std::size_t>(id));
  }

  /// Grow a partition by `count` idle nodes (the service's "+N nodes"
  /// what-if).  New nodes get the next ids and continue the partition's
  /// local naming; existing allocations are untouched.  All node lookups
  /// go through the per-node partition index, so the appended range is
  /// legal even when it makes the partition's id range non-contiguous.
  void add_nodes(int count, int partition = 0);

  /// Allocate `count` idle nodes to `job`; returns their ids.  When
  /// `partition` is not kAnyPartition only that partition's nodes are
  /// eligible and the grant takes lowest ids first.  Spanning grants
  /// follow the alloc policy (LowestId, or Pack's best-fit partition
  /// selection); both orders are deterministic, which keeps simulations
  /// bit-reproducible.  Throws when fewer than `count` eligible nodes
  /// are idle.
  std::vector<int> allocate(JobId job, int count,
                            int partition = kAnyPartition);

  /// Release specific nodes owned by `job`.
  void release(JobId job, const std::vector<int>& node_ids);

  /// Release every node owned by `job`.
  void release_all(JobId job);

  /// Transfer nodes between jobs without an idle round-trip (the resize
  /// protocol detaches the resizer job's allocation and attaches it to
  /// the original job).
  void transfer(JobId from, JobId to, const std::vector<int>& node_ids);

  /// Mark nodes as draining (shrink in progress).
  void set_draining(const std::vector<int>& node_ids, bool draining);

  /// Number of nodes currently draining (0 lets schedule passes skip
  /// building the per-node drain snapshot).
  int draining_count() const { return draining_count_; }
  /// Draining flag per node id, for the scheduler snapshot.
  std::vector<std::uint8_t> draining_flags() const;

  std::vector<int> nodes_of(JobId job) const;
  std::string node_name(int id) const { return node(id).name; }
  /// Sorted ids of all idle nodes (the scheduler's allocation preview).
  std::vector<int> idle_node_ids() const;

 private:
  /// Test-only state corruption for the invariant checker's tests.
  friend struct ::dmr::chk::TestBackdoor;

  Node& mutable_node(int id);
  void set_idle_bit(int id) {
    idle_bits_[static_cast<std::size_t>(id) >> 6] |=
        std::uint64_t(1) << (id & 63);
  }
  void clear_idle_bit(int id) {
    idle_bits_[static_cast<std::size_t>(id) >> 6] &=
        ~(std::uint64_t(1) << (id & 63));
  }
  std::vector<Node> nodes_;
  std::vector<Partition> partitions_;
  std::vector<int> node_partition_;
  std::vector<int> idle_per_partition_;
  /// Idle-node bitmap (bit set = owner == kInvalidJob), kept in sync by
  /// allocate/release/transfer/add_nodes.  Allocation at archive scale
  /// used to scan the whole Node table (strings and all) per grant;
  /// scanning set bits lowest-first preserves the exact grant order at a
  /// word per 64 nodes.
  std::vector<std::uint64_t> idle_bits_;
  /// The single speed shared by every partition, or 0.0 when the
  /// cluster is heterogeneous (min_speed's per-node scan short-circuits
  /// on the uniform — i.e. paper-testbed — case).
  double uniform_speed_ = 0.0;
  AllocPolicy alloc_policy_ = AllocPolicy::LowestId;
  int idle_count_ = 0;
  int draining_count_ = 0;
};

}  // namespace dmr::rms
