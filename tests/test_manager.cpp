// Integration tests of the Manager: job lifecycle, the Slurm resize
// protocol (resizer job -> harvest), two-phase shrink, dependency
// handling, and the synchronous/asynchronous DMR flows.
#include <gtest/gtest.h>

#include "rms/manager.hpp"

namespace {

using namespace dmr::rms;

JobSpec spec(const std::string& name, int nodes, int min = 1, int max = 32,
             int preferred = 0, bool flexible = true) {
  JobSpec s;
  s.name = name;
  s.requested_nodes = nodes;
  s.min_nodes = min;
  s.max_nodes = max;
  s.preferred_nodes = preferred;
  s.flexible = flexible;
  s.time_limit = 1000.0;
  return s;
}

DmrRequest request(int min, int max, int preferred = 0) {
  DmrRequest r;
  r.min_procs = min;
  r.max_procs = max;
  r.preferred = preferred;
  return r;
}

RmsConfig config(int nodes) {
  RmsConfig c;
  c.nodes = nodes;
  return c;
}

TEST(Manager, SubmitScheduleRun) {
  Manager m(config(8));
  const JobId id = m.submit(spec("a", 4), 0.0);
  EXPECT_TRUE(m.job(id).pending());
  const auto started = m.schedule(0.0);
  ASSERT_EQ(started.size(), 1u);
  EXPECT_TRUE(m.job(id).running());
  EXPECT_EQ(m.job(id).allocated(), 4);
  EXPECT_EQ(m.idle_nodes(), 4);
  m.job_finished(id, 10.0);
  EXPECT_EQ(m.job(id).state, JobState::Completed);
  EXPECT_EQ(m.idle_nodes(), 8);
  EXPECT_DOUBLE_EQ(m.job(id).execution_time(), 10.0);
  EXPECT_TRUE(m.all_done());
}

TEST(Manager, FifoWhenResourcesContended) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 8), 0.0);
  const JobId b = m.submit(spec("b", 8), 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(a).running());
  EXPECT_TRUE(m.job(b).pending());
  m.job_finished(a, 5.0);  // triggers a pass: b starts
  EXPECT_TRUE(m.job(b).running());
  EXPECT_DOUBLE_EQ(m.job(b).wait_time(), 4.0);
}

TEST(Manager, CancelPendingAndRunning) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 4), 0.0);
  const JobId b = m.submit(spec("b", 4), 0.0);
  m.schedule(0.0);
  m.cancel(a, 1.0);
  EXPECT_EQ(m.job(a).state, JobState::Cancelled);
  m.cancel(b, 1.0);
  EXPECT_EQ(m.job(b).state, JobState::Cancelled);
  EXPECT_EQ(m.idle_nodes(), 8);
}

TEST(Manager, DependencyGatesEligibility) {
  Manager m(config(8));
  const JobId parent = m.submit(spec("p", 4), 0.0);
  JobSpec child_spec = spec("c", 2);
  child_spec.depends_on = parent;
  const JobId child = m.submit(child_spec, 0.0);
  m.schedule(0.0);
  EXPECT_TRUE(m.job(parent).running());
  EXPECT_TRUE(m.job(child).running());  // parent started in same pass

  // A dependent of a *pending* job must not start.
  const JobId parent2 = m.submit(spec("p2", 8), 1.0);
  JobSpec child2_spec = spec("c2", 1);
  child2_spec.depends_on = parent2;
  const JobId child2 = m.submit(child2_spec, 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(parent2).pending());
  EXPECT_TRUE(m.job(child2).pending());
}

TEST(Manager, DependentCancelledWithParent) {
  Manager m(config(8));
  const JobId parent = m.submit(spec("p", 4), 0.0);
  m.schedule(0.0);
  JobSpec dep = spec("d", 2);
  dep.depends_on = parent;
  const JobId child = m.submit(dep, 1.0);
  m.job_finished(parent, 2.0);
  EXPECT_EQ(m.job(child).state, JobState::Cancelled);
}

TEST(ResizeProtocol, SubmitHarvestGrow) {
  // The four Slurm steps of Section III, exercised piecewise.
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 4), 0.0);
  m.schedule(0.0);
  const JobId rj = m.submit_resizer(a, 2, 1.0);
  EXPECT_TRUE(m.job(rj).priority_boost);
  EXPECT_TRUE(m.job(rj).spec.internal_resizer);
  m.schedule(1.0);
  ASSERT_TRUE(m.job(rj).running());
  EXPECT_EQ(m.idle_nodes(), 2);
  const auto harvested = m.harvest_resizer(rj, 1.0);
  EXPECT_EQ(harvested.size(), 2u);
  EXPECT_EQ(m.job(rj).state, JobState::Cancelled);
  EXPECT_EQ(m.job(a).allocated(), 6);
  EXPECT_EQ(m.job(a).requested_nodes, 6);
  EXPECT_EQ(m.idle_nodes(), 2);  // nodes moved, not released
}

TEST(ResizeProtocol, ResizerInvisibleToMetrics) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 4), 0.0);
  m.schedule(0.0);
  m.submit_resizer(a, 2, 1.0);
  EXPECT_EQ(m.jobs().size(), 1u);
  EXPECT_TRUE(m.pending_snapshot(1.0).empty());
}

TEST(DmrCheck, ExpandWholeFlow) {
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 4), 0.0);
  m.schedule(0.0);
  const DmrOutcome outcome = m.dmr_check(a, request(1, 16), 1.0);
  EXPECT_EQ(outcome.action, Action::Expand);
  EXPECT_EQ(outcome.new_size, 16);
  EXPECT_EQ(outcome.added_nodes.size(), 12u);
  EXPECT_EQ(m.job(a).allocated(), 16);
  EXPECT_EQ(m.counters().expands, 1);
  EXPECT_EQ(m.job(a).expansions, 1);
}

TEST(DmrCheck, ShrinkTwoPhase) {
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 16, 1, 16, 4), 0.0);
  m.schedule(0.0);
  const JobId b = m.submit(spec("b", 8, 8, 8, 0, false), 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(b).pending());

  const DmrOutcome outcome = m.dmr_check(a, request(1, 16, 4), 2.0);
  EXPECT_EQ(outcome.action, Action::Shrink);
  EXPECT_EQ(outcome.new_size, 4);
  EXPECT_EQ(outcome.draining_nodes.size(), 12u);
  // Nodes still attached until the drain ACKs arrive.
  EXPECT_EQ(m.job(a).allocated(), 16);
  EXPECT_TRUE(m.job(b).pending());

  m.complete_shrink(a, 3.0);
  EXPECT_EQ(m.job(a).allocated(), 4);
  // The release triggers a pass: the queued job starts.
  EXPECT_TRUE(m.job(b).running());
  EXPECT_EQ(m.counters().shrinks, 1);
}

TEST(DmrCheck, ShrinkBoostsTriggeringJob) {
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 16), 0.0);
  m.schedule(0.0);
  const JobId b = m.submit(spec("b", 12, 12, 12, 0, false), 1.0);
  m.schedule(1.0);
  const DmrOutcome outcome = m.dmr_check(a, request(1, 16), 2.0);
  EXPECT_EQ(outcome.action, Action::Shrink);
  EXPECT_EQ(outcome.boosted, b);
  EXPECT_TRUE(m.job(b).priority_boost);
}

TEST(DmrCheck, AbortShrinkRestoresNodes) {
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 16), 0.0);
  m.schedule(0.0);
  m.submit(spec("b", 8, 8, 8, 0, false), 1.0);
  const DmrOutcome outcome = m.dmr_check(a, request(1, 16), 2.0);
  ASSERT_EQ(outcome.action, Action::Shrink);
  m.abort_shrink(a, 3.0);
  EXPECT_EQ(m.job(a).allocated(), 16);
  for (int node : m.job(a).nodes) {
    EXPECT_FALSE(m.cluster().node(node).draining);
  }
  EXPECT_THROW(m.complete_shrink(a, 4.0), std::logic_error);
}

TEST(DmrCheck, NoActionWhenSaturated) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 8, 1, 8, 8), 0.0);
  m.schedule(0.0);
  const DmrOutcome outcome = m.dmr_check(a, request(1, 8, 8), 1.0);
  EXPECT_EQ(outcome.action, Action::None);
  EXPECT_EQ(m.counters().no_actions, 1);
}

TEST(DmrAsync, DeferredDecisionAppliesAgainstNewState) {
  // The Fig. 6 pathology: decide expand-to-8 when 4 nodes are idle, but
  // by apply time 12 more became idle — the job still only gets 8.
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 4, 1, 16), 0.0);
  const JobId hog = m.submit(spec("hog", 12, 12, 12, 0, false), 0.0);
  m.schedule(0.0);
  EXPECT_EQ(m.idle_nodes(), 0);
  m.job_finished(hog, 5.0);
  EXPECT_EQ(m.idle_nodes(), 12);

  const PolicyDecision decision = m.dmr_decide(a, request(1, 16), 6.0);
  ASSERT_EQ(decision.action, Action::Expand);
  EXPECT_EQ(decision.new_size, 16);

  // Meanwhile another job grabs 8 of the idle nodes.
  const JobId c = m.submit(spec("c", 8, 8, 8, 0, false), 7.0);
  m.schedule(7.0);
  EXPECT_TRUE(m.job(c).running());

  // Applying the outdated decision must fail (not enough nodes for +12).
  const DmrOutcome outcome = m.dmr_apply(a, decision, 8.0);
  EXPECT_EQ(outcome.action, Action::None);
  EXPECT_TRUE(outcome.aborted);
  EXPECT_EQ(m.counters().aborted_expands, 1);
  EXPECT_EQ(m.job(a).allocated(), 4);
}

TEST(DmrAsync, StaleShrinkOvertakenIsAborted) {
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 8), 0.0);
  m.schedule(0.0);
  PolicyDecision stale;
  stale.action = Action::Shrink;
  stale.new_size = 8;  // equal to current: nothing to release
  const DmrOutcome outcome = m.dmr_apply(a, stale, 1.0);
  EXPECT_EQ(outcome.action, Action::None);
  EXPECT_TRUE(outcome.aborted);
}

TEST(Manager, ExpandAbortWhenResizerLosesRace) {
  // A boosted pending user job outranks the resizer: the expansion must
  // abort cleanly (the Section V-B1 timeout path).
  Manager m(config(16));
  const JobId a = m.submit(spec("a", 4, 1, 16), 0.0);
  m.schedule(0.0);
  // 12 idle; competitor wants 12 and is boosted above the resizer.
  const JobId rival = m.submit(spec("rival", 12, 12, 12, 0, false), 1.0);
  // Force rival ahead of the resizer by boosting it first.
  PolicyDecision decision;
  decision.action = Action::Expand;
  decision.new_size = 16;
  // Boost rival via a shrink decision boost path is indirect; instead
  // exercise dmr_apply after rival became running.
  m.schedule(1.0);
  EXPECT_TRUE(m.job(rival).running());
  const DmrOutcome outcome = m.dmr_apply(a, decision, 2.0);
  EXPECT_TRUE(outcome.aborted);
  EXPECT_EQ(m.job(a).allocated(), 4);
  // No resizer leftovers.
  EXPECT_EQ(m.idle_nodes(), 0);
  EXPECT_TRUE(m.pending_snapshot(2.0).empty());
}

TEST(Manager, CallbacksFire) {
  Manager m(config(8));
  namespace obs = dmr::obs;
  struct Counts : obs::Sink {
    Counts() : obs::Sink(obs::kStarted | obs::kFinished | obs::kAllocChanged) {}
    void started(const obs::JobFact&) override { ++starts; }
    void finished(const obs::JobFact&) override { ++ends; }
    void alloc_changed(const obs::AllocFact& f) override {
      last_alloc = f.allocated;
    }
    int starts = 0, ends = 0;
    int last_alloc = -1;
  } counts;
  m.attach(counts);
  const JobId a = m.submit(spec("a", 4), 0.0);
  m.schedule(0.0);
  EXPECT_EQ(counts.starts, 1);
  EXPECT_EQ(counts.last_alloc, 4);
  m.job_finished(a, 1.0);
  EXPECT_EQ(counts.ends, 1);
  EXPECT_EQ(counts.last_alloc, 0);
}

TEST(Manager, RejectsBadSubmissions) {
  Manager m(config(8));
  EXPECT_THROW(m.submit(spec("zero", 0), 0.0), std::invalid_argument);
  EXPECT_THROW(m.submit(spec("huge", 9), 0.0), std::invalid_argument);
  JobSpec bad = spec("bounds", 4);
  bad.min_nodes = 8;
  bad.max_nodes = 4;
  EXPECT_THROW(m.submit(bad, 0.0), std::invalid_argument);
}

TEST(Manager, GuardsStateTransitions) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 4), 0.0);
  EXPECT_THROW(m.job_finished(a, 1.0), std::logic_error);  // not running
  EXPECT_THROW(m.dmr_check(a, request(1, 8), 1.0), std::logic_error);
  EXPECT_THROW(m.job(999), std::out_of_range);
}

TEST(Manager, ScheduleIsIncremental) {
  Manager m(config(8));
  m.submit(spec("a", 4), 0.0);
  const auto first = m.schedule(0.0);
  EXPECT_EQ(first.size(), 1u);
  const auto passes = m.counters().schedule_passes;
  // No placement-relevant event since the last pass: the request is
  // short-circuited.
  EXPECT_TRUE(m.schedule(1.0).empty());
  EXPECT_TRUE(m.schedule(2.0).empty());
  EXPECT_EQ(m.counters().schedule_passes, passes);
  EXPECT_GE(m.counters().schedule_passes_saved, 2);
  EXPECT_EQ(m.counters().schedule_requests, passes + 2);
  // A submission re-arms the pass.
  m.submit(spec("b", 4), 3.0);
  EXPECT_EQ(m.schedule(3.0).size(), 1u);
  EXPECT_GT(m.counters().schedule_passes, passes);
}

TEST(Manager, SnapshotsAreCachedAndInvalidate) {
  Manager m(config(8));
  const JobId a = m.submit(spec("a", 8), 0.0);
  const JobId b = m.submit(spec("b", 4), 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(a).running());
  const auto& pending = m.pending_snapshot(2.0);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0]->id, b);
  // Same state: the cached snapshot is reused, element storage included.
  const Job* const* storage = pending.data();
  EXPECT_EQ(m.pending_snapshot(2.0).data(), storage);
  const auto& running = m.running_snapshot();
  ASSERT_EQ(running.size(), 1u);
  EXPECT_EQ(running[0]->id, a);
  m.job_finished(a, 3.0);
  EXPECT_TRUE(m.job(b).running());
  EXPECT_TRUE(m.pending_snapshot(3.0).empty());
  ASSERT_EQ(m.running_snapshot().size(), 1u);
  EXPECT_EQ(m.running_snapshot()[0]->id, b);
}

RmsConfig heterogeneous_config() {
  RmsConfig c;
  c.partitions = {Partition{"fast", 4, 1.0}, Partition{"slow", 4, 0.5}};
  return c;
}

TEST(Manager, PartitionConstrainedSubmission) {
  Manager m(heterogeneous_config());
  EXPECT_EQ(m.cluster().size(), 8);
  JobSpec pinned = spec("pinned", 3);
  pinned.partition = "slow";
  const JobId id = m.submit(pinned, 0.0);
  m.schedule(0.0);
  ASSERT_TRUE(m.job(id).running());
  for (int node : m.job(id).nodes) {
    EXPECT_EQ(m.cluster().node(node).partition, 1);
  }
  // Unknown partitions and over-partition requests are rejected.
  JobSpec unknown = spec("x", 2);
  unknown.partition = "gpu";
  EXPECT_THROW(m.submit(unknown, 1.0), std::invalid_argument);
  JobSpec oversize = spec("y", 5);
  oversize.partition = "slow";
  EXPECT_THROW(m.submit(oversize, 1.0), std::invalid_argument);
}

TEST(Manager, MoldableHeadMoldsInSamePassAsBackfill) {
  // A pass that starts a rigid backfill job must still give a moldable
  // head its molding round before settling (regression: the incremental
  // fixpoint once broke out early and left the head pending).
  Manager m(config(10));
  m.submit(spec("hog", 4, 4, 4, 0, false), 0.0);
  m.schedule(0.0);
  JobSpec moldable = spec("mold", 10, 2, 10);
  moldable.moldable = true;
  const JobId b = m.submit(moldable, 1.0);
  JobSpec short_rigid = spec("short", 4, 4, 4, 0, false);
  short_rigid.time_limit = 50.0;
  const JobId c = m.submit(short_rigid, 2.0);
  m.schedule(2.0);
  EXPECT_TRUE(m.job(c).running());  // backfilled around the blocked head
  ASSERT_TRUE(m.job(b).running());  // molded onto the remaining nodes
  EXPECT_EQ(m.job(b).allocated(), 2);
}

TEST(Manager, UpdateRespectsPartitionCapacity) {
  Manager m(heterogeneous_config());
  JobSpec pinned = spec("pinned", 2);
  pinned.partition = "slow";
  const JobId id = m.submit(pinned, 0.0);
  // The slow partition only has 4 nodes; 5 would be unstartable forever.
  EXPECT_THROW(m.update_requested_nodes(id, 5, 1.0), std::invalid_argument);
  m.update_requested_nodes(id, 4, 1.0);
  ASSERT_TRUE(m.job(id).running());
  EXPECT_EQ(m.job(id).allocated(), 4);
}

TEST(Manager, PinnedExpandCappedByPartitionIdle) {
  // Regression: the policy once saw cluster-wide idle (6 nodes) and
  // granted an expansion the 4-node partition could not hold, making
  // submit_resizer throw out of dmr_check.
  Manager m(heterogeneous_config());
  JobSpec pinned = spec("pinned", 2, 1, 32);
  pinned.partition = "fast";
  const JobId id = m.submit(pinned, 0.0);
  m.schedule(0.0);
  const DmrOutcome outcome = m.dmr_check(id, request(1, 32), 1.0);
  EXPECT_EQ(outcome.action, Action::Expand);
  EXPECT_EQ(m.job(id).allocated(), 4);  // the whole partition, no more
}

TEST(Manager, PinnedJobIgnoresForeignPartitionQueue) {
  // A job queued for the *other* partition cannot be served by this
  // job's nodes, so it must not trigger a futile shrink.
  Manager m(heterogeneous_config());
  JobSpec hog = spec("hog", 4, 4, 4, 0, false);
  hog.partition = "slow";
  m.submit(hog, 0.0);
  JobSpec pinned = spec("a", 4, 1, 4);
  pinned.partition = "fast";
  const JobId a = m.submit(pinned, 0.0);
  m.schedule(0.0);
  JobSpec waiting = spec("b", 4, 4, 4, 0, false);
  waiting.partition = "slow";
  const JobId b = m.submit(waiting, 1.0);
  m.schedule(1.0);
  EXPECT_TRUE(m.job(b).pending());
  const DmrOutcome outcome = m.dmr_check(a, request(1, 4), 2.0);
  EXPECT_EQ(outcome.action, Action::None);
  EXPECT_EQ(m.job(a).allocated(), 4);
}

TEST(Manager, ExpandInheritsPartitionConstraint) {
  Manager m(heterogeneous_config());
  JobSpec pinned = spec("pinned", 2, 1, 4);
  pinned.partition = "slow";
  const JobId id = m.submit(pinned, 0.0);
  m.schedule(0.0);
  const DmrOutcome outcome = m.dmr_check(id, request(1, 4), 1.0);
  EXPECT_EQ(outcome.action, Action::Expand);
  EXPECT_EQ(m.job(id).allocated(), 4);
  for (int node : m.job(id).nodes) {
    EXPECT_EQ(m.cluster().node(node).partition, 1);
  }
}

TEST(Manager, WaitExecCompletionArithmetic) {
  Manager m(config(4));
  const JobId a = m.submit(spec("a", 4), 10.0);
  m.schedule(12.0);
  m.job_finished(a, 30.0);
  const Job& job = m.job(a);
  EXPECT_DOUBLE_EQ(job.wait_time(), 2.0);
  EXPECT_DOUBLE_EQ(job.execution_time(), 18.0);
  EXPECT_DOUBLE_EQ(job.completion_time(), 20.0);
}

}  // namespace
