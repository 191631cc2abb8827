// Tests for the chk:: correctness-analysis layer: the lifecycle DFA,
// every invariant's failure path (seeded through chk::TestBackdoor
// corruptions the production code is designed never to produce), the
// structured report, fail-fast mode, and — the property the whole layer
// exists to protect — byte-identical simulated outcomes with the
// auditor attached vs detached.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "chk/backdoor.hpp"
#include "dmr/check.hpp"
#include "dmr/observe.hpp"
#include "dmr/simulation.hpp"
#include "fact_feed.hpp"

namespace {

using namespace dmr;

/// The single violation in `report`, with the suite failing loudly when
/// the count is not exactly one.
chk::Violation only_violation(const chk::Report& report) {
  EXPECT_EQ(report.violations.size(), 1u) << report.describe();
  return report.violations.empty() ? chk::Violation{}
                                   : report.violations.front();
}

// --- lifecycle DFA -----------------------------------------------------------

TEST(Lifecycle, LegalCycleIsClean) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.submitted(7, 0.0);
  feed.started(7, 1.0);
  feed.resized(7, 2.0);
  feed.shrink_begun(7, 3.0);
  feed.shrink_ended(7, 4.0);
  feed.shrink_begun(7, 5.0);
  feed.shrink_ended(7, 6.0);
  feed.finished(7, 7.0);
  const chk::Report report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.lifecycle_edges, 8);
  // The expand and both shrinks' begin and completed end each sweep the
  // fact's manager.
  EXPECT_EQ(report.conservation_audits, 5);
}

TEST(Lifecycle, StartWithoutSubmitCarriesJobIdAndTime) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.started(42, 12.5);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "job-lifecycle");
  EXPECT_EQ(violation.job, 42);
  EXPECT_DOUBLE_EQ(violation.sim_time, 12.5);
  EXPECT_NE(violation.message.find("never submitted"), std::string::npos);
}

TEST(Lifecycle, ResubmitWhileQueuedIsIllegal) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.submitted(3, 0.0);
  feed.submitted(3, 1.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "job-lifecycle");
  EXPECT_EQ(violation.job, 3);
  EXPECT_NE(violation.message.find("resubmitted while queued"),
            std::string::npos);
}

TEST(Lifecycle, ShrinkFromQueuedNamesBothPhases) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.submitted(9, 0.0);
  feed.shrink_begun(9, 2.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "job-lifecycle");
  EXPECT_EQ(violation.job, 9);
  EXPECT_NE(violation.message.find("queued -> reconfiguring"),
            std::string::npos);
}

TEST(Lifecycle, DoubleFinishIsIllegal) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.submitted(5, 0.0);
  feed.started(5, 1.0);
  feed.finished(5, 2.0);
  feed.finished(5, 3.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "job-lifecycle");
  EXPECT_EQ(violation.job, 5);
  EXPECT_DOUBLE_EQ(violation.sim_time, 3.0);
  EXPECT_NE(violation.message.find("finished twice"), std::string::npos);
}

TEST(Lifecycle, OneBadEdgeAdoptsAndDoesNotCascade) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.started(11, 1.0);   // never submitted: one violation
  feed.resized(11, 2.0);   // now legally running
  feed.finished(11, 3.0);  // and legally finished
  EXPECT_EQ(auditor.report().violations.size(), 1u);
}

// --- event ordering ----------------------------------------------------------

TEST(EventOrder, BehindTheClockIsAViolation) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.dispatched(10.0, 0, 0.0, 1, 0.0, 2);
  feed.dispatched(5.0, 0, 0.0, 2, 10.0, 3);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "event-order");
  EXPECT_DOUBLE_EQ(violation.sim_time, 10.0);
  EXPECT_NE(violation.message.find("behind the clock"), std::string::npos);
}

TEST(EventOrder, CoexistingEventsMustDispatchInOrder) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  // Both events queued (seqs 1 and 2, watermark 3) but the later tuple
  // pops first: a heap-ordering bug the auditor must catch.
  feed.dispatched(5.0, 1, 0.0, 2, 0.0, 3);
  feed.dispatched(5.0, 0, 0.0, 1, 5.0, 3);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "event-order");
  EXPECT_NE(violation.message.find("should have preceded"),
            std::string::npos);
}

TEST(EventOrder, EventScheduledDuringCallbackMayLandAtSameInstant) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  // seq 5 >= watermark 4: the second event did not coexist with the
  // first (a mid-callback arrival), so a lower lane at the same time is
  // legal.
  feed.dispatched(5.0, 1, 0.0, 2, 0.0, 4);
  feed.dispatched(5.0, 0, 5.0, 5, 5.0, 6);
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().describe();
}

TEST(EventOrder, LaterOriginDispatchesAfterHigherSeq) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  // Both queued (watermark 9), same instant and lane.  seq 4 was taken
  // at t=0 but carries origin 3 (a coalesced span's last step start);
  // seq 7 was scheduled at t=1.  The key orders origin before seq, so
  // origin 1 goes first and the lower seq legally dispatches second.
  feed.dispatched(5.0, 1, 1.0, 7, 1.0, 9);
  feed.dispatched(5.0, 1, 3.0, 4, 5.0, 9);
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().describe();
}

TEST(EventOrder, EarlierOriginAfterLaterOneIsAViolation) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  // The mirror image: origin 3 popped before the coexisting origin 1.
  feed.dispatched(5.0, 1, 3.0, 4, 1.0, 9);
  feed.dispatched(5.0, 1, 1.0, 7, 5.0, 9);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "event-order");
  EXPECT_NE(violation.message.find("origin=1"), std::string::npos);
}

TEST(EventOrder, EarlyChainWithLaterRootLegallyGoesFirst) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  // Same (time, lane, origin), both queued (watermark 9).  Early chains
  // order by *descending* root: the one rooted at 3 precedes the one
  // rooted at 1 although its root_seq is higher.
  feed.dispatched(obs::EventKey{6.0, 1, 5.0, false, 3.0, 6, 6}, 5.0, 9);
  feed.dispatched(obs::EventKey{6.0, 1, 5.0, false, 1.0, 2, 2}, 6.0, 9);
  // Late chains follow every early one, by ascending root.
  feed.dispatched(obs::EventKey{6.0, 1, 5.0, true, 2.0, 4, 4}, 6.0, 9);
  feed.dispatched(obs::EventKey{6.0, 1, 5.0, true, 4.0, 7, 7}, 6.0, 9);
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().describe();
}

TEST(EventOrder, LateChainBeforeEarlyOneIsAViolation) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.dispatched(obs::EventKey{6.0, 1, 5.0, true, 1.0, 2, 2}, 5.0, 9);
  feed.dispatched(obs::EventKey{6.0, 1, 5.0, false, 1.0, 4, 4}, 6.0, 9);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "event-order");
  EXPECT_NE(violation.message.find("early root=1"), std::string::npos);
}

TEST(EventOrder, ScheduleSpanThroughTheRealEngineIsClean) {
  chk::Auditor auditor;
  sim::Engine engine;
  engine.attach(auditor);
  std::string order;
  // Scheduled first (lower seq), but its last 2 s link starts at t=3.
  engine.schedule_span(3.0, 2.0, [&] { order += "span"; });
  engine.schedule_at(1.0, [&] {
    engine.schedule_at(5.0, [&] { order += "plain,"; });
  });
  engine.run();
  EXPECT_EQ(order, "plain,span");
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().describe();
}

TEST(EventOrder, BackdoorTimeTravelThroughTheRealEngine) {
  chk::Auditor auditor;
  sim::Engine engine;
  engine.attach(auditor);
  int fired = 0;
  engine.schedule_at(10.0, [&] { ++fired; });
  engine.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(auditor.report().ok());
  // Bypass schedule_at's monotonicity guard: an event behind the clock.
  chk::TestBackdoor::push_raw_event(
      engine, obs::EventKey{5.0, static_cast<int>(sim::Lane::Normal), 0.0,
                            false, 0.0, 99, 99});
  engine.run();
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "event-order");
  EXPECT_DOUBLE_EQ(violation.sim_time, 10.0);
}

// --- node conservation -------------------------------------------------------

rms::RmsConfig eight_nodes() {
  rms::RmsConfig config;
  config.nodes = 8;
  return config;
}

/// An 8-node manager with two running 3-node jobs (ids returned).
struct ManagerFixture {
  rms::Manager manager;
  JobId first = kInvalidJob;
  JobId second = kInvalidJob;

  ManagerFixture() : manager(eight_nodes()) {
    rms::JobSpec spec;
    spec.requested_nodes = 3;
    spec.min_nodes = 1;
    spec.max_nodes = 8;
    spec.time_limit = 1000.0;
    spec.name = "a";
    first = manager.submit(spec, 0.0);
    spec.name = "b";
    second = manager.submit(spec, 0.0);
    manager.schedule(0.0);
  }
};

TEST(NodeConservation, CleanManagerPasses) {
  ManagerFixture fixture;
  chk::Auditor auditor;
  auditor.check_manager(fixture.manager, 1.0);
  const chk::Report report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.conservation_audits, 1);
}

TEST(NodeConservation, SkewedIdleCounterIsCaught) {
  ManagerFixture fixture;
  chk::TestBackdoor::skew_idle_counter(fixture.manager, +1);
  chk::Auditor auditor;
  auditor.check_manager(fixture.manager, 33.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "node-conservation");
  EXPECT_DOUBLE_EQ(violation.sim_time, 33.0);
  EXPECT_NE(violation.message.find("idle counter"), std::string::npos);
  chk::TestBackdoor::skew_idle_counter(fixture.manager, -1);  // restore
}

TEST(NodeConservation, ForeignOwnerInTheTableIsCaught) {
  ManagerFixture fixture;
  // Hand an idle node to a job id the manager has never heard of.  The
  // idle recount diverges from the cached counter too, so assert on the
  // unknown-owner violation specifically.
  chk::TestBackdoor::set_node_owner(fixture.manager, 7, 424242);
  chk::Auditor auditor;
  auditor.check_manager(fixture.manager, 2.0);
  const chk::Report report = auditor.report();
  ASSERT_FALSE(report.ok());
  bool unknown_owner = false;
  for (const chk::Violation& violation : report.violations) {
    if (violation.job == 424242) {
      unknown_owner = true;
      EXPECT_EQ(violation.invariant, "node-conservation");
      EXPECT_NE(violation.message.find("does not know"), std::string::npos);
    }
  }
  EXPECT_TRUE(unknown_owner) << report.describe();
}

TEST(NodeConservation, JobListOwnerTableMismatchIsCaught) {
  ManagerFixture fixture;
  // The job claims a node the owner table says is idle.
  chk::TestBackdoor::claim_node(fixture.manager, fixture.first, 7);
  chk::Auditor auditor;
  auditor.check_manager(fixture.manager, 4.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "node-conservation");
  EXPECT_EQ(violation.job, fixture.first);
  EXPECT_NE(violation.message.find("node list"), std::string::npos);
}

TEST(NodeConservation, IdleDrainingNodeIsCaught) {
  ManagerFixture fixture;
  chk::TestBackdoor::set_node_draining(fixture.manager, 6, true);
  chk::Auditor auditor;
  auditor.check_manager(fixture.manager, 5.0);
  const chk::Report report = auditor.report();
  ASSERT_FALSE(report.ok());
  // Two symptoms of the same corruption: the idle node marked draining,
  // and the draining recount diverging from the cached counter.
  bool idle_draining = false;
  for (const chk::Violation& violation : report.violations) {
    EXPECT_EQ(violation.invariant, "node-conservation");
    if (violation.message.find("marked draining") != std::string::npos) {
      idle_draining = true;
    }
  }
  EXPECT_TRUE(idle_draining) << report.describe();
}

// --- federation identity -----------------------------------------------------

fed::FederationConfig two_members() {
  fed::ClusterSpec a;
  a.name = "a";
  a.rms.nodes = 4;
  fed::ClusterSpec b;
  b.name = "b";
  b.rms.nodes = 4;
  fed::FederationConfig config;
  config.clusters = {a, b};
  config.placement = fed::Placement::RoundRobin;
  return config;
}

rms::JobSpec small_job(const std::string& name) {
  rms::JobSpec spec;
  spec.name = name;
  spec.requested_nodes = 2;
  spec.min_nodes = 1;
  spec.max_nodes = 4;
  spec.time_limit = 1000.0;
  return spec;
}

TEST(FederationIdentity, PlacementInsideTheRangeIsClean) {
  fed::Federation federation(two_members());
  chk::Auditor auditor;
  federation.attach(auditor);
  federation.submit(small_job("a"), 0.0);
  federation.submit(small_job("b"), 0.0);
  auditor.check_federation(federation, 1.0);
  const chk::Report report = auditor.report();
  EXPECT_TRUE(report.ok()) << report.describe();
  EXPECT_EQ(report.placement_checks, 2);
  EXPECT_EQ(report.federation_audits, 1);
}

TEST(FederationIdentity, RekeyedJobLeavesItsMembersRange) {
  fed::Federation federation(two_members());
  const JobId id = federation.submit(small_job("a"), 0.0);
  const int member = federation.cluster_of(id);
  // Push the job's id into the *other* member's stride range: the owner
  // still holds it, but routing now points elsewhere.
  const JobId foreign = id + fed::kClusterIdStride;
  chk::TestBackdoor::rekey_job(federation.manager(member), id, foreign);
  chk::Auditor auditor;
  auditor.check_federation(federation, 9.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "fed-id-range");
  EXPECT_EQ(violation.job, foreign);
  EXPECT_DOUBLE_EQ(violation.sim_time, 9.0);
  EXPECT_NE(violation.message.find("outside its range"), std::string::npos);
}

TEST(FederationIdentity, OutOfRangePlacementIsCaught) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.placed(5, 1, 2.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "fed-id-range");
  EXPECT_EQ(violation.job, 5);
}

// --- redistribution byte conservation ---------------------------------------

redist::Report clean_report() {
  redist::Report report;
  report.bytes_moved = 1024;
  report.bytes_total = 1024;
  report.transfers = 4;
  report.seconds = 0.5;
  report.lanes = 2;
  return report;
}

TEST(ByteConservation, CleanReportPasses) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.redist(clean_report(), 1024, 1.0);
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().describe();
}

TEST(ByteConservation, CheckpointMayMoveEveryByteTwice) {
  redist::Report report = clean_report();
  report.via_checkpoint = true;
  report.bytes_moved = 2048;  // write + read-back
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.redist(report, 1024, 1.0);
  EXPECT_TRUE(auditor.report().ok()) << auditor.report().describe();
}

TEST(ByteConservation, UnaccountedBytesAreCaught) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.redist(clean_report(), 4096, 6.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "byte-conservation");
  EXPECT_DOUBLE_EQ(violation.sim_time, 6.0);
  EXPECT_NE(violation.message.find("registered"), std::string::npos);
}

TEST(ByteConservation, MovingMoreThanTheTotalIsCaught) {
  redist::Report report = clean_report();
  report.bytes_moved = 2048;  // 2x without the checkpoint excuse
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.redist(report, 1024, 1.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "byte-conservation");
  EXPECT_NE(violation.message.find("moved"), std::string::npos);
}

TEST(ByteConservation, MovedBytesWithoutTransfersAreCaught) {
  redist::Report report = clean_report();
  report.transfers = 0;
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.redist(report, 1024, 1.0);
  const chk::Violation violation = only_violation(auditor.report());
  EXPECT_EQ(violation.invariant, "byte-conservation");
  EXPECT_NE(violation.message.find("transfers"), std::string::npos);
}

TEST(ByteConservation, NanDurationAndZeroLanesAreCaught) {
  redist::Report report = clean_report();
  report.lanes = 0;
  report.seconds = std::numeric_limits<double>::quiet_NaN();
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.redist(report, 1024, 1.0);
  const chk::Report result = auditor.report();
  EXPECT_EQ(result.violations.size(), 2u) << result.describe();
}

// --- report / fail-fast ------------------------------------------------------

TEST(Report, JsonCarriesChecksViolationsAndProvenance) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.submitted(1, 0.0);
  feed.started(2, 3.5);  // never submitted
  const std::string json = auditor.report().json();
  EXPECT_NE(json.find("\"report\":\"chk\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"lifecycle_edges\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"invariant\":\"job-lifecycle\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"job\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"git_sha\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"timestamp\""), std::string::npos) << json;
}

TEST(Report, DescribeListsEachViolation) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.started(2, 3.5);
  const std::string text = auditor.report().describe();
  EXPECT_NE(text.find("1 violation(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("job-lifecycle"), std::string::npos) << text;
  EXPECT_NE(text.find("[job 2]"), std::string::npos) << text;
}

TEST(Report, ViolationCapCountsInsteadOfDropping) {
  chk::Auditor auditor(chk::Auditor::Options{.max_violations = 2});
  test::FactFeed feed(auditor);
  for (JobId id = 1; id <= 5; ++id) feed.started(id, 0.0);
  const chk::Report report = auditor.report();
  EXPECT_EQ(report.violations.size(), 2u);
  EXPECT_EQ(report.dropped_violations, 3);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.describe().find("3 more (cap reached)"),
            std::string::npos);
}

TEST(FailFast, ThrowsAuditErrorWithTheViolation) {
  chk::Auditor auditor(chk::Auditor::Options{.fail_fast = true});
  test::FactFeed feed(auditor);
  try {
    feed.started(77, 8.5);
    FAIL() << "expected AuditError";
  } catch (const chk::AuditError& error) {
    EXPECT_EQ(error.violation.invariant, "job-lifecycle");
    EXPECT_EQ(error.violation.job, 77);
    EXPECT_DOUBLE_EQ(error.violation.sim_time, 8.5);
    EXPECT_NE(std::string(error.what()).find("job-lifecycle"),
              std::string::npos);
  }
}

TEST(Auditor, ResetClearsStateAndCounts) {
  chk::Auditor auditor;
  test::FactFeed feed(auditor);
  feed.started(1, 0.0);
  ASSERT_FALSE(auditor.ok());
  auditor.reset();
  EXPECT_TRUE(auditor.ok());
  EXPECT_EQ(auditor.report().total_checks(), 0);
  // The DFA forgot the adopted phase: resubmitting id 1 is legal again.
  feed.submitted(1, 0.0);
  EXPECT_TRUE(auditor.ok());
}

// --- the headline property: attached == detached -----------------------------

/// The same FS workload test_obs.cpp uses for its digest-safety
/// properties: 20 flexible jobs on a 16-node cluster, 5 reconfiguring
/// points each.
std::string run_fs_digest(std::uint64_t seed, const obs::Hooks& hooks,
                          chk::Report* audit_report = nullptr) {
  wl::FeitelsonParams params;
  params.jobs = 20;
  params.max_size = 16;
  params.mean_interarrival = 15.0;
  params.max_runtime = 60.0 * 5;
  params.seed = seed;
  const auto workload = wl::generate_feitelson(params);

  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.nodes = 16;
  config.hooks = hooks;
  drv::WorkloadDriver driver(engine, config);
  for (const auto& job : workload) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    plan.model = apps::fs_model(5, job.size, job.runtime / 5, 16,
                                std::size_t(1) << 20);
    plan.submit_nodes = job.size;
    plan.flexible = true;
    driver.add(std::move(plan));
  }
  driver.run();

  std::ostringstream out;
  out.precision(17);
  const fed::Federation& federation = driver.federation();
  for (int c = 0; c < federation.cluster_count(); ++c) {
    for (const rms::Job* job : federation.manager(c).jobs()) {
      out << job->id << ':' << job->submit_time << ':' << job->start_time
          << ':' << job->end_time << '\n';
    }
  }
  if (audit_report != nullptr && hooks.auditor != nullptr) {
    *audit_report = hooks.auditor->report();
  }
  return out.str();
}

TEST(AuditorAttached, OutcomeDigestsMatchDetachedAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 2017ull}) {
    const std::string detached = run_fs_digest(seed, {});
    chk::Auditor auditor;
    chk::Report report;
    const std::string attached =
        run_fs_digest(seed, {.auditor = &auditor}, &report);
    EXPECT_EQ(attached, detached) << "seed " << seed;
    EXPECT_TRUE(report.ok()) << "seed " << seed << "\n" << report.describe();
    // The audit did real work on every axis the driver exercises.
    EXPECT_GT(report.lifecycle_edges, 0) << "seed " << seed;
    EXPECT_GT(report.event_dispatches, 0) << "seed " << seed;
    EXPECT_GT(report.conservation_audits, 0) << "seed " << seed;
  }
}

}  // namespace
