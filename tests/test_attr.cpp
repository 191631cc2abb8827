// Tests for the wait-attribution layer: the conservation contract (a
// started job's cause slices tile [submit, start] exactly), outcome
// digests byte-identical with the attributor attached vs detached, the
// sidecar JSON round trip, and the dmr_explain analytics (top waits,
// critical path, regression compare) the CLI fronts.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dmr/check.hpp"
#include "dmr/observe.hpp"
#include "dmr/service.hpp"
#include "dmr/simulation.hpp"
#include "fact_feed.hpp"

namespace {

using namespace dmr;

// --- workload helpers -------------------------------------------------------

std::string outcome_digest(const drv::WorkloadDriver& driver) {
  std::ostringstream out;
  out.precision(17);
  const fed::Federation& federation = driver.federation();
  for (int c = 0; c < federation.cluster_count(); ++c) {
    for (const rms::Job* job : federation.manager(c).jobs()) {
      out << job->id << ':' << job->submit_time << ':' << job->start_time
          << ':' << job->end_time << '\n';
    }
  }
  return out.str();
}

/// A contended FS workload: more submitted nodes than the cluster has,
/// so jobs genuinely queue and every BlockReason path can fire.
std::vector<drv::JobPlan> fs_plans(std::uint64_t seed, int jobs,
                                   int max_size,
                                   double mean_interarrival = 8.0) {
  wl::FeitelsonParams params;
  params.jobs = jobs;
  params.max_size = max_size;
  params.mean_interarrival = mean_interarrival;
  params.max_runtime = 60.0 * 5;
  params.seed = seed;
  std::vector<drv::JobPlan> plans;
  for (const auto& job : wl::generate_feitelson(params)) {
    drv::JobPlan plan;
    plan.arrival = job.arrival;
    plan.model = apps::fs_model(5, job.size, job.runtime / 5, max_size,
                                std::size_t(1) << 20);
    plan.submit_nodes = job.size;
    plan.flexible = true;
    plans.push_back(std::move(plan));
  }
  return plans;
}

struct RunOutcome {
  std::string digest;
  drv::WorkloadMetrics metrics;
};

RunOutcome run_single(std::uint64_t seed, const obs::Hooks& hooks,
                      int jobs = 24) {
  sim::Engine engine;
  drv::DriverConfig config;
  config.rms.nodes = 16;
  config.hooks = hooks;
  drv::WorkloadDriver driver(engine, config);
  for (auto& plan : fs_plans(seed, jobs, 16)) driver.add(std::move(plan));
  RunOutcome outcome;
  outcome.metrics = driver.run();
  outcome.digest = outcome_digest(driver);
  return outcome;
}

RunOutcome run_federated(std::uint64_t seed, const obs::Hooks& hooks,
                         int jobs = 36) {
  sim::Engine engine;
  drv::DriverConfig config;
  for (const char* name : {"a", "b", "c"}) {
    fed::ClusterSpec member;
    member.name = name;
    member.rms.nodes = 6;
    config.federation.clusters.push_back(member);
  }
  config.federation.placement = fed::Placement::LeastLoaded;
  config.hooks = hooks;
  drv::WorkloadDriver driver(engine, config);
  // Denser arrivals than the single-cluster run: three members absorb
  // bursts, so it takes more pressure before jobs genuinely queue.
  for (auto& plan : fs_plans(seed, jobs, 6, 3.0)) driver.add(std::move(plan));
  RunOutcome outcome;
  outcome.metrics = driver.run();
  outcome.digest = outcome_digest(driver);
  return outcome;
}

/// Conservation: every started job's slices sum *exactly* to its wait,
/// nothing remains unattributed, and the aggregate per-cause seconds sum
/// to the total wait.
void expect_conservation(const obs::WaitAttributor& attr) {
  double total_wait = 0.0;
  int waited = 0;
  for (const auto& [id, job] : attr.jobs()) {
    ASSERT_GE(job.start, 0.0) << "job " << id << " never started";
    // Exact, not approximate: the final slice absorbs the rounding.
    EXPECT_DOUBLE_EQ(job.attributed_seconds(), job.wait_seconds())
        << "job " << id;
    total_wait += job.wait_seconds();
    if (job.wait_seconds() > 0.0) {
      ++waited;
      ASSERT_FALSE(job.slices.empty()) << "job " << id;
      for (const auto& slice : job.slices) {
        EXPECT_NE(slice.cause, obs::BlockReason::kUnattributed)
            << "job " << id << " kept an undiagnosed slice";
      }
    }
  }
  ASSERT_GT(waited, 0) << "workload was uncontended; test proves nothing";
  const std::vector<double> totals = attr.cause_totals();
  double attributed = 0.0;
  for (const double seconds : totals) attributed += seconds;
  EXPECT_NEAR(attributed, total_wait, 1.0e-6);
  EXPECT_NEAR(totals[static_cast<std::size_t>(
                  obs::BlockReason::kUnattributed)],
              0.0, 1.0e-9);
}

// --- conservation, seed-swept ------------------------------------------------

TEST(WaitConservation, SingleClusterSlicesTileTheWaitExactly) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2017ULL}) {
    obs::WaitAttributor attr;
    const RunOutcome outcome = run_single(seed, {.attr = &attr});
    ASSERT_GT(outcome.metrics.jobs, 0);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_conservation(attr);
  }
}

TEST(WaitConservation, FederatedSlicesTileTheWaitExactly) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2017ULL}) {
    obs::WaitAttributor attr;
    const RunOutcome outcome = run_federated(seed, {.attr = &attr});
    ASSERT_GT(outcome.metrics.jobs, 0);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_conservation(attr);
    // Federated runs also carry placement provenance on every job.
    for (const auto& [id, job] : attr.jobs()) {
      EXPECT_GE(job.member, 0) << "job " << id;
      EXPECT_NE(job.placement.find("policy="), std::string::npos)
          << "job " << id;
    }
  }
}

TEST(WaitConservation, MetricsCarryTheDecomposition) {
  obs::WaitAttributor attr;
  const RunOutcome outcome = run_single(2017, {.attr = &attr});
  ASSERT_EQ(outcome.metrics.wait_causes.size(),
            static_cast<std::size_t>(obs::kBlockReasonCount));
  const std::vector<double> totals = attr.cause_totals();
  for (int r = 0; r < obs::kBlockReasonCount; ++r) {
    const auto& cause = outcome.metrics.wait_causes[std::size_t(r)];
    EXPECT_EQ(cause.key,
              obs::block_reason_key(static_cast<obs::BlockReason>(r)));
    EXPECT_DOUBLE_EQ(cause.seconds, totals[std::size_t(r)]);
  }
}

// --- determinism: attribution attached vs detached ---------------------------

TEST(WaitAttribution, AttachedAttributorNeverPerturbsOutcomes) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL, 2017ULL}) {
    const RunOutcome detached = run_single(seed, {});
    obs::WaitAttributor attr;
    const RunOutcome attached = run_single(seed, {.attr = &attr});
    ASSERT_FALSE(detached.digest.empty());
    EXPECT_EQ(detached.digest, attached.digest) << "seed " << seed;

    const RunOutcome fed_detached = run_federated(seed, {});
    obs::WaitAttributor fed_attr;
    const RunOutcome fed_attached = run_federated(seed, {.attr = &fed_attr});
    EXPECT_EQ(fed_detached.digest, fed_attached.digest) << "seed " << seed;
  }
}

// --- the accumulator state machine -------------------------------------------

TEST(WaitAttributor, BackDatesFirstDiagnosisAndClosesOnChange) {
  obs::WaitAttributor attr;
  test::FactFeed feed(attr);
  feed.submitted(1, 0.0, "a");
  // First diagnosis back-dates to the submit: the cause held all along.
  feed.blocked(1, 5.0, obs::BlockReason::kInsufficientIdle, 2);
  // Re-diagnosis with the same cause and blocker is a no-op.
  feed.blocked(1, 6.0, obs::BlockReason::kInsufficientIdle, 2);
  // A different cause closes the segment and opens the next.
  feed.blocked(1, 8.0, obs::BlockReason::kEasyReservation, 3);
  feed.started(1, 10.0);

  const auto& job = attr.jobs().at(1);
  ASSERT_EQ(job.slices.size(), 2u);
  EXPECT_EQ(job.slices[0].cause, obs::BlockReason::kInsufficientIdle);
  EXPECT_EQ(job.slices[0].blocker, 2);
  EXPECT_DOUBLE_EQ(job.slices[0].seconds, 8.0);
  EXPECT_EQ(job.slices[1].cause, obs::BlockReason::kEasyReservation);
  EXPECT_EQ(job.slices[1].blocker, 3);
  EXPECT_DOUBLE_EQ(job.slices[1].seconds, 2.0);
  EXPECT_DOUBLE_EQ(job.attributed_seconds(), job.wait_seconds());

  // Post-start reports are ignored (the wait is over).
  feed.blocked(1, 12.0, obs::BlockReason::kDependency, 9);
  EXPECT_EQ(attr.jobs().at(1).slices.size(), 2u);
}

TEST(WaitAttributor, RankedCausesAggregateAcrossSlices) {
  obs::WaitAttributor attr;
  test::FactFeed feed(attr);
  feed.submitted(1, 0.0, "a");
  feed.blocked(1, 1.0, obs::BlockReason::kInsufficientIdle, 2);
  feed.blocked(1, 3.0, obs::BlockReason::kEasyReservation, 3);
  feed.blocked(1, 4.0, obs::BlockReason::kInsufficientIdle, 2);
  feed.started(1, 10.0);
  const auto ranked = obs::ranked_causes(attr.jobs().at(1));
  ASSERT_EQ(ranked.size(), 2u);
  // insufficient-idle accumulated [0,3) + [4,10) = 9 s, easy 1 s.
  EXPECT_EQ(ranked[0].cause, obs::BlockReason::kInsufficientIdle);
  EXPECT_DOUBLE_EQ(ranked[0].seconds, 9.0);
  EXPECT_EQ(ranked[1].cause, obs::BlockReason::kEasyReservation);
  EXPECT_DOUBLE_EQ(ranked[1].seconds, 1.0);
}

TEST(WaitAttributor, CancelledPendingJobClosesAtCancellation) {
  obs::WaitAttributor attr;
  test::FactFeed feed(attr);
  feed.submitted(1, 0.0, "a");
  feed.blocked(1, 2.0, obs::BlockReason::kPartitionPinned, 0);
  feed.finished(1, 7.0);  // cancelled while pending
  const auto& job = attr.jobs().at(1);
  EXPECT_LT(job.start, 0.0);
  ASSERT_EQ(job.slices.size(), 1u);
  EXPECT_DOUBLE_EQ(job.slices[0].seconds, 7.0);
  EXPECT_DOUBLE_EQ(job.end, 7.0);
}

TEST(WaitAttributor, LiveCauseTotalsCountOpenSegments) {
  obs::WaitAttributor attr;
  test::FactFeed feed(attr);
  feed.submitted(1, 0.0, "a");
  feed.blocked(1, 1.0, obs::BlockReason::kDrainingWait, 5);
  const auto live = attr.cause_totals(6.0);
  EXPECT_DOUBLE_EQ(
      live[static_cast<std::size_t>(obs::BlockReason::kDrainingWait)], 6.0);
  // Closed-only view sees nothing until the job starts.
  const auto closed = attr.cause_totals();
  EXPECT_DOUBLE_EQ(
      closed[static_cast<std::size_t>(obs::BlockReason::kDrainingWait)], 0.0);
}

TEST(WaitAttributor, IgnoresInternalResizersTheAuditorStillTracks) {
  obs::WaitAttributor attr;
  chk::Auditor auditor;
  test::FactFeed feed(auditor, attr);
  feed.job(9).spec.internal_resizer = true;
  feed.submitted(9, 0.0, "resizer");
  feed.submitted(1, 0.0, "user");
  feed.blocked(9, 1.0, obs::BlockReason::kDependency, 1);
  feed.blocked(1, 1.0, obs::BlockReason::kInsufficientIdle, 0);
  feed.started(1, 2.0);
  feed.started(9, 2.0);
  feed.finished(9, 3.0);
  // A resizer's wait is part of its parent's reconfiguration: only the
  // user job is attributed.
  ASSERT_EQ(attr.jobs().size(), 1u);
  EXPECT_EQ(attr.jobs().begin()->first, 1);
  const auto totals = attr.cause_totals(4.0);
  EXPECT_DOUBLE_EQ(
      totals[static_cast<std::size_t>(obs::BlockReason::kDependency)], 0.0);
  EXPECT_DOUBLE_EQ(
      totals[static_cast<std::size_t>(obs::BlockReason::kInsufficientIdle)],
      2.0);

  // The auditor's lifecycle DFA covers the resizer all the same: its
  // three edges are clean, and an illegal fourth is a violation.
  const chk::Report clean = auditor.report();
  EXPECT_TRUE(clean.ok()) << clean.describe();
  EXPECT_EQ(clean.lifecycle_edges, 5);
  feed.started(9, 5.0);
  const chk::Report report = auditor.report();
  ASSERT_EQ(report.violations.size(), 1u) << report.describe();
  EXPECT_EQ(report.violations[0].invariant, "job-lifecycle");
  EXPECT_EQ(report.violations[0].job, 9);
  EXPECT_DOUBLE_EQ(report.violations[0].sim_time, 5.0);
}

// --- sidecar round trip ------------------------------------------------------

TEST(AttributionSidecar, JsonRoundTripsBitExactly) {
  obs::WaitAttributor attr;
  const RunOutcome outcome = run_federated(42, {.attr = &attr});
  ASSERT_GT(outcome.metrics.jobs, 0);

  std::string error;
  const obs::AttributionProfile parsed =
      obs::parse_attribution(attr.to_json(), error);
  ASSERT_TRUE(error.empty()) << error;
  const obs::AttributionProfile direct = obs::snapshot_attribution(attr);

  ASSERT_EQ(parsed.jobs.size(), direct.jobs.size());
  EXPECT_DOUBLE_EQ(parsed.makespan, direct.makespan);
  for (std::size_t j = 0; j < parsed.jobs.size(); ++j) {
    const obs::JobAttribution& a = parsed.jobs[j];
    const obs::JobAttribution& b = direct.jobs[j];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.member, b.member);
    EXPECT_EQ(a.placement, b.placement);
    // %.17g emission: doubles survive the round trip bit-exactly.
    EXPECT_EQ(a.submit, b.submit);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    ASSERT_EQ(a.slices.size(), b.slices.size());
    for (std::size_t s = 0; s < a.slices.size(); ++s) {
      EXPECT_EQ(a.slices[s].cause, b.slices[s].cause);
      EXPECT_EQ(a.slices[s].blocker, b.slices[s].blocker);
      EXPECT_EQ(a.slices[s].seconds, b.slices[s].seconds);
    }
  }
  for (int r = 0; r < obs::kBlockReasonCount; ++r) {
    EXPECT_NEAR(parsed.cause_totals[std::size_t(r)],
                direct.cause_totals[std::size_t(r)], 1.0e-9);
  }
}

TEST(AttributionSidecar, EmissionIsDeterministicAndSortedKey) {
  obs::WaitAttributor attr;
  run_single(7, {.attr = &attr});
  const std::string once = attr.to_json();
  EXPECT_EQ(once, attr.to_json());
  // Top-level keys appear in sorted order.
  const std::size_t causes = once.find("\"causes\"");
  const std::size_t flag = once.find("\"dmr_attr\"");
  const std::size_t jobs = once.find("\"jobs\"");
  const std::size_t makespan = once.find("\"makespan\"");
  ASSERT_NE(causes, std::string::npos);
  EXPECT_LT(causes, flag);
  EXPECT_LT(flag, jobs);
  EXPECT_LT(jobs, makespan);
}

TEST(AttributionSidecar, RejectsForeignDocuments) {
  std::string error;
  obs::parse_attribution("{\"traceEvents\":[]}", error);
  EXPECT_NE(error.find("dmr_attr"), std::string::npos);
  obs::parse_attribution("not json", error);
  EXPECT_NE(error.find("parse error"), std::string::npos);
  obs::load_attribution_file("/nonexistent/attr.json", error);
  EXPECT_NE(error.find("cannot read"), std::string::npos);
}

// --- analytics ---------------------------------------------------------------

TEST(AttributionAnalytics, TopWaitsRanksLongestFirst) {
  obs::WaitAttributor attr;
  run_single(2017, {.attr = &attr});
  const obs::AttributionProfile profile = obs::snapshot_attribution(attr);
  const auto top = obs::top_waits(profile, 5);
  ASSERT_FALSE(top.empty());
  EXPECT_LE(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1]->wait_seconds(), top[i]->wait_seconds());
  }
  // The front really is the maximum over all jobs.
  for (const obs::JobAttribution& job : profile.jobs) {
    EXPECT_LE(job.wait_seconds(), top.front()->wait_seconds());
  }
}

TEST(AttributionAnalytics, CriticalPathEndsAtTheMakespanJob) {
  obs::WaitAttributor attr;
  run_single(2017, {.attr = &attr});
  const obs::AttributionProfile profile = obs::snapshot_attribution(attr);
  const obs::CriticalPath path = obs::critical_path(profile);
  ASSERT_FALSE(path.chain.empty());
  EXPECT_EQ(path.edges.size(), path.chain.size() - 1);
  // The chain's tail is the job whose end time *is* the makespan.
  const obs::JobAttribution* tail = profile.find(path.chain.back());
  ASSERT_NE(tail, nullptr);
  EXPECT_DOUBLE_EQ(tail->end, profile.makespan);
  EXPECT_DOUBLE_EQ(path.makespan, profile.makespan);
  // Edges link consecutive chain entries with real waits.
  for (std::size_t e = 0; e < path.edges.size(); ++e) {
    EXPECT_EQ(path.edges[e].blocker, path.chain[e]);
    EXPECT_EQ(path.edges[e].job, path.chain[e + 1]);
    EXPECT_GT(path.edges[e].wait_seconds, 0.0);
    EXPECT_NE(path.edges[e].cause, obs::BlockReason::kUnattributed);
  }
  // The root waited on nothing the walk could chase further.
  const obs::JobAttribution* root = profile.find(path.chain.front());
  ASSERT_NE(root, nullptr);
  EXPECT_DOUBLE_EQ(path.root_submit, root->submit);
}

TEST(AttributionAnalytics, CompareFindsTheRegression) {
  // The identical workload on half the nodes: queueing can only get
  // worse, so B must regress against A.
  obs::WaitAttributor attr_a;
  obs::WaitAttributor attr_b;
  {
    sim::Engine engine;
    drv::DriverConfig config;
    config.rms.nodes = 16;
    config.hooks.attr = &attr_a;
    drv::WorkloadDriver driver(engine, config);
    for (auto& plan : fs_plans(2017, 24, 8)) driver.add(std::move(plan));
    driver.run();
  }
  {
    sim::Engine engine;
    drv::DriverConfig config;
    config.rms.nodes = 8;
    config.hooks.attr = &attr_b;
    drv::WorkloadDriver driver(engine, config);
    for (auto& plan : fs_plans(2017, 24, 8)) driver.add(std::move(plan));
    driver.run();
  }
  const obs::AttributionDelta delta = obs::compare_profiles(
      obs::snapshot_attribution(attr_a), obs::snapshot_attribution(attr_b));
  EXPECT_EQ(delta.jobs_a, 24);
  EXPECT_EQ(delta.jobs_b, 24);
  EXPECT_GT(delta.total_wait_b, delta.total_wait_a);
  ASSERT_FALSE(delta.moved_jobs.empty());
  // Worst regression first.
  for (std::size_t i = 1; i < delta.moved_jobs.size(); ++i) {
    const auto& prev = delta.moved_jobs[i - 1];
    const auto& cur = delta.moved_jobs[i];
    EXPECT_GE(prev.wait_b - prev.wait_a, cur.wait_b - cur.wait_a);
  }
}

// --- naming ------------------------------------------------------------------

TEST(BlockReason, NamesRoundTripAndKeysAreColumnSafe) {
  for (int r = 0; r < obs::kBlockReasonCount; ++r) {
    const auto reason = static_cast<obs::BlockReason>(r);
    EXPECT_EQ(obs::block_reason_from(obs::to_string(reason)), reason);
    const std::string key = obs::block_reason_key(reason);
    EXPECT_EQ(key.find('-'), std::string::npos) << key;
  }
  EXPECT_EQ(obs::block_reason_from("no-such-cause"),
            obs::BlockReason::kUnattributed);
}

// --- service samples ---------------------------------------------------------

TEST(ServiceAttribution, SamplesCarryWaitCauseColumns) {
  svc::ServiceConfig config;
  config.driver.rms.nodes = 4;
  config.sample_period = 30.0;
  config.window = 300.0;
  svc::Service service(config);
  ASSERT_NE(service.attribution(), nullptr);
  for (int i = 0; i < 8; ++i) {
    svc::JobRequest request;
    request.tag = i;
    request.arrival = 5.0 * i;
    request.nodes = 2;
    request.min_nodes = 1;
    request.max_nodes = 4;
    request.runtime = 240.0;
    request.steps = 5;
    request.flexible = true;
    ASSERT_TRUE(service.submit(request));
  }
  ASSERT_TRUE(service.drain(1.0e6));
  ASSERT_FALSE(service.sample_records().empty());
  const svc::MetricsSample& last = service.sample_records().back();
  ASSERT_EQ(last.cause_seconds.size(),
            static_cast<std::size_t>(obs::kBlockReasonCount));
  EXPECT_NE(service.sample_lines().back().find("\"wait_cause_"),
            std::string::npos);
  // The run was contended (8x2 nodes demanded of 4): some cause accrued.
  double total = 0.0;
  for (const double seconds : last.cause_seconds) total += seconds;
  EXPECT_GT(total, 0.0);
  // Detached service reports no columns.
  svc::ServiceConfig off = config;
  off.attribute_waits = false;
  svc::Service plain(off);
  EXPECT_EQ(plain.attribution(), nullptr);
}

}  // namespace
