// End-to-end workload-driver tests: the cost model, small fixed vs
// flexible workloads (the headline "flexible wins" property), async mode,
// heterogeneous mixes and determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "apps/models.hpp"
#include "drv/workload_driver.hpp"
#include "engine_digests.hpp"
#include "obs/sink.hpp"
#include "redist/buffer.hpp"
#include "wl/feitelson.hpp"

namespace {

using namespace dmr;
using drv::CostModel;
using drv::DriverConfig;
using drv::JobPlan;
using drv::WorkloadDriver;
using drv::WorkloadMetrics;

TEST(Metrics, GainPercent) {
  EXPECT_DOUBLE_EQ(drv::gain_percent(100.0, 60.0), 40.0);
  EXPECT_DOUBLE_EQ(drv::gain_percent(100.0, 120.0), -20.0);
  EXPECT_DOUBLE_EQ(drv::gain_percent(0.0, 50.0), 0.0);  // guarded
}

TEST(Metrics, DescribeContainsKeyNumbers) {
  drv::WorkloadMetrics metrics;
  metrics.jobs = 7;
  metrics.makespan = 123.0;
  metrics.expands = 3;
  metrics.shrinks = 4;
  metrics.bytes_redistributed = std::size_t(6) << 20;
  metrics.redistribution_seconds = 1.5;
  const std::string text = drv::describe(metrics);
  EXPECT_NE(text.find("jobs=7"), std::string::npos);
  EXPECT_NE(text.find("123"), std::string::npos);
  EXPECT_NE(text.find("expands=3"), std::string::npos);
  EXPECT_NE(text.find("redistributed=6MB"), std::string::npos);
}

TEST(CostModel, DegenerateSingleRank) {
  EXPECT_DOUBLE_EQ(CostModel::migrated_fraction(1, 1), 0.0);
  CostModel cost;
  // No data: only the spawn/protocol terms remain.
  EXPECT_NEAR(cost.reconfigure_seconds(0, 4, 8),
              cost.spawn_latency + cost.per_proc_spawn * 8, 1e-12);
}

TEST(CostModel, MigratedFractionShape) {
  EXPECT_DOUBLE_EQ(CostModel::migrated_fraction(4, 4), 0.0);
  EXPECT_NEAR(CostModel::migrated_fraction(2, 4), 0.75, 1e-6);
  EXPECT_GT(CostModel::migrated_fraction(8, 32),
            CostModel::migrated_fraction(8, 16) - 1e-9);
}

TEST(CostModel, MigratedFractionMatchesBlockPlan) {
  // Reference: the elements of a Block plan_transfers plan that change
  // rank index (new rank r sits on old rank r's node).
  constexpr std::size_t kNominal = std::size_t(1) << 20;
  const redist::Buffer block{"block", 1, kNominal, redist::Layout::Block, 1};
  for (int from = 1; from <= 64; ++from) {
    for (int to = 1; to <= 64; ++to) {
      std::size_t moved = 0;
      for (const auto& t : redist::plan_transfers(block, from, to)) {
        if (t.src_rank != t.dst_rank) moved += t.count;
      }
      EXPECT_DOUBLE_EQ(CostModel::migrated_fraction(from, to) *
                           static_cast<double>(kNominal),
                       static_cast<double>(moved))
          << from << "->" << to;
    }
  }
}

TEST(CostModel, CrMuchSlowerThanDmr) {
  CostModel dmr_cost;
  CostModel cr_cost;
  cr_cost.use_checkpoint_restart = true;
  const std::size_t gigabyte = std::size_t(1) << 30;
  const double dmr_s = dmr_cost.reconfigure_seconds(gigabyte, 48, 24);
  const double cr_s = cr_cost.reconfigure_seconds(gigabyte, 48, 24);
  EXPECT_GT(cr_s / dmr_s, 10.0);  // the Fig. 1 gap
}

TEST(CostModel, NodeSpeedScalesNetworkTransferOnly) {
  CostModel cost;
  const std::size_t bytes = std::size_t(1) << 30;
  const double reference = cost.movement(bytes, 8, 16).seconds;
  // Half-speed nodes drive the network at half rate: twice the seconds.
  EXPECT_NEAR(cost.movement(bytes, 8, 16, 0.5).seconds, 2.0 * reference,
              1e-9);
  // Speed 1.0 (and the non-positive fallback) reproduce the reference.
  EXPECT_DOUBLE_EQ(cost.movement(bytes, 8, 16, 1.0).seconds, reference);
  EXPECT_DOUBLE_EQ(cost.movement(bytes, 8, 16, 0.0).seconds, reference);
  // The checkpoint route prices the shared filesystem, not the nodes.
  CostModel cr;
  cr.use_checkpoint_restart = true;
  EXPECT_DOUBLE_EQ(cr.movement(bytes, 8, 16, 0.5).seconds,
                   cr.movement(bytes, 8, 16).seconds);
  // Calibration from an observed report composes with the speed factor.
  CostModel calibrated;
  redist::Report observed;
  observed.bytes_moved = std::size_t(1) << 28;
  observed.bytes_total = observed.bytes_moved;
  observed.transfers = 16;
  observed.lanes = 8;
  observed.seconds = 0.5;
  calibrated.observe(observed);
  const double cal = calibrated.movement(bytes, 8, 16).seconds;
  EXPECT_NEAR(calibrated.movement(bytes, 8, 16, 0.5).seconds, 2.0 * cal,
              1e-9);
}

TEST(CostModel, MoreLanesFasterRedistribution) {
  // Same shrink ratio, 8x the lanes: the data-movement term must shrink
  // even though the migrated fraction is slightly larger.
  CostModel cost;
  const std::size_t bytes = std::size_t(1) << 30;
  EXPECT_LT(cost.reconfigure_seconds(bytes, 16, 8),
            cost.reconfigure_seconds(bytes, 2, 1));
}

JobPlan fs_plan(double arrival, int size, double runtime, int steps,
                bool flexible, int max_size = 20) {
  JobPlan plan;
  plan.arrival = arrival;
  plan.model = apps::fs_model(steps, size, runtime / steps, max_size,
                              std::size_t(1) << 20);
  plan.submit_nodes = size;
  plan.flexible = flexible;
  return plan;
}

DriverConfig small_config(int nodes) {
  DriverConfig config;
  config.rms.nodes = nodes;
  return config;
}

TEST(Driver, SingleJobRunsToCompletion) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.add(fs_plan(0.0, 4, 40.0, 2, /*flexible=*/false));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 1);
  // 2 steps x 20 s at the submitted size.
  EXPECT_NEAR(metrics.makespan, 40.0, 1e-9);
  EXPECT_NEAR(metrics.execution.mean, 40.0, 1e-9);
  EXPECT_NEAR(metrics.wait.mean, 0.0, 1e-9);
}

TEST(Driver, FlexibleLoneJobExpandsAndFinishesFaster) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.add(fs_plan(0.0, 2, 100.0, 10, /*flexible=*/true, 8));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 1);
  EXPECT_GE(metrics.expands, 1);
  // Perfect scaling: expanding 2 -> 8 cuts step time 4x; even with the
  // reconfiguration overhead the makespan must beat the fixed 100 s.
  EXPECT_LT(metrics.makespan, 70.0);
  // Every resize records its modeled redist::Report into the metrics.
  EXPECT_GT(metrics.bytes_redistributed, 0u);
  EXPECT_GT(metrics.redistribution_seconds, 0.0);
}

TEST(Driver, RigidWorkloadMovesNoBytes) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.add(fs_plan(0.0, 4, 40.0, 2, /*flexible=*/false));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.bytes_redistributed, 0u);
  EXPECT_DOUBLE_EQ(metrics.redistribution_seconds, 0.0);
}

TEST(Driver, QueuedJobTriggersShrinkOfRunningJob) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  // Flexible hog takes all 8 nodes; a rigid 4-node job arrives later.
  driver.add(fs_plan(0.0, 8, 200.0, 20, /*flexible=*/true, 8));
  driver.add(fs_plan(10.0, 4, 40.0, 2, /*flexible=*/false));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 2);
  EXPECT_GE(metrics.shrinks, 1);
  // The rigid job must not wait for the hog's full 200 s runtime.
  EXPECT_LT(metrics.wait.max, 100.0);
}

WorkloadMetrics run_fs_workload(int jobs, bool flexible, bool asynchronous,
                                std::uint64_t seed, double sched_period = -1.0,
                                int steps = 2) {
  wl::FeitelsonParams params;
  params.jobs = jobs;
  params.max_size = 20;
  params.mean_interarrival = 10.0;
  params.max_runtime = 60.0 * steps;
  params.seed = seed;
  const auto workload = wl::generate_feitelson(params);

  sim::Engine engine;
  DriverConfig config;
  config.rms.nodes = 20;
  config.asynchronous = asynchronous;
  config.sched_period_override = sched_period;
  WorkloadDriver driver(engine, config);
  for (const auto& job : workload) {
    driver.add(fs_plan(job.arrival, job.size, job.runtime, steps, flexible));
  }
  return driver.run();
}

TEST(Driver, FlexibleWorkloadBeatsFixed) {
  // The Fig. 3 property at miniature scale: same workload, flexible
  // configuration completes sooner and with shorter waits.
  const auto fixed = run_fs_workload(15, false, false, 42);
  const auto flexible = run_fs_workload(15, true, false, 42);
  EXPECT_EQ(fixed.jobs, 15);
  EXPECT_EQ(flexible.jobs, 15);
  EXPECT_GT(flexible.expands + flexible.shrinks, 0);
  EXPECT_LT(flexible.makespan, fixed.makespan);
  // With only 15 jobs on 20 nodes the fixed run barely queues, so allow
  // a small absolute wait regression; at workload scale (Fig. 11) the
  // flexible wait is dramatically lower.
  EXPECT_LE(flexible.wait.mean, fixed.wait.mean + 5.0);
}

TEST(Driver, DeterministicAcrossRuns) {
  const auto a = run_fs_workload(12, true, false, 7);
  const auto b = run_fs_workload(12, true, false, 7);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.wait.mean, b.wait.mean);
  EXPECT_EQ(a.expands, b.expands);
  EXPECT_EQ(a.shrinks, b.shrinks);
}

TEST(Driver, AsyncModeRunsAndResizes) {
  const auto metrics = run_fs_workload(12, true, true, 21);
  EXPECT_EQ(metrics.jobs, 12);
  EXPECT_GT(metrics.checks, 0);
}

TEST(Driver, InhibitorReducesChecks) {
  const auto eager = run_fs_workload(10, true, false, 5, 0.0, 30);
  const auto inhibited = run_fs_workload(10, true, false, 5, 10.0, 30);
  EXPECT_LT(inhibited.checks, eager.checks);
  EXPECT_EQ(inhibited.jobs, eager.jobs);
  // Every reconfiguring point is either answered or swallowed.
  EXPECT_EQ(eager.inhibited_checks, 0);
  EXPECT_GT(inhibited.inhibited_checks, 0);
  EXPECT_EQ(inhibited.checks + inhibited.inhibited_checks,
            eager.checks + eager.inhibited_checks);
}

/// Records start/end facts of user jobs as "start NAME@T" / "end NAME@T".
class LifecycleLog : public obs::Sink {
 public:
  LifecycleLog() : obs::Sink(obs::kStarted | obs::kFinished) {}
  void started(const obs::JobFact& f) override { note("start", f); }
  void finished(const obs::JobFact& f) override { note("end", f); }
  std::string text;

 private:
  void note(const char* what, const obs::JobFact& f) {
    if (f.job.spec.internal_resizer) return;
    char line[64];
    std::snprintf(line, sizeof(line), "%s%s %s@%g", text.empty() ? "" : ", ",
                  what, f.job.spec.name.c_str(), f.now);
    text += line;
  }
};

JobPlan named(JobPlan plan, const char* name) {
  plan.model.name = name;
  return plan;
}

TEST(Driver, SameInstantRigidEndsKeepSchedulingOrder) {
  // A's second step and B's only step both end at t=10.  B's step was
  // scheduled at t=0, A's second step at t=5, so B ends first and its
  // nodes go to the head waiter W2 before A ends.  (Expected order
  // captured before step events were coalesced into spans.)
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(4));
  LifecycleLog log;
  driver.attach(log);
  driver.add(named(fs_plan(0.0, 2, 10.0, 2, false), "A"));
  driver.add(named(fs_plan(0.0, 2, 10.0, 1, false), "B"));
  driver.add(named(fs_plan(1.0, 2, 5.0, 1, false), "W2"));
  driver.add(named(fs_plan(2.0, 4, 5.0, 1, false), "W4"));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 4);
  EXPECT_EQ(log.text,
            "start A@0, start B@0, end B@10, start W2@10, end A@10, "
            "end W2@15, start W4@15, end W4@20");
}

/// Flexible jobs on integer instants and power-of-two sizes (so step
/// ends tie across jobs), behind an inhibitor period that does not
/// divide the 3 s submit-size step.
std::uint64_t odd_period_digest(bool asynchronous) {
  sim::Engine engine;
  DriverConfig config = small_config(16);
  config.asynchronous = asynchronous;
  config.sched_period_override = 7.0;
  WorkloadDriver driver(engine, config);
  const int sizes[] = {2, 4, 8, 4, 2, 8, 4, 2};
  for (int i = 0; i < 8; ++i) {
    const int steps = 12 + 3 * (i % 4);
    driver.add(fs_plan(3.0 * (i / 2), sizes[i], 3.0 * steps, steps,
                       /*flexible=*/i != 5, 16));
  }
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 8);
  EXPECT_GT(metrics.expands + metrics.shrinks, 0);
  return digests::fnv1a(digests::job_table(driver.federation()) +
                        digests::metrics_tail(metrics));
}

TEST(Driver, OddInhibitorPeriodOutcomesPinned) {
  // Golden digests captured before step events were coalesced into
  // spans: the coalescer must reproduce every instant bit for bit.
  EXPECT_EQ(odd_period_digest(false), 797759664750081444ULL);
  EXPECT_EQ(odd_period_digest(true), 13662246240437873421ULL);
}

TEST(Driver, RestartedSpanKeepsItsChainOrder) {
  // X (flexible, period 3) and Z (rigid) step in lockstep, 1 s apart,
  // X first.  X's second span is queued at t=3, long after Z's single
  // span, yet both last steps start at 5: X must still end first.  With
  // check overhead (sync) X ends later instead.  (Expected orders
  // captured before step events were coalesced into spans.)
  for (const bool asynchronous : {true, false}) {
    sim::Engine engine;
    DriverConfig config = small_config(4);
    config.asynchronous = asynchronous;
    config.sched_period_override = 3.0;
    WorkloadDriver driver(engine, config);
    LifecycleLog log;
    driver.attach(log);
    driver.add(named(fs_plan(0.0, 2, 6.0, 6, true, 2), "X"));
    driver.add(named(fs_plan(0.0, 2, 6.0, 6, false), "Z"));
    driver.run();
    EXPECT_EQ(log.text, asynchronous
                            ? "start X@0, start Z@0, end X@6, end Z@6"
                            : "start X@0, start Z@0, end Z@6, end X@6.1");
  }
}

TEST(Driver, FlexibleSpansOfDifferentPeriodsKeepChainOrder) {
  // X (period 5) and Y (period 2) share a 1 s step.  X's last span is a
  // single step queued at t=5, Y's last span was queued at t=4; X was
  // ahead from the start, so it ends first and the waiter W takes its
  // nodes before Y ends.  (Captured before coalescing, as above.)
  for (const bool asynchronous : {true, false}) {
    sim::Engine engine;
    DriverConfig config = small_config(4);
    config.asynchronous = asynchronous;
    WorkloadDriver driver(engine, config);
    LifecycleLog log;
    driver.attach(log);
    JobPlan x = named(fs_plan(0.0, 2, 6.0, 6, true, 2), "X");
    x.model.sched_period = 5.0;
    JobPlan y = named(fs_plan(0.0, 2, 6.0, 6, true, 2), "Y");
    y.model.sched_period = 2.0;
    driver.add(std::move(x));
    driver.add(std::move(y));
    driver.add(named(fs_plan(1.0, 2, 3.0, 3, false), "W"));
    driver.run();
    EXPECT_EQ(log.text,
              asynchronous ? "start X@0, start Y@0, end X@6, start W@6, "
                             "end Y@6, end W@9"
                           : "start X@0, start Y@0, end X@6.1, start W@6.1, "
                             "end Y@6.15, end W@9.1");
  }
}

/// Every start, end and allocation change (resizer jobs included), at
/// full precision: the order the facts arrive in is the thing pinned.
class FactOrderLog : public obs::Sink {
 public:
  FactOrderLog()
      : obs::Sink(obs::kStarted | obs::kFinished | obs::kAllocChanged) {}
  void started(const obs::JobFact& f) override { note("s", f); }
  void finished(const obs::JobFact& f) override { note("e", f); }
  void alloc_changed(const obs::AllocFact& f) override {
    text += " a" + std::to_string(f.allocated) + "/" +
            std::to_string(f.running);
  }
  std::string text;

 private:
  void note(const char* what, const obs::JobFact& f) {
    char line[96];
    std::snprintf(line, sizeof(line), " %s%s%s@%.17g", what,
                  f.job.spec.internal_resizer ? "R" : "",
                  f.job.spec.name.c_str(), f.now);
    text += line;
  }
};

/// A small random workload built for same-instant ties: integer
/// arrivals and step lengths, power-of-two sizes, per-job inhibitor
/// periods of 0 to 7 s, sync or async checks, with or without check
/// overhead.  Choices hash (seed, job, field), so the workload does not
/// depend on any standard-library distribution.
std::string tie_heavy_fact_order(std::uint64_t seed) {
  const auto pick = [seed](int job, int field, int n) {
    std::uint64_t h = (seed + 1) * 0x9e3779b97f4a7c15ULL;
    for (const int v : {job, field}) {
      h = (h ^ static_cast<std::uint64_t>(v + 3)) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 29;
    }
    return static_cast<int>(h % static_cast<std::uint64_t>(n));
  };
  sim::Engine engine;
  DriverConfig config;
  config.rms.nodes = 4 << pick(-1, 0, 3);
  config.asynchronous = pick(-1, 1, 2) == 1;
  config.check_overhead_seconds = pick(-1, 2, 3) == 0 ? 1.0 : 0.0;
  WorkloadDriver driver(engine, config);
  FactOrderLog log;
  driver.attach(log);
  const double periods[] = {0.0, 1.0, 2.0, 3.0, 5.0, 7.0};
  const int jobs = 2 + pick(-1, 3, 6);
  for (int j = 0; j < jobs; ++j) {
    const int size = std::min(1 << pick(j, 0, 4), config.rms.nodes);
    const int steps = 1 + pick(j, 1, 12);
    JobPlan plan = fs_plan(pick(j, 2, 5), size,
                           steps * (1.0 + pick(j, 3, 4)), steps,
                           /*flexible=*/pick(j, 4, 10) < 6, config.rms.nodes);
    plan.model.name = std::string(1, static_cast<char>('A' + j));
    plan.model.sched_period = periods[pick(j, 5, 6)];
    if (pick(j, 6, 2) == 0) plan.model.state_bytes = 0;
    driver.add(std::move(plan));
  }
  driver.run();
  return log.text;
}

TEST(Driver, TieHeavyWorkloadsKeepPerStepFactOrder) {
  std::string all;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    all += tie_heavy_fact_order(seed) + "\n";
  }
  // Captured before step events were coalesced into spans, when every
  // step was its own engine event.
  EXPECT_EQ(digests::fnv1a(all), 11475920825761050110ULL);
}

TEST(Driver, MixedWorkloadBothKindsComplete) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(16));
  for (int i = 0; i < 6; ++i) {
    driver.add(fs_plan(i * 5.0, 4, 60.0, 2, /*flexible=*/(i % 2 == 0), 16));
  }
  const auto metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 6);
  EXPECT_GT(metrics.makespan, 0.0);
}

TEST(Driver, UtilizationWithinBounds) {
  const auto metrics = run_fs_workload(10, true, false, 3);
  EXPECT_GT(metrics.utilization, 0.0);
  EXPECT_LE(metrics.utilization, 1.0);
}

TEST(Driver, UtilizationWindowStartsAtFirstArrival) {
  // One 4-node job on an 8-node cluster, arriving at t=100 and running
  // 40 s: utilization must be 0.5 over [100, 140], not diluted by the
  // empty lead-in to ~0.14 over [0, 140].
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.add(fs_plan(100.0, 4, 40.0, 2, /*flexible=*/false));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_NEAR(metrics.makespan, 140.0, 1e-9);
  EXPECT_NEAR(metrics.utilization, 0.5, 1e-9);
}

TEST(Driver, EmptyWorkloadMetricsAreZeroNotNaN) {
  // An empty run (and a mid-run probe before anything arrived) must
  // report zeroed metrics, never divide by an empty window.
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  const WorkloadMetrics probed = driver.collect_metrics();
  EXPECT_EQ(probed.jobs, 0);
  EXPECT_DOUBLE_EQ(probed.utilization, 0.0);
  EXPECT_FALSE(std::isnan(probed.utilization));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 0);
  EXPECT_DOUBLE_EQ(metrics.makespan, 0.0);
  EXPECT_DOUBLE_EQ(metrics.utilization, 0.0);
  EXPECT_FALSE(std::isnan(metrics.utilization));
  EXPECT_FALSE(std::isnan(metrics.wait.mean));
}

TEST(Driver, StaleSubmissionIsRejectedNotReordered) {
  // Once the simulated clock passed an instant, a submission claiming to
  // arrive back then is an error — the driver refuses instead of
  // silently reordering history.
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.add(fs_plan(0.0, 4, 40.0, 2, /*flexible=*/false));
  driver.run();
  EXPECT_GT(engine.now(), 0.0);
  try {
    driver.submit_at(fs_plan(0.0, 2, 20.0, 2, /*flexible=*/false));
    FAIL() << "stale submission accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("precedes the simulated clock"),
              std::string::npos);
  }
  // add() enforces the same contract.
  EXPECT_THROW(driver.add(fs_plan(0.0, 2, 20.0, 2, /*flexible=*/false)),
               std::invalid_argument);
  // A future arrival is still welcome: the driver keeps running.
  driver.submit_at(fs_plan(engine.now() + 10.0, 2, 20.0, 2,
                           /*flexible=*/false));
  engine.run();
  EXPECT_EQ(driver.completed(), 2);
}

TEST(Driver, NonFiniteArrivalIsRejectedWithTheJobNamed) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  for (const double arrival : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
    try {
      driver.add(named(fs_plan(arrival, 2, 20.0, 2, false), "odd"));
      FAIL() << "non-finite arrival accepted by add()";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("job 'odd'"),
                std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find("non-finite arrival"),
                std::string::npos)
          << error.what();
    }
    EXPECT_THROW(driver.submit_at(fs_plan(arrival, 2, 20.0, 2, false)),
                 std::invalid_argument);
  }
  driver.add(fs_plan(1.0, 2, 20.0, 2, false));
  EXPECT_EQ(driver.run().jobs, 1);
}

/// Records user-job submissions in order and samples the engine's queue
/// footprint at every dispatch, against the running-job high-water mark.
class ArrivalProbe : public obs::Sink {
 public:
  explicit ArrivalProbe(const sim::Engine& engine)
      : obs::Sink(obs::kSubmitted | obs::kStarted | obs::kFinished |
                  obs::kDispatched),
        engine_(engine) {}
  void submitted(const obs::JobFact& f) override {
    names.push_back(f.job.spec.name);
    ids.push_back(f.job.id);
  }
  void started(const obs::JobFact&) override {
    max_running = std::max(max_running, ++running);
  }
  void finished(const obs::JobFact&) override { --running; }
  void dispatched(const obs::DispatchFact&) override {
    max_footprint = std::max(max_footprint, engine_.queue_footprint());
  }

  std::vector<std::string> names;
  std::vector<rms::JobId> ids;
  std::size_t running = 0;
  std::size_t max_running = 0;
  std::size_t max_footprint = 0;

 private:
  const sim::Engine& engine_;
};

// The batch driver streams arrivals through one pending event: jobs are
// submitted in arrival order, same-instant arrivals in add() order (a
// stable sort), and the event queue holds about one entry per running
// job rather than the whole backlog.
TEST(Driver, ArrivalCursorSubmitsInStableArrivalOrder) {
  constexpr int kJobs = 5000;
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(64));
  ArrivalProbe probe(engine);
  driver.attach(probe);
  std::vector<std::pair<double, std::string>> added;
  for (int i = 0; i < kJobs; ++i) {
    // A scrambled add order over 997 instants: ~5 arrivals tie on each.
    const double arrival = static_cast<double>((i * 7919) % 997);
    const int size = 1 + i % 4;
    const std::string name = "j" + std::to_string(i);
    JobPlan plan = fs_plan(arrival, size, 2.0 + i % 3, 1, false);
    plan.model.name = name;
    driver.add(std::move(plan));
    added.emplace_back(arrival, name);
  }
  using Added = std::pair<double, std::string>;
  std::stable_sort(added.begin(), added.end(),
                   [](const Added& a, const Added& b) {
                     return a.first < b.first;
                   });
  const WorkloadMetrics metrics = driver.run();
  EXPECT_EQ(metrics.jobs, kJobs);
  ASSERT_EQ(probe.names.size(), static_cast<std::size_t>(kJobs));
  for (int k = 0; k < kJobs; ++k) {
    const auto index = static_cast<std::size_t>(k);
    ASSERT_EQ(probe.names[index], added[index].second) << "submission " << k;
    EXPECT_EQ(probe.ids[index], probe.ids[0] + static_cast<rms::JobId>(k));
  }
  // One pending event per running job, plus the cursor's next arrival
  // and the entry being dispatched.
  EXPECT_GT(probe.max_running, 0u);
  EXPECT_LE(probe.max_footprint, probe.max_running + 2);
}

DriverConfig heterogeneous_config() {
  DriverConfig config;
  config.rms.partitions = {rms::Partition{"fast", 4, 1.0},
                           rms::Partition{"slow", 4, 0.5}};
  return config;
}

JobPlan pinned_plan(const char* partition, double runtime, int steps) {
  JobPlan plan = fs_plan(0.0, 4, runtime, steps, /*flexible=*/false, 4);
  plan.partition = partition;
  return plan;
}

TEST(Driver, SlowPartitionScalesStepTime) {
  // The same job pinned to half-speed nodes takes exactly twice as long.
  double fast_makespan = 0.0;
  {
    sim::Engine engine;
    WorkloadDriver driver(engine, heterogeneous_config());
    driver.add(pinned_plan("fast", 40.0, 2));
    fast_makespan = driver.run().makespan;
  }
  sim::Engine engine;
  WorkloadDriver driver(engine, heterogeneous_config());
  driver.add(pinned_plan("slow", 40.0, 2));
  const double slow_makespan = driver.run().makespan;
  EXPECT_NEAR(fast_makespan, 40.0, 1e-9);
  EXPECT_NEAR(slow_makespan, 80.0, 1e-9);
}

TEST(Driver, SpanningJobGatedBySlowestNode) {
  // 6 nodes requested on a 4+4 heterogeneous cluster: the allocation
  // spans into the slow partition and the whole job steps at 0.5x.
  sim::Engine engine;
  WorkloadDriver driver(engine, heterogeneous_config());
  driver.add(fs_plan(0.0, 6, 60.0, 2, /*flexible=*/false, 6));
  const WorkloadMetrics metrics = driver.run();
  EXPECT_NEAR(metrics.makespan, 120.0, 1e-9);
}

TEST(Driver, PartitionUtilizationReported) {
  sim::Engine engine;
  WorkloadDriver driver(engine, heterogeneous_config());
  driver.add(pinned_plan("fast", 40.0, 2));
  driver.add(pinned_plan("slow", 40.0, 2));
  const WorkloadMetrics metrics = driver.run();
  ASSERT_EQ(metrics.partitions.size(), 2u);
  EXPECT_EQ(metrics.partitions[0].name, "fast");
  EXPECT_EQ(metrics.partitions[1].name, "slow");
  // The slow job runs twice as long on its half of the cluster, so its
  // partition is busier over the common window.
  EXPECT_GT(metrics.partitions[1].utilization,
            metrics.partitions[0].utilization);
  for (const auto& part : metrics.partitions) {
    EXPECT_GT(part.utilization, 0.0);
    EXPECT_LE(part.utilization, 1.0);
  }
}

TEST(Driver, ScheduleTelemetryExposed) {
  const auto metrics = run_fs_workload(15, true, false, 42);
  EXPECT_GT(metrics.schedule_passes, 0);
  EXPECT_GT(metrics.schedule_passes_saved, 0);
  EXPECT_GE(metrics.schedule_requests, metrics.schedule_passes);
}

TEST(Driver, TraceSeriesRecorded) {
  sim::Engine engine;
  WorkloadDriver driver(engine, small_config(8));
  driver.add(fs_plan(0.0, 4, 40.0, 2, false));
  driver.run();
  EXPECT_TRUE(driver.trace().has("allocated"));
  EXPECT_TRUE(driver.trace().has("running"));
  EXPECT_TRUE(driver.trace().has("completed"));
  EXPECT_DOUBLE_EQ(driver.trace().series("completed").max_value(), 1.0);
}

TEST(Driver, RealisticMixWithTableOneModels) {
  // Miniature Section IX: CG/Jacobi/N-body jobs (scaled-down iteration
  // counts) on a 64-node cluster, submitted at their max size.
  sim::Engine engine;
  DriverConfig config;
  config.rms.nodes = 64;
  WorkloadDriver driver(engine, config);
  util::Rng rng(99);
  double arrival = 0.0;
  for (int i = 0; i < 9; ++i) {
    arrival += rng.exponential_mean(5.0);
    JobPlan plan;
    switch (i % 3) {
      case 0: plan.model = apps::cg_model(); break;
      case 1: plan.model = apps::jacobi_model(); break;
      default: plan.model = apps::nbody_model(); break;
    }
    plan.model.iterations = std::min(plan.model.iterations, 2000);
    plan.arrival = arrival;
    plan.submit_nodes = plan.model.request.max_procs;
    plan.flexible = true;
    driver.add(plan);
  }
  const auto metrics = driver.run();
  EXPECT_EQ(metrics.jobs, 9);
  // The CG/Jacobi jobs prefer 8 procs: with contention some of them must
  // have shrunk from 32.
  EXPECT_GE(metrics.shrinks, 1);
}

}  // namespace
