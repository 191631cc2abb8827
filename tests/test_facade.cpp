// Tests of the public dmr/ API facade — these include only the
// include/dmr/ surface, exactly like an external application would.
//
// The centerpiece is the parity suite: the same scripted workload must
// produce the identical resize sequence whether the shared
// dmr::ReconfigEngine runs under the discrete-event WorkloadDriver or
// under the real-mode (threaded ranks) malleable loop, in both the
// synchronous (dmr_check_status) and asynchronous (dmr_icheck_status)
// modes — the property the old duplicated state machines could silently
// lose.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "dmr/dmr.hpp"
#include "dmr/malleable.hpp"
#include "dmr/simulation.hpp"

namespace {

using namespace dmr;

/// One applied resize, as observed through the manager's resized fact.
struct ResizeEvent {
  Action action = Action::None;
  int old_size = 0;
  int new_size = 0;

  bool operator==(const ResizeEvent& other) const {
    return action == other.action && old_size == other.old_size &&
           new_size == other.new_size;
  }
};

std::string to_string(const ResizeEvent& event) {
  return ::dmr::to_string(event.action) + " " +
         std::to_string(event.old_size) + " -> " +
         std::to_string(event.new_size);
}

/// Attach a recorder to a manager; the mutex makes it safe for the
/// real-mode runs where rank threads drive the resizes.
class ResizeLog : public obs::Sink {
 public:
  explicit ResizeLog(Manager& manager) : obs::Sink(obs::kResized) {
    manager.attach(*this);
  }
  void resized(const obs::JobFact&, Action action, int old_size,
               int new_size) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back({action, old_size, new_size});
  }
  std::vector<ResizeEvent> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<ResizeEvent> events_;
};

void expect_same_sequence(const std::vector<ResizeEvent>& des,
                          const std::vector<ResizeEvent>& real) {
  ASSERT_EQ(des.size(), real.size());
  for (std::size_t i = 0; i < des.size(); ++i) {
    EXPECT_TRUE(des[i] == real[i])
        << "event " << i << ": DES '" << to_string(des[i]) << "' vs real '"
        << to_string(real[i]) << "'";
  }
}

/// The scripted workload: a flexible job starts at `submit` of `nodes`
/// total (bounds 1..nodes); optionally a rigid job of `rigid_nodes`
/// queues behind it.  With an empty queue the policy expands the
/// flexible job to the maximum; with the rigid job pending the wide
/// optimization shrinks it so the rigid job can start.
struct Scenario {
  int nodes = 8;
  int submit = 2;
  int steps = 4;
  int rigid_nodes = 0;  // 0 = no rigid job
};

/// Run the scenario through the discrete-event WorkloadDriver.
std::vector<ResizeEvent> run_des(const Scenario& scenario, Mode mode) {
  sim::Engine engine;
  DriverConfig config;
  config.rms.nodes = scenario.nodes;
  config.asynchronous = mode == Mode::Async;
  WorkloadDriver driver(engine, config);
  ResizeLog log(driver.manager_mutable());

  apps::AppModel model;
  model.name = "flex";
  model.iterations = scenario.steps;
  model.request = Request{.min_procs = 1, .max_procs = scenario.nodes,
                          .factor = 2, .preferred = 0};
  model.state_bytes = std::size_t(1) << 20;
  model.step_seconds = [](int nprocs) { return 8.0 / nprocs; };

  JobPlan plan;
  plan.model = model;
  plan.submit_nodes = scenario.submit;
  plan.flexible = true;
  driver.add(plan);

  if (scenario.rigid_nodes > 0) {
    apps::AppModel rigid;
    rigid.name = "rigid";
    rigid.iterations = 1;
    rigid.request = Request{.min_procs = scenario.rigid_nodes,
                            .max_procs = scenario.rigid_nodes,
                            .factor = 2, .preferred = 0};
    // Outlives the flexible job, like the real-mode placeholder that is
    // only cancelled after the run — so neither substrate re-expands.
    rigid.step_seconds = [](int) { return 10000.0; };
    JobPlan rigid_plan;
    rigid_plan.model = rigid;
    rigid_plan.submit_nodes = scenario.rigid_nodes;
    rigid_plan.flexible = false;
    driver.add(rigid_plan);
  }

  driver.run();
  return log.events();
}

/// Minimal malleable application for the real-mode runs: a distributed
/// array whose blocks follow every resize.
class ParityState final : public AppState {
 public:
  explicit ParityState(std::size_t total) : total_(total) {}

  void init(int rank, int nprocs) override {
    const BlockDistribution dist(total_, nprocs);
    local_.assign(dist.count(rank), 1.0);
  }
  void compute_step(const smpi::Comm& world, int) override {
    world.barrier();
    for (double& v : local_) v += 1.0;
  }
  void send_state(const smpi::Comm& inter, int my_old_rank, int old_size,
                  int new_size) override {
    send_blocks<double>(inter, my_old_rank, std::span<const double>(local_),
                        total_, old_size, new_size, 3);
  }
  void recv_state(const smpi::Comm& parent, int my_new_rank, int old_size,
                  int new_size) override {
    local_ = recv_blocks<double>(parent, my_new_rank, total_, old_size,
                                 new_size, 3);
  }
  std::vector<std::byte> serialize_global(const smpi::Comm&) override {
    return {};
  }
  void deserialize_global(const smpi::Comm&,
                          std::span<const std::byte>) override {}

 private:
  std::size_t total_;
  std::vector<double> local_;
};

/// Run the scenario through the real-mode malleable loop.
std::vector<ResizeEvent> run_real(const Scenario& scenario, Mode mode) {
  Manager manager(RmsConfig{.nodes = scenario.nodes, .scheduler = {}});
  ResizeLog log(manager);
  double now = 0.0;
  Session session(manager, [&now] { return now; });

  JobSpec spec;
  spec.name = "flex";
  spec.requested_nodes = scenario.submit;
  spec.min_nodes = 1;
  spec.max_nodes = scenario.nodes;
  spec.flexible = true;
  session.submit(spec);
  session.schedule();

  Session rigid_session(session.connection());
  if (scenario.rigid_nodes > 0) {
    JobSpec rigid;
    rigid.name = "rigid";
    rigid.requested_nodes = scenario.rigid_nodes;
    rigid.min_nodes = scenario.rigid_nodes;
    rigid.max_nodes = scenario.rigid_nodes;
    rigid_session.submit(rigid);
    rigid_session.schedule();
  }

  Request request{.min_procs = 1, .max_procs = scenario.nodes, .factor = 2,
                  .preferred = 0};
  auto point = std::make_shared<ReconfigPoint>(session, request);

  smpi::Universe universe;
  MalleableConfig config;
  config.total_steps = scenario.steps;
  config.asynchronous = mode == Mode::Async;
  run_malleable(universe, point, config,
                [] { return std::make_unique<ParityState>(64); },
                scenario.submit);
  universe.await_all();
  EXPECT_TRUE(universe.failures().empty());
  // The rigid job is a placeholder without a process payload.
  if (rigid_session.bound() && !rigid_session.info().finished()) {
    rigid_session.cancel();
  }
  return log.events();
}

TEST(EngineParity, SyncExpandSameSequenceInBothSubstrates) {
  const Scenario scenario{.nodes = 8, .submit = 2, .steps = 4,
                          .rigid_nodes = 0};
  const auto des = run_des(scenario, Mode::Sync);
  const auto real = run_real(scenario, Mode::Sync);
  ASSERT_FALSE(des.empty());
  EXPECT_TRUE(des.front() == (ResizeEvent{Action::Expand, 2, 8}));
  expect_same_sequence(des, real);
}

TEST(EngineParity, AsyncExpandSameSequenceInBothSubstrates) {
  const Scenario scenario{.nodes = 8, .submit = 2, .steps = 5,
                          .rigid_nodes = 0};
  const auto des = run_des(scenario, Mode::Async);
  const auto real = run_real(scenario, Mode::Async);
  ASSERT_FALSE(des.empty());
  // Async applies the decision one reconfiguring point late, but the
  // applied sequence is the same as in the DES run.
  EXPECT_TRUE(des.front() == (ResizeEvent{Action::Expand, 2, 8}));
  expect_same_sequence(des, real);
}

TEST(EngineParity, SyncShrinkForQueuedRigidJobSameSequence) {
  const Scenario scenario{.nodes = 8, .submit = 8, .steps = 4,
                          .rigid_nodes = 4};
  const auto des = run_des(scenario, Mode::Sync);
  const auto real = run_real(scenario, Mode::Sync);
  ASSERT_FALSE(des.empty());
  EXPECT_TRUE(des.front() == (ResizeEvent{Action::Shrink, 8, 4}));
  expect_same_sequence(des, real);
}

TEST(EngineParity, AsyncShrinkForQueuedRigidJobSameSequence) {
  const Scenario scenario{.nodes = 8, .submit = 8, .steps = 5,
                          .rigid_nodes = 4};
  const auto des = run_des(scenario, Mode::Async);
  const auto real = run_real(scenario, Mode::Async);
  ASSERT_FALSE(des.empty());
  EXPECT_TRUE(des.front() == (ResizeEvent{Action::Shrink, 8, 4}));
  expect_same_sequence(des, real);
}

// --- session lifecycle -------------------------------------------------------

JobSpec small_spec(int nodes, int max) {
  JobSpec spec;
  spec.name = "job";
  spec.requested_nodes = nodes;
  spec.min_nodes = 1;
  spec.max_nodes = max;
  spec.flexible = true;
  return spec;
}

TEST(SessionLifecycle, DoubleFinishReportsOnce) {
  Manager manager(RmsConfig{.nodes = 4, .scheduler = {}});
  double now = 0.0;
  Session session(manager, [&now] { return now; });
  session.submit(small_spec(2, 4));
  session.schedule();
  ASSERT_TRUE(session.info().running());

  session.finish();
  EXPECT_TRUE(session.finished());
  EXPECT_TRUE(session.info().finished());
  // The second finish must not reach the manager (which would throw on a
  // non-running job).
  EXPECT_NO_THROW(session.finish());
  EXPECT_EQ(manager.idle_nodes(), 4);
}

TEST(SessionLifecycle, CheckAfterFinishThrows) {
  Manager manager(RmsConfig{.nodes = 4, .scheduler = {}});
  double now = 0.0;
  Session session(manager, [&now] { return now; });
  session.submit(small_spec(2, 4));
  session.schedule();
  ReconfigEngine engine(session);

  session.finish();
  EXPECT_THROW(engine.check(Mode::Sync, Request{.min_procs = 1,
                                                .max_procs = 4,
                                                .factor = 2,
                                                .preferred = 0}),
               std::logic_error);
}

TEST(SessionLifecycle, UnboundAndDoubleSubmitAreErrors) {
  Manager manager(RmsConfig{.nodes = 4, .scheduler = {}});
  double now = 0.0;
  Session session(manager, [&now] { return now; });
  EXPECT_THROW(session.info(), std::logic_error);
  EXPECT_THROW(session.finish(), std::logic_error);

  session.submit(small_spec(2, 4));
  EXPECT_THROW(session.submit(small_spec(1, 4)), std::logic_error);
  EXPECT_THROW(session.bind(7), std::logic_error);
}

TEST(SessionLifecycle, ShrinkAbortKeepsAllocation) {
  Manager manager(RmsConfig{.nodes = 8, .scheduler = {}});
  double now = 0.0;
  Session session(manager, [&now] { return now; });
  session.submit(small_spec(8, 8));
  session.schedule();

  // A queued rigid job makes the policy shrink the running job.
  Session rigid(session.connection());
  JobSpec rigid_spec;
  rigid_spec.name = "rigid";
  rigid_spec.requested_nodes = 4;
  rigid_spec.min_nodes = 4;
  rigid_spec.max_nodes = 4;
  rigid.submit(rigid_spec);
  rigid.schedule();

  ReconfigEngine engine(session);
  const auto outcome = engine.check(
      Mode::Sync,
      Request{.min_procs = 1, .max_procs = 8, .factor = 2, .preferred = 0});
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(outcome->action, Action::Shrink);
  EXPECT_TRUE(engine.shrink_pending());

  // The drain fails (e.g. the offload could not complete): abort keeps
  // the full allocation and clears the draining marks.
  engine.abort_shrink();
  EXPECT_FALSE(engine.shrink_pending());
  EXPECT_EQ(session.info().allocated, 8);
  EXPECT_EQ(session.info().surviving_hosts.size(), session.info().hosts.size());
  // Completing after an abort is a no-op at the engine level.
  EXPECT_NO_THROW(engine.complete_shrink());
  session.finish();
}

TEST(SessionLifecycle, ShrinkCompleteReleasesNodesAndStartsRigid) {
  Manager manager(RmsConfig{.nodes = 8, .scheduler = {}});
  double now = 0.0;
  Session session(manager, [&now] { return now; });
  session.submit(small_spec(8, 8));
  session.schedule();

  Session rigid(session.connection());
  JobSpec rigid_spec;
  rigid_spec.name = "rigid";
  rigid_spec.requested_nodes = 4;
  rigid_spec.min_nodes = 4;
  rigid_spec.max_nodes = 4;
  rigid.submit(rigid_spec);
  rigid.schedule();

  ReconfigEngine engine(session);
  const auto outcome = engine.check(
      Mode::Sync,
      Request{.min_procs = 1, .max_procs = 8, .factor = 2, .preferred = 0});
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(outcome->action, Action::Shrink);
  EXPECT_EQ(session.info().surviving_hosts.size(), 4u);

  engine.complete_shrink();
  EXPECT_FALSE(engine.shrink_pending());
  EXPECT_EQ(session.info().allocated, 4);
  EXPECT_TRUE(rigid.info().running());
  session.finish();
  rigid.finish();
  EXPECT_EQ(manager.idle_nodes(), 8);
}

TEST(SessionLifecycle, FailedFinishDoesNotStrandTheSession) {
  // Finishing a job that never started throws; the session must stay
  // usable so cancel() can still clean the job up.
  Manager manager(RmsConfig{.nodes = 4, .scheduler = {}});
  double now = 0.0;
  Session session(manager, [&now] { return now; });
  Session hog(session.connection());
  hog.submit(small_spec(4, 4));
  hog.schedule();
  session.submit(small_spec(2, 4));  // cluster full: stays pending
  session.schedule();
  ASSERT_TRUE(session.info().pending());

  EXPECT_THROW(session.finish(), std::logic_error);
  EXPECT_FALSE(session.finished());
  EXPECT_NO_THROW(session.cancel());
  EXPECT_TRUE(session.info().finished());
  hog.finish();
  EXPECT_TRUE(manager.all_done());
}

TEST(SessionLifecycle, SyncCheckDropsStaleDeferredDecision) {
  // An async point negotiates a shrink (rigid job queued); before it is
  // applied the application switches to a sync point.  The sync check
  // must supersede the deferred decision so a later async call cannot
  // apply it against a state where the rigid job is long gone.
  Manager manager(RmsConfig{.nodes = 8, .scheduler = {}});
  double now = 0.0;
  Session session(manager, [&now] { return now; });
  session.submit(small_spec(8, 8));
  session.schedule();

  Session rigid(session.connection());
  JobSpec rigid_spec;
  rigid_spec.name = "rigid";
  rigid_spec.requested_nodes = 4;
  rigid_spec.min_nodes = 4;
  rigid_spec.max_nodes = 4;
  rigid.submit(rigid_spec);
  rigid.schedule();

  ReconfigEngine engine(session);
  const Request request{.min_procs = 1, .max_procs = 8, .factor = 2,
                        .preferred = 0};
  // Async: defers "shrink 8 -> 4" (motivated by the queued rigid job).
  auto first = engine.check(Mode::Async, request);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->action, Action::None);

  // The rigid job leaves the queue; the shrink's motivation is gone.
  rigid.cancel();

  // Sync: negotiates fresh (queue empty, job at max -> no action) and
  // drops the stale deferred decision.
  auto second = engine.check(Mode::Sync, request);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->action, Action::None);

  // The next async point must NOT apply the outdated shrink.
  auto third = engine.check(Mode::Async, request);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->action, Action::None);
  EXPECT_EQ(session.info().allocated, 8);
  EXPECT_FALSE(engine.shrink_pending());
  session.finish();
}

TEST(SessionLifecycle, ApplyHookFiresOnceOutsideTheLock) {
  Manager manager(RmsConfig{.nodes = 8, .scheduler = {}});
  double now = 0.0;
  Session session(manager, [&now] { return now; });
  session.submit(small_spec(2, 8));
  session.schedule();

  // The hook calls back into the engine — legal because it fires after
  // the engine lock is released.
  std::vector<Outcome> applied;
  ReconfigEngine* self = nullptr;
  ReconfigEngine engine(session, 0.0, [&](const Outcome& outcome) {
    applied.push_back(outcome);
    if (outcome.action == Action::Shrink) self->complete_shrink();
  });
  self = &engine;

  const Request request{.min_procs = 1, .max_procs = 8, .factor = 2,
                        .preferred = 0};
  const auto outcome = engine.check(Mode::Sync, request);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->action, Action::Expand);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_EQ(applied[0].new_size, 8);

  // A no-action check does not fire the hook.
  engine.check(Mode::Sync, request);
  EXPECT_EQ(applied.size(), 1u);
  session.finish();
}

TEST(Inhibitor, EngineReturnsNulloptWhileInhibited) {
  Manager manager(RmsConfig{.nodes = 8, .scheduler = {}});
  double now = 0.0;
  Session session(manager, [&now] { return now; });
  session.submit(small_spec(2, 8));
  session.schedule();

  ReconfigEngine engine(session, /*inhibitor_period=*/100.0);
  const Request request{.min_procs = 1, .max_procs = 2, .factor = 2,
                        .preferred = 0};
  EXPECT_TRUE(engine.check(Mode::Sync, request).has_value());
  now = 50.0;
  EXPECT_FALSE(engine.check(Mode::Sync, request).has_value());
  now = 100.0;
  EXPECT_TRUE(engine.check(Mode::Sync, request).has_value());
  EXPECT_EQ(manager.counters().checks, 2);
}

}  // namespace
