// The three simulation workloads (fig10, archive_hiload, fed_checked) and
// the L0 hold-model rung.
//
// A measured unit is one or more WorkloadDriver runs: set-up builds the
// inputs and loads them into fresh drivers, the run phase is
// WorkloadDriver::run alone.  Every run's outcome is rendered at full
// precision and hashed; a unit whose hash differs from the first unit of
// the same input, a job that does not complete, or an auditor violation
// counts as a failed job.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>

#include "dmr/check.hpp"
#include "dmr/observe.hpp"
#include "dmr/simulation.hpp"
#include "dmr/util.hpp"
#include "golden.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dmr;

/// One simulation's inputs: its seed, plans and driver configuration.
struct Input {
  std::uint64_t seed = 0;
  std::vector<drv::JobPlan> plans;
  drv::DriverConfig config;
};

/// Which observers a run attaches.  fed_checked always attaches the
/// auditor and the attributor (they are part of that workload); the
/// traced run adds the profiler; the fed_checked rungs vary the rest.
struct Attach {
  bool profiler = false;
  bool chk = false;
  bool attr = false;
};

/// Times every placement decision of the wrapped built-in policy: the
/// benchmark's own timer around fed::PlacementPolicy::place (the
/// profiler's placement bucket keeps whole microseconds per call, and a
/// least-loaded decision takes well under one).
class TimedPlacement final : public fed::PlacementPolicy {
 public:
  explicit TimedPlacement(fed::Placement kind)
      : inner_(fed::make_placement(kind)) {}
  std::string name() const override { return inner_->name(); }
  int place(const JobSpec& spec, const std::vector<fed::ClusterStatus>& clusters,
            const std::vector<int>& eligible) override {
    const Clock::time_point start = Clock::now();
    const int picked = inner_->place(spec, clusters, eligible);
    seconds_ += seconds_between(start, Clock::now());
    return picked;
  }
  double seconds() const { return seconds_; }

 private:
  std::unique_ptr<fed::PlacementPolicy> inner_;
  double seconds_ = 0.0;
};

/// A loaded simulation.  Members are destroyed bottom-up: the driver
/// before the engine and the observers it points to.
struct Instance {
  std::uint64_t seed = 0;
  int jobs = 0;
  std::shared_ptr<TimedPlacement> placement;
  std::unique_ptr<chk::Auditor> auditor;
  std::unique_ptr<obs::WaitAttributor> attr;
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<drv::WorkloadDriver> driver;
};

struct RunResult {
  double wall = 0.0;
  double placement_seconds = 0.0;
  drv::WorkloadMetrics metrics;
  std::string digest;
  int completed = 0;
  chk::Report audit;
  bool audited = false;
};

// --- workload definitions ----------------------------------------------------

struct SimWorkload {
  std::string name;
  /// Simulations per measured unit (consecutive seeds from --seed).
  int batch = 1;
  /// Observers that are part of the workload itself.
  Attach base;
};

/// Section IX realistic mix, as bench/common.cpp's build_realistic_plans
/// builds it.  A copy, not a call: that builder sits in common.cpp's
/// anonymous namespace, and its public entry points
/// (run_realistic_workload, realistic_outcome_digest) build and run in
/// one call, so they cannot time set-up apart from the run phase.  The
/// golden digests pin this copy's outcomes.
std::vector<drv::JobPlan> fig10_plans(std::uint64_t seed, int jobs,
                                      double iteration_scale) {
  const std::vector<apps::AppModel> classes = {
      apps::cg_model(), apps::jacobi_model(), apps::nbody_model()};
  std::vector<int> class_of(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) class_of[static_cast<std::size_t>(i)] = i % 3;
  util::Rng rng(seed);
  rng.shuffle(class_of);
  std::vector<drv::JobPlan> plans;
  plans.reserve(static_cast<std::size_t>(jobs));
  double arrival = 0.0;
  for (int i = 0; i < jobs; ++i) {
    arrival += rng.exponential_mean(60.0);
    drv::JobPlan plan;
    plan.model = classes[static_cast<std::size_t>(
        class_of[static_cast<std::size_t>(i)])];
    plan.model.iterations = std::max(
        1, static_cast<int>(plan.model.iterations * iteration_scale));
    plan.arrival = arrival;
    plan.submit_nodes = plan.model.request.max_procs;
    plan.flexible = true;
    plans.push_back(std::move(plan));
  }
  return plans;
}

Input fig10_input(std::uint64_t seed, bool tiny, Spans& spans) {
  Input input;
  input.seed = seed;
  {
    Spans::Scope plan(spans, "plan");
    input.plans = fig10_plans(seed, tiny ? 6 : 50, tiny ? 0.02 : 1.0);
  }
  input.config.rms.nodes = 64;
  input.config.rms.shrink_priority_boost = true;
  input.config.rms.scheduler.backfill = true;
  return input;
}

/// Feitelson jobs offering exactly `load` to `nodes` over every window of
/// kLoadWindow consecutive jobs: generated at the balanced arrival rate,
/// then each window's arrival gaps are scaled so its own work
/// (size x runtime) over its span is `load`.  Near saturation the queue
/// is very sensitive to load, and the load a raw draw realizes over a few
/// thousand jobs strays enough to change the replay's cost severalfold
/// from seed to seed; paced windows keep it comparable.
constexpr std::size_t kLoadWindow = 1000;

std::vector<wl::SyntheticJob> feitelson(std::uint64_t seed, int jobs,
                                        int max_size, int nodes, double load,
                                        Spans& spans) {
  Spans::Scope generate(spans, "generate");
  wl::FeitelsonParams params;
  params.jobs = jobs;
  params.max_size = max_size;
  params.seed = seed;
  params.mean_interarrival =
      wl::feitelson_balanced_interarrival(params, nodes, load);
  std::vector<wl::SyntheticJob> trace = wl::generate_feitelson(params);
  std::vector<double> gaps(trace.size(), 0.0);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    gaps[i] = trace[i].arrival - trace[i - 1].arrival;
  }
  double at = trace.empty() ? 0.0 : trace.front().arrival;
  for (std::size_t begin = 0; begin < trace.size(); begin += kLoadWindow) {
    const std::size_t end = std::min(trace.size(), begin + kLoadWindow);
    double work = 0.0, span = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      work += trace[i].size * trace[i].runtime;
      span += gaps[i];
    }
    const double scale = span > 0.0 ? work / (nodes * load) / span : 1.0;
    for (std::size_t i = begin; i < end; ++i) {
      at += gaps[i] * scale;
      trace[i].arrival = at;
    }
  }
  return trace;
}

Input archive_input(std::uint64_t seed, bool tiny, Spans& spans,
                    Metrics* layers) {
  const int nodes = tiny ? 64 : 1024;
  const auto jobs =
      feitelson(seed, tiny ? 2000 : 25000, tiny ? 16 : 128, nodes, 1.0,
                spans);
  std::string text;
  {
    Spans::Scope write(spans, "swf_write");
    text = wl::to_swf_text(wl::trace_from_feitelson(jobs, nodes));
  }
  wl::SwfTrace trace;
  {
    Spans::Scope parse(spans, "swf_parse");
    trace = wl::parse_swf_text(text);
  }
  wl::Workload workload;
  {
    Spans::Scope shape(spans, "shape");
    wl::TraceShaper shaper;
    shaper.target_nodes = nodes;
    workload = shaper.shape(trace);
  }
  if (layers != nullptr) {
    // Summed over the unit's traces, like the wl.* span seconds.
    (*layers)["wl.swf_bytes"].value += static_cast<double>(text.size());
  }
  Input input;
  input.seed = seed;
  {
    Spans::Scope plan(spans, "plan");
    drv::PlanShape shape;
    shape.steps = 25;
    shape.flexible = false;  // archive records replay rigidly
    input.plans = drv::plans_from_workload(workload, shape);
  }
  input.config.rms.nodes = workload.target_nodes;
  return input;
}

Input fed_input(std::uint64_t seed, bool tiny, Spans& spans) {
  const int nodes = tiny ? 128 : 1024;
  const int max_size = tiny ? 16 : 128;
  const auto jobs =
      feitelson(seed, tiny ? 1000 : 10000, max_size, nodes, 0.8, spans);
  Input input;
  input.seed = seed;
  {
    Spans::Scope plan(spans, "plan");
    wl::MalleabilityConfig malleability;
    malleability.policy = wl::Malleability::FractionOfRequest;
    const wl::Workload workload =
        wl::from_feitelson(jobs, max_size, malleability);
    drv::PlanShape shape;
    shape.steps = 25;
    shape.flexible = true;
    input.plans = drv::plans_from_workload(workload, shape);
    // Every other job is flexible.
    for (std::size_t i = 1; i < input.plans.size(); i += 2) {
      input.plans[i].flexible = false;
    }
  }
  const fed::MemberMix mix = fed::parse_member_mix(
      tiny ? "1x64:name=alpha,1xfast=32@1.25+slow=16@0.6:name=beta,"
             "1x16:speed=0.8:name=gamma"
           : "1x512:name=alpha,1xfast=256@1.25+slow=128@0.6:name=beta,"
             "1x128:speed=0.8:name=gamma");
  for (int member = 0; member < mix.total(); ++member) {
    input.config.federation.clusters.push_back(fed::member_spec(mix, member));
  }
  input.config.federation.placement = fed::Placement::LeastLoaded;
  input.config.asynchronous = true;
  return input;
}

const SimWorkload* find_workload(const std::string& name) {
  static const SimWorkload kWorkloads[] = {
      {"fig10", 40, {}},
      {"archive_hiload", 4, {}},
      {"fed_checked", 4, {false, true, true}},
  };
  for (const SimWorkload& workload : kWorkloads) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

Input build_input(const SimWorkload& workload, std::uint64_t seed, bool tiny,
                  Spans& spans, Metrics* layers) {
  if (workload.name == "fig10") return fig10_input(seed, tiny, spans);
  if (workload.name == "archive_hiload") {
    return archive_input(seed, tiny, spans, layers);
  }
  return fed_input(seed, tiny, spans);
}

// --- load / run / digest -----------------------------------------------------

Instance load(Input input, const Attach& attach, obs::Profiler* profiler,
              Spans& spans) {
  Spans::Scope add(spans, "add");
  Instance instance;
  instance.seed = input.seed;
  instance.jobs = static_cast<int>(input.plans.size());
  obs::Hooks hooks;
  if (attach.chk) {
    instance.auditor = std::make_unique<chk::Auditor>();
    hooks.auditor = instance.auditor.get();
  }
  if (attach.attr) {
    instance.attr = std::make_unique<obs::WaitAttributor>();
    hooks.attr = instance.attr.get();
  }
  if (attach.profiler) {
    hooks.profiler = profiler;
    if (input.config.federation.clusters.size() > 1) {
      instance.placement =
          std::make_shared<TimedPlacement>(input.config.federation.placement);
      input.config.federation.policy = instance.placement;
    }
  }
  input.config.hooks = hooks;
  instance.engine = std::make_unique<sim::Engine>();
  instance.driver = std::make_unique<drv::WorkloadDriver>(
      *instance.engine, std::move(input.config));
  for (drv::JobPlan& plan : input.plans) instance.driver->add(std::move(plan));
  return instance;
}

/// Every job's submit/start/end at full precision plus makespan and the
/// resize tallies: equal strings iff equal simulated outcomes.
/// bench::realistic_outcome_digest renders much the same text, but only
/// from a run it makes itself.
std::string outcome_text(const drv::WorkloadDriver& driver,
                         const drv::WorkloadMetrics& metrics) {
  std::string text;
  char line[160];
  for (const rms::Job* job : driver.federation().jobs()) {
    std::snprintf(line, sizeof(line), "%lld:%.17g:%.17g:%.17g\n",
                  static_cast<long long>(job->id), job->submit_time,
                  job->start_time, job->end_time);
    text += line;
  }
  std::snprintf(line, sizeof(line), "makespan=%.17g expands=%lld shrinks=%lld\n",
                metrics.makespan, metrics.expands, metrics.shrinks);
  text += line;
  return text;
}

RunResult run(Instance& instance, Spans& spans) {
  RunResult result;
  {
    Spans::Scope span(spans, "run",
                      "\"sim_seed\":" + std::to_string(instance.seed));
    result.metrics = instance.driver->run();
    result.wall = span.close();
  }
  if (instance.placement != nullptr) {
    result.placement_seconds = instance.placement->seconds();
  }
  result.completed = instance.driver->completed();
  result.digest = fnv1a_hex(outcome_text(*instance.driver, result.metrics));
  if (instance.auditor != nullptr) {
    result.audit = instance.auditor->report();
    result.audited = true;
  }
  return result;
}

/// Failures of one run: incomplete jobs, then jobs named by auditor
/// violations (a violation without a job costs one).
void judge(const std::string& what, const Instance& instance,
           const RunResult& result, Outcome& outcome) {
  outcome.attempted += instance.jobs;
  if (result.completed != instance.jobs) {
    outcome.fail(instance.jobs - result.completed,
                 what + ": " + std::to_string(instance.jobs - result.completed) +
                     " job(s) did not complete");
  }
  if (result.audited && !result.audit.ok()) {
    std::set<JobId> jobs;
    long long unnamed = result.audit.dropped_violations;
    for (const chk::Violation& violation : result.audit.violations) {
      if (violation.job == kInvalidJob) {
        ++unnamed;
      } else {
        jobs.insert(violation.job);
      }
    }
    const long long bad = std::min<long long>(
        instance.jobs, static_cast<long long>(jobs.size()) + unnamed);
    outcome.fail(bad, what + ": auditor violations:\n" +
                          result.audit.describe());
  }
}

// --- one measured unit -------------------------------------------------------

struct UnitResult {
  double setup_seconds = 0.0;
  double run_seconds = 0.0;
  int jobs = 0;
  std::vector<RunResult> runs;  // one per instance, in seed order
  std::vector<std::uint64_t> seeds;
};

UnitResult run_unit(const SimWorkload& workload, std::uint64_t seed,
                    const Options& options, const Attach& attach,
                    obs::Profiler* profiler, Spans& spans, Outcome& outcome,
                    Metrics* layers, int batch) {
  UnitResult unit;
  std::vector<Instance> instances;
  {
    Spans::Scope setup(spans, "setup");
    for (int i = 0; i < batch; ++i) {
      const std::uint64_t instance_seed = seed + static_cast<std::uint64_t>(i);
      instances.push_back(load(
          build_input(workload, instance_seed, options.tiny, spans, layers),
          attach, profiler, spans));
    }
    unit.setup_seconds = setup.close();
  }
  for (Instance& instance : instances) {
    RunResult result = run(instance, spans);
    judge(workload.name + " seed " + std::to_string(instance.seed), instance,
          result, outcome);
    unit.run_seconds += result.wall;
    unit.jobs += instance.jobs;
    unit.seeds.push_back(instance.seed);
    unit.runs.push_back(std::move(result));
  }
  return unit;
}

/// The first unit's digests are the reference for every later unit of
/// the same input: a difference is a non-deterministic (failed) run.
void check_repeat(const UnitResult& first, const UnitResult& unit,
                  Outcome& outcome) {
  for (std::size_t i = 0; i < unit.runs.size() && i < first.runs.size(); ++i) {
    if (unit.runs[i].digest != first.runs[i].digest) {
      outcome.fail(unit.runs[i].completed,
                   "seed " + std::to_string(unit.seeds[i]) +
                       ": outcome digest " + unit.runs[i].digest +
                       " differs from the first run's " +
                       first.runs[i].digest);
    }
  }
}

/// Golden probe: one simulation at the golden seed, compared with the
/// digest captured on the seed commit.
void golden_probe(const SimWorkload& workload, const Options& options,
                  Spans& spans, Outcome& outcome) {
  Spans::Scope probe(spans, "golden",
                     "\"golden_seed\":" + std::to_string(options.golden_seed));
  const UnitResult unit =
      run_unit(workload, options.golden_seed, options, workload.base, nullptr,
               spans, outcome, nullptr, 1);
  const RunResult& result = unit.runs.front();
  std::string expected = golden_digest(workload.name, options.golden_seed);
  if (options.inject == "bad-golden") {
    expected = expected.empty() ? "0" : expected;
    expected[0] = expected[0] == '0' ? '1' : '0';
  }
  outcome.detail["golden_seed"] = std::to_string(options.golden_seed);
  outcome.detail["golden_digest"] = result.digest;
  if (options.tiny && options.inject != "bad-golden") return;
  if (expected.empty()) {
    outcome.fail(unit.jobs, workload.name + ": no golden digest for seed " +
                                std::to_string(options.golden_seed) +
                                " (observed " + result.digest + ")");
  } else if (result.digest != expected) {
    outcome.fail(unit.jobs, workload.name + ": golden digest mismatch at seed " +
                                std::to_string(options.golden_seed) +
                                ": observed " + result.digest + ", expected " +
                                expected);
  }
}

/// Per-layer figures of one traced unit.
Metrics layer_metrics(const UnitResult& unit, const obs::Profiler& profiler,
                      const Spans& spans, std::size_t spans_before) {
  Metrics m;
  auto set = [&m](const char* name, double value) { m[name].value = value; };
  const obs::ProfileReport report = profiler.report(unit.run_seconds, unit.jobs);
  const double jobs = static_cast<double>(std::max(1, unit.jobs));
  set("run.wall_s", unit.run_seconds);
  set("sim.events", static_cast<double>(report.events));
  set("sim.events_per_job", static_cast<double>(report.events) / jobs);
  set("sim.events_per_s", report.events_per_second);
  set("rms.schedule_s", report.schedule_seconds);
  set("rms.schedule_us_per_pass", report.seconds_per_pass * 1.0e6);
  set("rms.schedule_share", unit.run_seconds > 0.0
                                ? report.schedule_seconds / unit.run_seconds
                                : 0.0);
  set("fed.placements", static_cast<double>(report.placements));
  double placement = 0.0;
  for (const RunResult& run : unit.runs) placement += run.placement_seconds;
  set("fed.placement_us_per_job", placement * 1.0e6 / jobs);
  set("fed.share", unit.run_seconds > 0.0 ? placement / unit.run_seconds : 0.0);
  // Engine time net of the benchmark-timed placement (the profiler's
  // truncated placement bucket is ~0, so its engine figure holds it).
  set("drv.engine_s", report.engine_seconds - placement);

  double requests = 0, passes = 0, checks = 0, expands = 0, shrinks = 0,
         aborted = 0, makespan = 0, wait = 0, utilization = 0, chk_checks = 0,
         violations = 0;
  for (const RunResult& run : unit.runs) {
    requests += static_cast<double>(run.metrics.schedule_requests);
    passes += static_cast<double>(run.metrics.schedule_passes);
    checks += static_cast<double>(run.metrics.checks);
    expands += static_cast<double>(run.metrics.expands);
    shrinks += static_cast<double>(run.metrics.shrinks);
    aborted += static_cast<double>(run.metrics.aborted_expands);
    makespan += run.metrics.makespan;
    wait += run.metrics.wait.mean;
    utilization += run.metrics.utilization;
    chk_checks += static_cast<double>(run.audit.total_checks());
    violations += static_cast<double>(run.audit.violations.size() +
                                      static_cast<std::size_t>(
                                          run.audit.dropped_violations));
  }
  const double runs = static_cast<double>(std::max<std::size_t>(1, unit.runs.size()));
  set("rms.schedule_requests", requests);
  set("rms.schedule_passes", passes);
  set("rms.pass_ratio", requests > 0 ? passes / requests : 0.0);
  set("rms.checks", checks);
  set("rms.useful_check_ratio", checks > 0 ? (expands + shrinks) / checks : 0.0);
  set("rms.expands", expands);
  set("rms.shrinks", shrinks);
  set("rms.aborted_expands", aborted);
  set("drv.sim_makespan_s", makespan / runs);
  set("drv.sim_wait_mean_s", wait / runs);
  set("drv.sim_utilization", utilization / runs);
  set("chk.checks", chk_checks);
  set("chk.violations", violations);

  // Set-up phases: self time of this unit's spans.  "plan" is JobPlan
  // building, "add" driver construction plus WorkloadDriver::add.
  std::map<std::string, double> self = spans.self_seconds(spans_before);
  set("drv.plan_s", self["plan"]);
  set("drv.add_s", self["add"]);
  set("wl.generate_s", self["generate"]);
  set("wl.swf_write_s", self["swf_write"]);
  set("wl.swf_parse_s", self["swf_parse"]);
  set("wl.shape_s", self["shape"]);
  return m;
}

/// Run phase of one fed_checked simulation with the given observers
/// (no profiler): the rung whose difference to the detached rung is
/// that observer's cost.
double rung_seconds(const SimWorkload& workload, std::uint64_t seed,
                    const Options& options, const Attach& attach,
                    const char* name, Spans& spans, Outcome& outcome) {
  Spans::Scope rung(spans, name);
  const UnitResult unit = run_unit(workload, seed, options, attach, nullptr,
                                   spans, outcome, nullptr, 1);
  return unit.run_seconds;
}

}  // namespace

bool is_simulation_workload(const std::string& name) {
  return find_workload(name) != nullptr;
}

namespace {

struct HoldModel {
  sim::Engine* engine = nullptr;
  const std::vector<double>* increments = nullptr;
  std::size_t next = 0;
  /// Events still to be scheduled beyond the initial queue.
  std::uint64_t to_schedule = 0;
  /// Holds each chain may schedule (the budget runs out first).
  std::uint64_t chain_length = 0;

  double increment() { return (*increments)[next++ % increments->size()]; }
};

/// One hold: reschedule the chain's successor while budget remains.  The
/// initial events start the chains, as a job's arrival starts its steps.
struct HoldEvent {
  HoldModel* model;
  std::uint64_t left;
  void operator()() const {
    HoldModel& m = *model;
    if (m.to_schedule == 0 || left == 0) return;
    --m.to_schedule;
    m.engine->schedule_after(m.increment(), HoldEvent{model, left - 1});
  }
};

}  // namespace

std::uint64_t hold_model(std::uint64_t events, std::size_t initial,
                         std::uint64_t seed, double* seconds) {
  sim::Engine engine;
  util::Rng rng(seed);
  std::vector<double> increments(4096);
  for (double& dt : increments) dt = rng.exponential_mean(1.0);
  HoldModel model;
  model.engine = &engine;
  model.increments = &increments;
  const std::uint64_t start_events =
      std::min<std::uint64_t>(std::max<std::size_t>(initial, 1), events);
  model.to_schedule = events - start_events;
  model.chain_length =
      start_events > 0 ? (model.to_schedule + start_events - 1) / start_events
                       : 0;
  // The initial queue is scheduled up front at increasing times, the way
  // the driver schedules every arrival before run().
  double at = 0.0;
  for (std::uint64_t i = 0; i < start_events; ++i) {
    at += model.increment();
    engine.schedule_at(at, HoldEvent{&model, model.chain_length});
  }
  const Clock::time_point t0 = Clock::now();
  engine.run();
  if (seconds != nullptr) *seconds = seconds_between(t0, Clock::now());
  return engine.executed();
}

/// Quantile of each simulation's run seconds that ops_per_s uses.  On a
/// shared host, repetitions run up to ~1.4x faster in bursts of seconds
/// to a minute while neighbours are quiet, and how much of a run such
/// bursts cover varies from run to run; the median follows that share,
/// the 90th percentile stays with the steady, slower state.
constexpr double kRunQuantile = 0.9;

Outcome run_simulation(const Options& options, Spans& spans) {
  const SimWorkload* workload = find_workload(options.workload);
  if (workload == nullptr) {
    throw std::invalid_argument("unknown simulation workload " +
                                options.workload);
  }
  const int batch = options.tiny ? std::min(workload->batch, 2) : workload->batch;
  Outcome outcome;
  outcome.detail["sims_per_unit"] = std::to_string(batch);
  golden_probe(*workload, options, spans, outcome);

  const Clock::time_point start = Clock::now();
  const int min_units = 3;
  std::vector<double> setups, rates, walls, traced_walls;
  // Run-phase seconds of each simulation of the unit, one entry per
  // untraced unit: ops_per_s divides the unit's jobs by the sum of their
  // kRunQuantile quantiles, so a noisy second on a shared host costs one
  // sample of a few simulations rather than a whole unit.
  std::vector<std::vector<double>> sim_walls(static_cast<std::size_t>(batch));
  std::vector<Metrics> traced_layers;
  std::optional<UnitResult> first;
  double swf_bytes = 0;
  // Peak RSS once the golden probe and the first unit have run: later
  // repetitions of the same unit add only allocator fragmentation, and
  // how many fit in the time budget depends on the host's speed.
  double peak_rss = 0.0;
  int units = 0;
  while (units < min_units ||
         seconds_between(start, Clock::now()) < options.seconds) {
    // Traced runs alternate an untraced unit (the overhead baseline)
    // with a profiled one.
    const bool profiled = options.trace && units % 2 == 1;
    obs::Profiler profiler;
    Attach attach = workload->base;
    attach.profiler = profiled;
    Metrics wl_layers;
    const std::size_t spans_before = spans.spans().size();
    Spans::Scope unit_span(spans, profiled ? "unit.profiled" : "unit");
    UnitResult unit =
        run_unit(*workload, options.seed, options, attach, &profiler, spans,
                 outcome, &wl_layers, batch);
    unit_span.close();
    if (first) {
      check_repeat(*first, unit, outcome);
    }
    swf_bytes = wl_layers["wl.swf_bytes"].value;
    if (profiled) {
      traced_walls.push_back(unit.run_seconds);
      traced_layers.push_back(
          layer_metrics(unit, profiler, spans, spans_before));
    } else {
      setups.push_back(unit.setup_seconds);
      walls.push_back(unit.run_seconds);
      rates.push_back(unit.run_seconds > 0.0 ? unit.jobs / unit.run_seconds
                                             : 0.0);
      // The first unit is a warm-up for ops_per_s: its drivers grow the
      // heap from fresh pages, later units reuse them.
      for (std::size_t i = 0; units > 0 && i < unit.runs.size(); ++i) {
        sim_walls[i].push_back(unit.runs[i].wall);
      }
      if (peak_rss == 0.0) peak_rss = peak_rss_mb();
    }
    if (!first) first = std::move(unit);
    ++units;
  }
  outcome.detail["units"] = std::to_string(units);
  outcome.detail["unit_ops_per_s"] = join(rates);
  outcome.detail["jobs_per_unit"] = std::to_string(first->jobs);

  if (!options.trace) {
    outcome.metrics = zero_metrics(end_to_end_metrics());
    double seconds = 0.0;
    for (const std::vector<double>& samples : sim_walls) {
      seconds += quantile(samples, kRunQuantile);
    }
    outcome.metrics["ops_per_s"].value =
        seconds > 0.0 ? first->jobs / seconds : 0.0;
    outcome.metrics["setup_s"].value = median(setups);
    outcome.metrics["peak_rss_mb"].value = peak_rss;
    return outcome;
  }

  // --- traced run: per-layer metrics -----------------------------------------
  Metrics layers = zero_metrics(per_layer_metrics());
  for (auto& [name, metric] : layers) {
    std::vector<double> values;
    for (const Metrics& unit_layers : traced_layers) {
      const auto it = unit_layers.find(name);
      if (it != unit_layers.end()) values.push_back(it->second.value);
    }
    if (!values.empty()) metric.value = median(values);
  }
  const double untraced_wall = median(walls);
  const double traced_wall = median(traced_walls);
  layers["trace.overhead_pct"].value =
      untraced_wall > 0.0 ? (traced_wall / untraced_wall - 1.0) * 100.0 : 0.0;
  layers["wl.swf_bytes"].value = swf_bytes;
  layers["wl.swf_parse_mb_per_s"].value =
      layers["wl.swf_parse_s"].value > 0.0
          ? swf_bytes / layers["wl.swf_parse_s"].value / 1.0e6
          : 0.0;

  // L0 rung: the engine alone on the same event count, with an initial
  // queue as deep as one simulation's job count.
  {
    Spans::Scope rung(spans, "rung.hold");
    double hold_seconds = 0.0;
    const std::uint64_t events =
        static_cast<std::uint64_t>(layers["sim.events"].value);
    const std::uint64_t dispatched =
        hold_model(events, static_cast<std::size_t>(first->jobs / batch),
                   options.seed, &hold_seconds);
    outcome.detail["hold_requested"] = std::to_string(events);
    outcome.detail["hold_dispatched"] = std::to_string(dispatched);
    if (dispatched != events) {
      outcome.fail(1, "hold model dispatched " + std::to_string(dispatched) +
                          " of " + std::to_string(events) + " events");
    }
    const double ns = events > 0 ? hold_seconds * 1.0e9 / events : 0.0;
    layers["sim.hold_ns_per_event"].value = ns;
    layers["sim.self_s"].value = ns * 1.0e-9 * static_cast<double>(events);
  }
  layers["drv.self_s"].value =
      layers["drv.engine_s"].value - layers["sim.self_s"].value;
  if (traced_wall > 0.0) {
    layers["sim.share"].value = layers["sim.self_s"].value / traced_wall;
    layers["drv.share"].value = layers["drv.self_s"].value / traced_wall;
  }

  if (workload->name == "fig10") {
    // fig10's resizes are priced by drv::CostModel; this rung measures
    // real-mode movement of a fixed buffer set, for redist.model_ratio
    // and the redist / smpi layers.
    redistribute_rung(options, options.tiny ? 0.0 : 3.0, spans, outcome,
                      layers);
  }

  if (workload->name == "fed_checked") {
    // Observer rungs on the unit's first simulation: detached, auditor
    // only, attributor only, and both (the workload's own observers).
    // One run of each swings with the host, so the four are interleaved
    // over a few repetitions and each takes its median.
    const Attach kRungs[] = {Attach{}, Attach{false, true, false},
                             Attach{false, false, true}, workload->base};
    const char* const kRungNames[] = {"rung.detached", "rung.chk",
                                      "rung.attr", "rung.both"};
    std::vector<double> rung_walls[std::size(kRungs)];
    for (int rep = 0; rep < (options.tiny ? 1 : 3); ++rep) {
      for (std::size_t r = 0; r < std::size(kRungs); ++r) {
        rung_walls[r].push_back(rung_seconds(*workload, options.seed, options,
                                             kRungs[r], kRungNames[r], spans,
                                             outcome));
      }
    }
    const double detached = median(rung_walls[0]);
    const double chk = median(rung_walls[1]);
    const double attr = median(rung_walls[2]);
    const double both = median(rung_walls[3]);
    layers["chk.cost_s"].value = chk - detached;
    layers["attr.cost_s"].value = attr - detached;
    layers["chk.cost_ratio"].value =
        detached > 0.0 ? (chk - detached) / detached : 0.0;
    layers["hooks.share"].value =
        both > 0.0 ? (chk + attr - 2.0 * detached) / both : 0.0;
  }
  outcome.metrics = std::move(layers);
  return outcome;
}

}  // namespace perfbench
