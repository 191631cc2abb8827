// Scenario-sweep harness for the workload-scale subsystem.
//
// Runs a grid of workload simulations — Feitelson traces scaled to
// thousands of jobs — on a thread pool, one independent Engine +
// WorkloadDriver per scenario, and emits one JSON object per scenario
// ("bench JSON", the micro_redistribute format) with makespan,
// wait/completion summaries, utilization (per partition on heterogeneous
// clusters, per member on federations), redistribution totals and the
// incremental scheduler's request/pass counters.
//
// Two sweep modes share the harness:
//  - single-cluster (default): (cluster config x DMR policy x variant x
//    seed), where the variant axis ablates the shrink priority boost,
//    EASY backfill and the Pack spanning-allocation policy;
//  - federation (clusters=N, N > 1): (placement policy x DMR policy x
//    seed) over an N-member federation of heterogeneous clusters, same
//    trace per seed across placements so their utilization/waiting-time
//    differences are attributable to routing alone.
//
// Usage:  sweep [jobs=N] [seeds=N] [threads=N] [steps=N] [load=F]
//               [clusters=N | --clusters N] [--members SPEC]
//               [--swf FILE | swf=FILE] [--append-json FILE]
//               [--trace FILE] [--trace-cell INDEX] [--attr]
//               [--attr-json FILE] [smoke]
//   --trace FILE       record the traced cell's Chrome trace timeline
//   --trace-cell INDEX which grid cell --trace / --attr-json single out
//                      (default 0; out-of-range indices are an error)
//   --attr             attach a wait attributor to every scenario and
//                      emit wait_cause_* columns per line (opt-in: the
//                      default sweep stays hook-free for the perf
//                      trajectory)
//   --attr-json FILE   write the traced cell's attribution sidecar
//                      (tools/dmr_explain input)
//   smoke      CI mode: a small trace, 1 seed, 2 threads (with
//              clusters=N: 2 members x 2 placements, the ctest/CI
//              federation smoke)
//   jobs=N     jobs per trace (default 1000; the paper stops at 400).
//              In SWF mode this caps the replay at the first N records.
//   seeds=N    seeds per grid cell (default 3; forced to 1 in SWF mode —
//              an archival trace is deterministic)
//   threads=N  worker threads (default: hardware concurrency)
//   steps=N    reconfiguring-point steps per job (default 25, Table I FS)
//   load=F     offered load fraction used to pace arrivals (default 0.9;
//              ignored in SWF mode — arrivals come from the log)
//   clusters=N federation mode: N member clusters (default 1 = off)
//   --members SPEC
//              federation member mix (fed::parse_member_mix grammar,
//              e.g. "16x64,8x128:speed=0.6"); the default reproduces
//              the historical alpha/beta/gamma cycle.  Indices past the
//              mix cycle through it again, so a small mix still scales
//              to --clusters 64.
//   --append-json FILE
//              append the end-of-run summary line (cells/sec and the
//              grid shape) to FILE, so repeated runs accumulate the
//              perf trajectory (BENCH_sweep.json)
//   --audit    attach one chk::Auditor per scenario (lifecycle DFA,
//              node conservation, event ordering, federation routing,
//              redistribution byte conservation); any violation is
//              printed and fails the run
//   --swf FILE replay an SWF (Standard Workload Format) trace instead of
//              generating a Feitelson one: records are filtered and
//              rescaled onto each scenario's cluster (pow2-halving
//              malleability annotation), and every line reports what the
//              shaper dropped or clamped — a truncated replay is never
//              presented as the whole log.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "dmr/check.hpp"
#include "dmr/observe.hpp"
#include "dmr/simulation.hpp"
#include "dmr/util.hpp"

namespace {

using namespace dmr;

struct ClusterConfig {
  const char* name;
  std::vector<rms::Partition> partitions;  // empty = homogeneous `nodes`
  int nodes = 0;
};

struct Policy {
  const char* name;
  bool flexible;
  bool asynchronous;
};

constexpr Policy kPolicies[] = {
    {"fixed", false, false},
    {"flexible", true, false},
    {"async", true, true},
};

/// Design-choice ablation axes (single-cluster mode): the shrink
/// priority boost (Algorithm 1 line 18), EASY backfill, and the Pack
/// spanning-allocation policy.  "pack" only differs on heterogeneous
/// configs, so the grid skips it for homogeneous ones.
struct Variant {
  const char* name;
  bool shrink_boost;
  bool backfill;
  rms::AllocPolicy alloc;
};

constexpr Variant kVariants[] = {
    {"base", true, true, rms::AllocPolicy::LowestId},
    {"no-boost", false, true, rms::AllocPolicy::LowestId},
    {"no-backfill", true, false, rms::AllocPolicy::LowestId},
    {"pack", true, true, rms::AllocPolicy::Pack},
};

struct SweepOptions {
  int jobs = 1000;
  int seeds = 3;
  int steps = 25;
  int threads = 0;  // 0 = hardware concurrency
  int clusters = 1;  // > 1 = federation mode
  bool audit = false;  // attach a chk::Auditor to every scenario
  double load = 0.9;
  std::string swf;  // non-empty = replay this SWF trace
  std::string members = fed::kDefaultMemberMix;  // federation member mix
  std::string append_json;  // non-empty = append the summary line here
  std::string trace;        // non-empty = record the traced cell's timeline
  std::string engine_json;  // non-empty = append a profiled engine row here
  int trace_cell = 0;  // which grid cell --trace / --attr-json single out
  bool attr = false;   // per-scenario wait attribution (wait_cause_* columns)
  std::string attr_json;  // non-empty = write the traced cell's sidecar here
};

/// SWF mode: one trace shaped onto one target cluster, computed once in
/// main and shared read-only by every scenario with that target.
struct ShapedTrace {
  wl::Workload workload;
  wl::ShapeReport report;
};

struct Scenario {
  const ClusterConfig* cluster = nullptr;  // single-cluster mode
  fed::Placement placement = fed::Placement::RoundRobin;  // federation mode
  const fed::MemberMix* mix = nullptr;                    // federation mode
  Policy policy;
  const Variant* variant;
  std::uint64_t seed;
  SweepOptions options;
  const ShapedTrace* shaped = nullptr;  // SWF mode
};

int total_nodes(const ClusterConfig& config) {
  if (config.partitions.empty()) return config.nodes;
  int total = 0;
  for (const auto& part : config.partitions) total += part.nodes;
  return total;
}

void apply_variant(rms::RmsConfig& rms, const Variant& variant) {
  rms.shrink_priority_boost = variant.shrink_boost;
  rms.scheduler.backfill = variant.backfill;
  rms.scheduler.alloc = variant.alloc;
}

/// Member cluster `index` of the federation: the --members mix (default:
/// the historical alpha/beta/gamma cycle — a large homogeneous member, a
/// heterogeneous fast/slow member and a small slow member, so placement
/// policies have real trade-offs to exploit).
fed::ClusterSpec make_member(const fed::MemberMix& mix, int index,
                             const Variant& variant) {
  fed::ClusterSpec spec = fed::member_spec(mix, index);
  apply_variant(spec.rms, variant);
  return spec;
}

/// {total nodes, largest member} of the federation the sweep builds for
/// `clusters` members of `mix` (node counts do not depend on the
/// variant).
std::pair<int, int> probe_federation(const fed::MemberMix& mix, int clusters) {
  int total = 0;
  int max_member = 0;
  for (int c = 0; c < clusters; ++c) {
    const fed::ClusterSpec spec = fed::member_spec(mix, c);
    int nodes = 0;
    if (spec.rms.partitions.empty()) {
      nodes = spec.rms.nodes;
    } else {
      for (const auto& part : spec.rms.partitions) nodes += part.nodes;
    }
    total += nodes;
    max_member = std::max(max_member, nodes);
  }
  return {total, max_member};
}

/// Shape the archive onto one target cluster (the one shaper
/// configuration the whole sweep uses: pow2-halving malleability,
/// jobs=N as the replay cap).
ShapedTrace shape_trace(const wl::SwfTrace& trace, int target_nodes,
                        int max_job_nodes, int max_jobs) {
  wl::TraceShaper shaper;
  shaper.target_nodes = target_nodes;
  shaper.max_job_nodes = max_job_nodes;
  shaper.max_jobs = max_jobs;
  shaper.malleability.policy = wl::Malleability::Pow2Halving;
  ShapedTrace shaped;
  shaped.workload = shaper.shape(trace, &shaped.report);
  return shaped;
}

/// Per-sweep audit rollup (--audit): checks and violations across every
/// scenario, accumulated by the worker threads.
struct AuditTotals {
  std::atomic<long long> checks{0};
  std::atomic<long long> violations{0};
};

/// Build the FS workload for one scenario and run it to completion.
/// `hooks` carries the sweep-wide profiler, plus the trace recorder on
/// the one scenario --trace singled out; --audit adds a per-scenario
/// chk::Auditor (scenarios are independent, so each gets its own).
std::string run_scenario(const Scenario& scenario, obs::Hooks hooks,
                         AuditTotals* audit) {
  const bool federated = scenario.options.clusters > 1;

  chk::Auditor auditor;
  if (scenario.options.audit) hooks.auditor = &auditor;
  // --attr: one attributor per scenario (scenarios run on worker threads;
  // the attributor is simulation-thread-only).  The singled-out trace
  // cell may already carry the sweep-wide sidecar attributor instead.
  obs::WaitAttributor attributor;
  if (scenario.options.attr && hooks.attr == nullptr) {
    hooks.attr = &attributor;
  }

  sim::Engine engine;
  drv::DriverConfig config;
  config.hooks = hooks;
  int nodes = 0;
  int max_member = 0;
  if (federated) {
    for (int c = 0; c < scenario.options.clusters; ++c) {
      config.federation.clusters.push_back(
          make_member(*scenario.mix, c, *scenario.variant));
    }
    config.federation.placement = scenario.placement;
    std::tie(nodes, max_member) =
        probe_federation(*scenario.mix, scenario.options.clusters);
  } else {
    config.rms.nodes = scenario.cluster->nodes;
    config.rms.partitions = scenario.cluster->partitions;
    apply_variant(config.rms, *scenario.variant);
    nodes = total_nodes(*scenario.cluster);
  }
  config.asynchronous = scenario.policy.asynchronous;

  // Trace source: an archival SWF replay (shaped once in main), or the
  // paper's Feitelson synthesis — both reduce to the shared
  // wl::Workload job model.
  wl::Workload generated;
  const wl::Workload* workload = nullptr;
  if (scenario.shaped != nullptr) {
    workload = &scenario.shaped->workload;
  } else {
    wl::FeitelsonParams params;
    params.jobs = scenario.options.jobs;
    // The paper's preliminary-study shape: sizes up to the 20-node
    // partition, 60 s step cap; larger clusters keep the same job-size
    // distribution and absorb the load through parallelism.  Federated
    // traces cap sizes at the largest member so every job fits somewhere
    // (smaller members reject the wide ones — the failover path).
    params.max_size = std::min(federated ? max_member : nodes, 20);
    params.max_runtime = 60.0 * scenario.options.steps;
    params.short_runtime_mean = 60.0;
    params.long_runtime_mean = 600.0;
    params.seed = scenario.seed;
    params.mean_interarrival = wl::feitelson_balanced_interarrival(
        params, nodes, scenario.options.load);
    // The generator's historical bounds: every job may shrink to one
    // node and grow to the trace maximum (fs_model's min/max defaults).
    wl::MalleabilityConfig bounds;
    bounds.policy = wl::Malleability::FractionOfRequest;
    bounds.min_fraction = 0.0;
    bounds.expand_limit = params.max_size;
    generated = wl::from_feitelson(wl::generate_feitelson(params),
                                   params.max_size, bounds);
    workload = &generated;
  }

  drv::WorkloadDriver driver(engine, config);
  drv::PlanShape plan_shape;
  plan_shape.steps = scenario.options.steps;
  plan_shape.flexible = scenario.policy.flexible;
  auto plans = drv::plans_from_workload(*workload, plan_shape);
  const int parts =
      federated ? 0 : static_cast<int>(scenario.cluster->partitions.size());
  for (std::size_t slot = 0; slot < plans.size(); ++slot) {
    if (parts > 1 && slot % 2 == 0) {
      // Mixed placement: half the jobs are partition-constrained (round
      // robin over the partitions, when they fit), half span freely.
      const auto& part = scenario.cluster->partitions
                             [(slot / 2) % static_cast<std::size_t>(parts)];
      if (workload->jobs[slot].nodes <= part.nodes) {
        plans[slot].partition = part.name;
      }
    }
    driver.add(std::move(plans[slot]));
  }

  const double start = util::wall_seconds();
  const drv::WorkloadMetrics metrics = driver.run();
  const double wall = util::wall_seconds() - start;

  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "{\"bench\":\"sweep\",\"cluster\":\""
      << (federated
              ? "fed" + std::to_string(scenario.options.clusters)
              : scenario.cluster->name)
      << "\",\"clusters\":" << scenario.options.clusters
      << ",\"placement\":\""
      << (federated ? to_string(scenario.placement) : "none")
      << "\",\"policy\":\"" << scenario.policy.name << "\",\"variant\":\""
      << scenario.variant->name
      << "\",\"shrink_boost\":" << (scenario.variant->shrink_boost ? 1 : 0)
      << ",\"backfill\":" << (scenario.variant->backfill ? 1 : 0)
      << ",\"alloc\":\"" << rms::to_string(scenario.variant->alloc)
      << "\",\"seed\":" << scenario.seed << ",\"jobs\":" << metrics.jobs
      << ",\"nodes\":" << nodes << ",\"makespan\":" << metrics.makespan
      << ",\"utilization\":" << metrics.utilization;
  if (scenario.options.audit) {
    const chk::Report report = auditor.report();
    audit->checks.fetch_add(report.total_checks());
    audit->violations.fetch_add(
        static_cast<long long>(report.violations.size()) +
        report.dropped_violations);
    if (!report.ok()) {
      std::fprintf(stderr,
                   "sweep: audit violations (cluster=%s policy=%s "
                   "seed=%llu):\n%s",
                   federated ? "fed" : scenario.cluster->name,
                   scenario.policy.name,
                   static_cast<unsigned long long>(scenario.seed),
                   report.describe().c_str());
    }
    out << ",\"audit_checks\":" << report.total_checks()
        << ",\"audit_violations\":" << report.violations.size();
  }
  if (scenario.shaped != nullptr) {
    // Shaping telemetry: what the replay dropped or altered.  A smaller
    // job count than the archive's is reported, never implied.
    const wl::ShapeReport& report = scenario.shaped->report;
    out << ",\"swf\":\"" << obs::json_escape(scenario.options.swf)
        << "\",\"swf_parsed\":" << report.parsed
        << ",\"swf_kept\":" << report.kept
        << ",\"swf_dropped\":" << report.dropped()
        << ",\"swf_clamped\":" << report.clamped_oversize;
  }
  for (const auto& part : metrics.partitions) {
    out << ",\"utilization_" << part.name << "\":" << part.utilization;
  }
  for (const auto& member : metrics.clusters) {
    out << ",\"utilization_" << member.name << "\":" << member.utilization
        << ",\"jobs_" << member.name << "\":" << member.jobs << ",\"wait_mean_"
        << member.name << "\":" << member.wait.mean;
  }
  if (federated) {
    const fed::Federation& federation = driver.federation();
    for (int c = 0; c < federation.cluster_count(); ++c) {
      out << ",\"placements_" << federation.cluster_name(c)
          << "\":" << federation.placements()[static_cast<std::size_t>(c)];
    }
  }
  if (scenario.options.attr) {
    // Wait decomposition columns; the wait_cause_* seconds sum to the
    // completed jobs' total wait.
    for (const auto& cause : metrics.wait_causes) {
      out << ",\"wait_cause_" << cause.key << "\":" << cause.seconds;
    }
  }
  out << ",\"wait_mean\":" << metrics.wait.mean
      << ",\"wait_p95\":" << metrics.wait.p95
      << ",\"wait_max\":" << metrics.wait.max
      << ",\"completion_mean\":" << metrics.completion.mean
      << ",\"execution_mean\":" << metrics.execution.mean
      << ",\"expands\":" << metrics.expands
      << ",\"shrinks\":" << metrics.shrinks << ",\"checks\":" << metrics.checks
      << ",\"inhibited_checks\":" << metrics.inhibited_checks
      << ",\"events_per_job\":"
      << (metrics.jobs > 0
              ? static_cast<double>(metrics.events) / metrics.jobs
              : 0.0)
      << ",\"aborted_expands\":" << metrics.aborted_expands
      << ",\"bytes_redistributed\":" << metrics.bytes_redistributed
      << ",\"redistribution_seconds\":" << metrics.redistribution_seconds
      << ",\"schedule_requests\":" << metrics.schedule_requests
      << ",\"schedule_passes\":" << metrics.schedule_passes
      << ",\"schedule_passes_saved\":" << metrics.schedule_passes_saved
      << ",\"wall_seconds\":" << wall << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  SweepOptions options;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    unsigned long long value = 0;
    double fraction = 0.0;
    if (std::strcmp(argv[i], "smoke") == 0) {
      smoke = true;
    } else if (std::sscanf(argv[i], "jobs=%llu", &value) == 1) {
      options.jobs = static_cast<int>(value);
    } else if (std::sscanf(argv[i], "seeds=%llu", &value) == 1) {
      options.seeds = static_cast<int>(value);
    } else if (std::sscanf(argv[i], "threads=%llu", &value) == 1) {
      options.threads = static_cast<int>(value);
    } else if (std::sscanf(argv[i], "steps=%llu", &value) == 1) {
      options.steps = static_cast<int>(value);
    } else if (std::sscanf(argv[i], "clusters=%llu", &value) == 1) {
      options.clusters = static_cast<int>(value);
    } else if (std::strcmp(argv[i], "--clusters") == 0 && i + 1 < argc &&
               std::sscanf(argv[i + 1], "%llu", &value) == 1) {
      options.clusters = static_cast<int>(value);
      ++i;
    } else if (std::strcmp(argv[i], "--audit") == 0) {
      options.audit = true;
    } else if (std::strcmp(argv[i], "--swf") == 0 && i + 1 < argc) {
      options.swf = argv[i + 1];
      ++i;
    } else if (std::strncmp(argv[i], "swf=", 4) == 0 && argv[i][4] != '\0') {
      options.swf = argv[i] + 4;
    } else if (std::strcmp(argv[i], "--members") == 0 && i + 1 < argc) {
      options.members = argv[i + 1];
      ++i;
    } else if (std::strncmp(argv[i], "members=", 8) == 0 &&
               argv[i][8] != '\0') {
      options.members = argv[i] + 8;
    } else if (std::strcmp(argv[i], "--append-json") == 0 && i + 1 < argc) {
      options.append_json = argv[i + 1];
      ++i;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      options.trace = argv[i + 1];
      ++i;
    } else if (std::strcmp(argv[i], "--trace-cell") == 0 && i + 1 < argc &&
               std::sscanf(argv[i + 1], "%llu", &value) == 1) {
      options.trace_cell = static_cast<int>(value);
      ++i;
    } else if (std::strcmp(argv[i], "--attr") == 0) {
      options.attr = true;
    } else if (std::strcmp(argv[i], "--attr-json") == 0 && i + 1 < argc) {
      options.attr_json = argv[i + 1];
      ++i;
    } else if (std::strcmp(argv[i], "--engine-json") == 0 && i + 1 < argc) {
      options.engine_json = argv[i + 1];
      ++i;
    } else if (std::sscanf(argv[i], "load=%lf", &fraction) == 1) {
      options.load = fraction;
    } else {
      std::fprintf(stderr,
                   "usage: %s [jobs=N] [seeds=N] [threads=N] [steps=N] "
                   "[load=F] [clusters=N | --clusters N] [--members SPEC] "
                   "[--swf FILE | swf=FILE] [--append-json FILE] "
                   "[--trace FILE] [--trace-cell INDEX] [--attr] "
                   "[--attr-json FILE] [--engine-json FILE] [--audit] "
                   "[smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  if (options.jobs <= 0 || options.seeds <= 0 || options.steps <= 0 ||
      options.load <= 0.0 || options.load > 1.0) {
    std::fprintf(stderr,
                 "sweep: jobs/seeds/steps must be positive and load in "
                 "(0, 1]\n");
    return 2;
  }
  if (options.clusters < 1 || options.clusters > 64) {
    std::fprintf(stderr, "sweep: clusters must be in [1, 64]\n");
    return 2;
  }
  if (smoke) {
    options.jobs = 120;
    options.seeds = 1;
    options.steps = 5;
    if (options.threads == 0) options.threads = 2;
  }
  if (options.threads <= 0) {
    options.threads =
        std::max(1u, std::thread::hardware_concurrency());
  }

  fed::MemberMix mix;
  try {
    mix = fed::parse_member_mix(options.members);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep: %s\n", error.what());
    return 2;
  }

  wl::SwfTrace swf_trace;
  if (!options.swf.empty()) {
    try {
      swf_trace = wl::parse_swf_file(options.swf);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "sweep: %s\n", error.what());
      return 2;
    }
    if (options.seeds > 1) {
      std::fprintf(stderr,
                   "sweep: swf replay is deterministic; forcing seeds=1\n");
    }
    options.seeds = 1;
  }

  const std::vector<ClusterConfig> clusters = {
      {"hom20", {}, 20},
      {"hom64", {}, 64},
      {"het_fast_slow",
       {rms::Partition{"fast", 16, 1.0}, rms::Partition{"slow", 16, 0.6}},
       0},
  };

  // Federation grid axes; the smoke run is the ctest/CI federation
  // check: 2 members x 2 placements, flexible only.
  std::vector<fed::Placement> placements;
  std::vector<Policy> policies(std::begin(kPolicies), std::end(kPolicies));
  if (options.clusters > 1) {
    placements = fed::all_placements();
    if (smoke) {
      options.clusters = 2;
      placements.resize(2);
      policies = {kPolicies[1]};  // flexible
    }
  }

  // SWF mode: shape the archive once per distinct target cluster, and
  // surface every report on stderr — dropped or clamped records are
  // announced, never presented as a complete replay.  Federated targets
  // cap job widths at the largest member so every kept job fits
  // somewhere (smaller members reject the wide ones — the failover
  // path).
  std::vector<ShapedTrace> shaped(
      options.swf.empty() ? 0
      : options.clusters > 1 ? 1
                             : clusters.size());
  if (!options.swf.empty()) {
    const auto log_shape = [&](const ShapedTrace& entry,
                               const std::string& name) {
      std::fprintf(stderr, "sweep: swf %s -> %s: %s\n", options.swf.c_str(),
                   name.c_str(), entry.report.describe().c_str());
    };
    if (options.clusters > 1) {
      const auto [total, max_member] = probe_federation(mix, options.clusters);
      shaped[0] = shape_trace(swf_trace, total, max_member, options.jobs);
      log_shape(shaped[0], "fed" + std::to_string(options.clusters));
    } else {
      for (std::size_t c = 0; c < clusters.size(); ++c) {
        const int nodes = total_nodes(clusters[c]);
        shaped[c] = shape_trace(swf_trace, nodes, nodes, options.jobs);
        log_shape(shaped[c], clusters[c].name);
      }
    }
  }

  std::vector<Scenario> scenarios;
  if (options.clusters > 1) {
    // Federation grid: placement x DMR policy x seed on one member set;
    // the trace depends only on the seed, so placements compete on the
    // same workload.
    for (fed::Placement placement : placements) {
      for (const Policy& policy : policies) {
        for (int s = 0; s < options.seeds; ++s) {
          Scenario scenario;
          scenario.placement = placement;
          scenario.mix = &mix;
          scenario.policy = policy;
          scenario.variant = &kVariants[0];
          scenario.seed = 2017 + static_cast<std::uint64_t>(s);
          scenario.options = options;
          if (!options.swf.empty()) scenario.shaped = &shaped[0];
          scenarios.push_back(scenario);
        }
      }
    }
  } else {
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      const auto& cluster = clusters[c];
      for (const Policy& policy : kPolicies) {
        for (const Variant& variant : kVariants) {
          // Pack only differs from base on heterogeneous configs.
          if (variant.alloc == rms::AllocPolicy::Pack &&
              cluster.partitions.size() < 2) {
            continue;
          }
          for (int s = 0; s < options.seeds; ++s) {
            Scenario scenario;
            scenario.cluster = &cluster;
            scenario.policy = policy;
            scenario.variant = &variant;
            scenario.seed = 2017 + static_cast<std::uint64_t>(s);
            scenario.options = options;
            if (!options.swf.empty()) scenario.shaped = &shaped[c];
            scenarios.push_back(scenario);
          }
        }
      }
    }
  }

  // The singled-out grid cell --trace / --attr-json record.  Validated
  // against the real grid: silently tracing nothing (or cell 0 when the
  // user asked for 57) would misrepresent the run.
  if (options.trace_cell < 0 ||
      static_cast<std::size_t>(options.trace_cell) >= scenarios.size()) {
    std::fprintf(
        stderr,
        "sweep: --trace-cell %d out of range (grid has %zu cells, valid "
        "indices 0..%zu)\n",
        options.trace_cell, scenarios.size(), scenarios.size() - 1);
    return 2;
  }

  // Thread pool over the scenario list: scenarios are fully independent
  // (own engine, managers, driver, RNG), so workers share nothing but the
  // next-index counter.  Output is buffered per scenario and printed in
  // grid order to keep runs diffable.
  std::vector<std::string> lines(scenarios.size());
  std::atomic<std::size_t> next{0};
  // Sweep-wide observability: one profiler shared by every worker
  // (relaxed atomics — designed for exactly this), and a trace recorder
  // attached to scenario 0 only, so --trace yields one coherent timeline
  // rather than an interleaving of independent simulated clocks.
  obs::TraceRecorder trace_recorder;
  obs::Profiler profiler;
  obs::WaitAttributor cell_attributor;  // --attr-json, traced cell only
  AuditTotals audit;
  const double start = util::wall_seconds();
  std::vector<std::thread> workers;
  const int worker_count =
      std::min<int>(options.threads, static_cast<int>(scenarios.size()));
  workers.reserve(static_cast<std::size_t>(worker_count));
  for (int t = 0; t < worker_count; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const std::size_t index = next.fetch_add(1);
        if (index >= scenarios.size()) return;
        obs::Hooks hooks;
        if (!options.engine_json.empty()) hooks.profiler = &profiler;
        if (index == static_cast<std::size_t>(options.trace_cell)) {
          if (!options.trace.empty()) hooks.trace = &trace_recorder;
          if (!options.attr_json.empty()) hooks.attr = &cell_attributor;
        }
        lines[index] = run_scenario(scenarios[index], hooks, &audit);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const double wall = util::wall_seconds() - start;

  if (!options.trace.empty()) {
    try {
      trace_recorder.write_file(options.trace);
      std::fprintf(stderr, "sweep: trace (scenario %d) -> %s: %zu events, "
                   "%llu dropped\n",
                   options.trace_cell, options.trace.c_str(),
                   trace_recorder.recorded(),
                   static_cast<unsigned long long>(trace_recorder.dropped()));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "sweep: %s\n", error.what());
      return 1;
    }
  }
  if (!options.attr_json.empty()) {
    try {
      cell_attributor.write_file(options.attr_json);
      std::fprintf(stderr, "sweep: attribution (scenario %d) -> %s: %zu "
                   "jobs\n",
                   options.trace_cell, options.attr_json.c_str(),
                   cell_attributor.jobs().size());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "sweep: %s\n", error.what());
      return 1;
    }
  }

  if (options.audit) {
    std::fprintf(stderr,
                 "sweep: audit: %zu scenarios, %lld checks, %lld "
                 "violation(s)\n",
                 scenarios.size(), audit.checks.load(),
                 audit.violations.load());
  }

  for (const auto& line : lines) std::printf("%s\n", line.c_str());
  // Grid axis sizes: how many DMR policies and design variants this run
  // swept (federation mode pins the variant axis to "base").
  const int policy_count = static_cast<int>(policies.size());
  const int variant_count =
      options.clusters > 1
          ? 1
          : static_cast<int>(std::end(kVariants) - std::begin(kVariants));
  // Built as a string: the --members spec has no length bound.
  std::ostringstream summary_out;
  summary_out << std::fixed
              << "{\"bench\":\"sweep\",\"summary\":true,\"scenarios\":"
              << scenarios.size() << ",\"clusters\":" << options.clusters
              << ",\"members\":\"" << obs::json_escape(options.members)
              << "\",\"jobs_per_trace\":" << options.jobs
              << ",\"policies\":" << policy_count
              << ",\"variants\":" << variant_count
              << ",\"wall_seconds\":" << std::setprecision(3) << wall
              << ",\"cells_per_second\":" << std::setprecision(2)
              << (wall > 0.0 ? static_cast<double>(scenarios.size()) / wall
                             : 0.0)
              << "," << bench_provenance_fields(worker_count) << "}";
  const std::string summary = summary_out.str();
  std::printf("%s\n", summary.c_str());
  if (!options.append_json.empty()) {
    // Accumulate the perf trajectory: one summary line per run, appended
    // so successive PRs can plot cells/sec over time (BENCH_sweep.json).
    std::FILE* file = std::fopen(options.append_json.c_str(), "a");
    if (file == nullptr) {
      std::fprintf(stderr, "sweep: cannot append to %s\n",
                   options.append_json.c_str());
      return 1;
    }
    std::fprintf(file, "%s\n", summary.c_str());
    std::fclose(file);
  }
  if (!options.engine_json.empty()) {
    // One profiled row over the whole sweep (every scenario fed the
    // shared profiler): sweep's contribution to the BENCH_engine.json
    // trajectory.  `jobs` is the planned grid total — SWF shaping may
    // keep fewer per scenario; the per-scenario lines carry exact counts.
    const obs::ProfileReport report = profiler.report(
        wall, static_cast<long long>(scenarios.size()) *
                  static_cast<long long>(options.jobs));
    std::FILE* file = std::fopen(options.engine_json.c_str(), "a");
    if (file == nullptr) {
      std::fprintf(stderr, "sweep: cannot append to %s\n",
                   options.engine_json.c_str());
      return 1;
    }
    std::fprintf(file,
                 "{\"bench\":\"engine\",\"workload\":\"sweep\","
                 "\"scenarios\":%zu,\"jobs_per_trace\":%d,%s,%s}\n",
                 scenarios.size(), options.jobs, report.json_fields().c_str(),
                 bench_provenance_fields(worker_count).c_str());
    std::fclose(file);
  }
  if (options.audit && audit.violations.load() != 0) return 1;
  return 0;
}
