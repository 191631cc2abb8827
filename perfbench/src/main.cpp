// dmr_perfbench — the repository benchmark program.
//
//   dmr_perfbench --workload W --seed N --seconds S --trace 0|1
//                 [--golden-seed N] [--trace-out FILE] [--tiny]
//                 [--inject bad-golden|corrupt-recv]
//
// Workloads: fig10, archive_hiload, fed_checked (README.md says why each
// exists).  The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full record (host fingerprint, workload detail, the same metrics) that
// compare.py reads.  --trace 0 reports the end-to-end metrics, --trace 1
// the per-layer ones, and writes the run's spans as Chrome trace JSON.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "dmr/observe.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

const MetricTable& end_to_end_metrics() {
  static const MetricTable kTable = {
      {"ops_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kTable;
}

const MetricTable& per_layer_metrics() {
  static const MetricTable kTable = {
      {"error_rate", "ratio"},
      {"run.wall_s", "s"},
      {"sim.events", "count"},
      {"sim.events_per_job", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.hold_ns_per_event", "ns"},
      {"sim.self_s", "s"},
      {"sim.share", "ratio"},
      {"drv.engine_s", "s"},
      {"drv.self_s", "s"},
      {"drv.share", "ratio"},
      {"drv.plan_s", "s"},
      {"drv.add_s", "s"},
      {"drv.sim_makespan_s", "s"},
      {"drv.sim_wait_mean_s", "s"},
      {"drv.sim_utilization", "ratio"},
      {"rms.schedule_requests", "count"},
      {"rms.schedule_passes", "count"},
      {"rms.pass_ratio", "ratio"},
      {"rms.schedule_s", "s"},
      {"rms.schedule_us_per_pass", "us"},
      {"rms.schedule_share", "ratio"},
      {"rms.checks", "count"},
      {"rms.useful_check_ratio", "ratio"},
      {"rms.expands", "count"},
      {"rms.shrinks", "count"},
      {"rms.aborted_expands", "count"},
      {"fed.placements", "count"},
      {"fed.placement_us_per_job", "us"},
      {"fed.share", "ratio"},
      {"chk.checks", "count"},
      {"chk.violations", "count"},
      {"chk.cost_s", "s"},
      {"attr.cost_s", "s"},
      {"chk.cost_ratio", "ratio"},
      {"hooks.share", "ratio"},
      {"trace.overhead_pct", "%"},
      {"wl.generate_s", "s"},
      {"wl.swf_write_s", "s"},
      {"wl.swf_parse_s", "s"},
      {"wl.swf_parse_mb_per_s", "MB/s"},
      {"wl.shape_s", "s"},
      {"wl.swf_bytes", "bytes"},
      {"redist.plan_s", "s"},
      {"redist.send_ms", "ms"},
      {"redist.recv_ms", "ms"},
      {"smpi.spawn_ms", "ms"},
      {"redist.transfers_per_resize", "count"},
      {"redist.bytes_per_resize", "bytes"},
      {"redist.mb_per_s", "MB/s"},
      {"redist.mb_per_s.p2p", "MB/s"},
      {"redist.mb_per_s.pipelined", "MB/s"},
      {"redist.mb_per_s.checkpoint", "MB/s"},
      {"redist.resize_ms_p50", "ms"},
      {"redist.resize_ms_p90", "ms"},
      {"redist.model_ratio", "ratio"},
  };
  return kTable;
}

Metrics zero_metrics(const MetricTable& table) {
  Metrics metrics;
  for (const auto& [name, unit] : table) metrics[name] = Metric{0.0, unit};
  return metrics;
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

/// {"name":{"value":v,"unit":"u"},...} in table order.
std::string metrics_json(const Metrics& metrics, const MetricTable& table) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, unit] : table) {
    const auto it = metrics.find(name);
    const double value = it != metrics.end() ? it->second.value : 0.0;
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(value) +
           ", \"unit\": " + json_string(unit) + "}";
  }
  return out + "}";
}

std::string object_json(const std::map<std::string, std::string>& fields) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out += ", ";
    first = false;
    out += json_string(key) + ": " + json_string(value);
  }
  return out + "}";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload W --seed N --seconds S --trace 0|1 "
               "[--golden-seed N] [--trace-out FILE] [--tiny] "
               "[--inject bad-golden|corrupt-recv]\n",
               argv0);
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool seconds_given = false, trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t value = 0;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value && parse_u64(argv[i + 1], &value)) {
      options.seed = value;
      ++i;
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      options.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(options.seconds > 0.0)) return usage(argv[0]);
      seconds_given = true;
    } else if (arg == "--trace" && has_value &&
               (std::strcmp(argv[i + 1], "0") == 0 ||
                std::strcmp(argv[i + 1], "1") == 0)) {
      options.trace = argv[++i][0] == '1';
      trace_given = true;
    } else if (arg == "--golden-seed" && has_value &&
               parse_u64(argv[i + 1], &value)) {
      options.golden_seed = value;
      ++i;
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--inject" && has_value) {
      options.inject = argv[++i];
      if (options.inject != "bad-golden" && options.inject != "corrupt-recv") {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }

  if (!is_simulation_workload(options.workload) || !seconds_given ||
      !trace_given) {
    return usage(argv[0]);
  }

  Spans spans(options.trace, options.workload, options.seed);
  Outcome outcome;
  try {
    outcome = run_simulation(options, spans);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }

  const MetricTable& table =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  if (options.trace) {
    outcome.metrics["error_rate"].value =
        outcome.attempted > 0
            ? static_cast<double>(outcome.failed) / outcome.attempted
            : 0.0;
  }
  for (const auto& [name, unit] : table) {
    const auto it = outcome.metrics.find(name);
    if (it == outcome.metrics.end() || !std::isfinite(it->second.value)) {
      outcome.fail(0, "metric " + name + " was not measured");
      outcome.metrics[name] = Metric{0.0, unit};
    }
  }

  if (options.trace) {
    const std::string path =
        options.trace_out.empty()
            ? ".bench_build/trace-" + options.workload + "-" +
                  std::to_string(options.seed) + ".json"
            : options.trace_out;
    if (!spans.write(path)) {
      outcome.fail(0, "cannot write span file " + path);
    } else {
      const dmr::obs::TraceValidation validation =
          dmr::obs::validate_trace_file(path);
      outcome.detail["trace_file"] = path;
      outcome.detail["trace_validation"] = validation.describe();
      if (!validation.ok) {
        std::string why = "span file " + path + " fails validation";
        for (const std::string& error : validation.errors) why += "; " + error;
        outcome.fail(0, why);
      }
    }
  }

  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "perfbench: FAIL: %s\n", problem.c_str());
  }
  const bool correct = outcome.problems.empty() && outcome.failed == 0 &&
                       outcome.attempted > 0;
  const std::string metrics = metrics_json(outcome.metrics, table);
  std::map<std::string, std::string> run_fields = outcome.detail;
  run_fields["workload"] = options.workload;
  run_fields["seed"] = std::to_string(options.seed);
  run_fields["seconds"] = json_number(options.seconds);
  run_fields["trace"] = std::to_string(options.trace ? 1 : 0);
  std::printf("{\"perfbench_record\": {\"host\": %s, \"run\": %s, "
              "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}}\n",
              object_json(host_fingerprint()).c_str(),
              object_json(run_fields).c_str(), correct ? "true" : "false",
              outcome.attempted, outcome.failed, metrics.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", outcome.attempted, outcome.failed,
              metrics.c_str());
  return 0;
}
