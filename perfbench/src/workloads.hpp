// The benchmark's workloads and the metric tables they report into.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "spans.hpp"

namespace perfbench {

/// (name, unit) of every metric, in BENCHMARK.json order.  Every run
/// prints all of its table: a metric a workload does not exercise reads 0.
using MetricTable = std::vector<std::pair<std::string, std::string>>;
const MetricTable& end_to_end_metrics();
const MetricTable& per_layer_metrics();

/// Zero-valued copy of `table` (the workload fills what it measures).
Metrics zero_metrics(const MetricTable& table);

bool is_simulation_workload(const std::string& name);

/// fig10, archive_hiload or fed_checked.
Outcome run_simulation(const Options& options, Spans& spans);

/// The real-mode rung of fig10's traced run: resize cycles for about
/// `seconds`, their redist / smpi per-layer metrics written into
/// `layers`, and their failures counted into `outcome`.
void redistribute_rung(const Options& options, double seconds, Spans& spans,
                       Outcome& outcome, Metrics& layers);

/// The L0 rung: a bare sim::Engine hold model with no-op callbacks.
/// Schedules `initial` events up front at increasing times (the driver's
/// arrivals); each starts a chain whose every dispatch schedules one more
/// event (a job's steps) until exactly `events` have been scheduled.
/// Returns the number dispatched and stores the wall seconds of the
/// dispatch loop in `seconds`.
std::uint64_t hold_model(std::uint64_t events, std::size_t initial,
                         std::uint64_t seed, double* seconds);

}  // namespace perfbench
