// Workload-scale simulation: the discrete-event half of the framework.
//
// Pulls in the virtual-time engine, the workload driver that runs whole
// job mixes through the resource manager (the machinery behind
// Figs. 3-12 and Table II), the application performance models of
// Table I, the workload sources (Feitelson generator, SWF trace
// ingester) and the sacct-style accounting ledger.
#pragma once

#include "apps/models.hpp"         // IWYU pragma: export
#include "dmr/federation.hpp"      // IWYU pragma: export
#include "dmr/manager.hpp"         // IWYU pragma: export
#include "dmr/workload.hpp"        // IWYU pragma: export
#include "drv/cost_model.hpp"      // IWYU pragma: export
#include "drv/metrics.hpp"         // IWYU pragma: export
#include "drv/workload_driver.hpp"  // IWYU pragma: export
#include "rms/accounting.hpp"      // IWYU pragma: export
#include "sim/engine.hpp"          // IWYU pragma: export
#include "sim/series.hpp"          // IWYU pragma: export

namespace dmr {

using drv::CostModel;
using drv::DriverConfig;
using drv::JobPlan;
using drv::WorkloadDriver;
using drv::WorkloadMetrics;

}  // namespace dmr
