// Correctness analysis: the opt-in runtime invariant auditor.
//
// chk::Auditor is a subscriber of the lifecycle stream (dmr/observe.hpp):
// set DriverConfig::hooks.auditor and it machine-checks, as the run
// executes, the per-job lifecycle DFA, node conservation, event-queue
// order, federation id ranges and redistribution byte conservation (see
// chk/auditor.hpp).  Violations collect into a structured chk::Report;
// Options::fail_fast throws chk::AuditError at the first one instead.
//
// The static half of the chk:: layer is tools/dmr_lint (build target
// `dmr_lint`, ctest `lint`): the project-rule checker that keeps
// determinism hazards out of src/ at commit time.
#pragma once

#include "chk/auditor.hpp"  // IWYU pragma: export
#include "obs/hooks.hpp"    // IWYU pragma: export
#include "obs/sink.hpp"     // IWYU pragma: export
