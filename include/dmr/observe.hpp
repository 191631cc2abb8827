// Observability: the lifecycle stream, tracing, self-profiling, wait
// attribution and the shared JSON reader / escaper.
//
// Each layer emits each fact once into its obs::Stream (obs/sink.hpp):
//  - rms::Manager: submitted, started, resized (expansion granted or
//    shrink completed), shrink begun / ended (completed or aborted),
//    finished, blocked{reason, blocker}, schedule pass{wall s, passes,
//    started}, negotiated / applied{wall s}, alloc changed;
//  - fed::Federation: placed{member, queue depth, rejected, wall s};
//  - sim::Engine: dispatched; svc::Service: sampled;
//  - drv::WorkloadDriver / redist::Strategy: redist report.
// Every fact carries its federation member index and simulated time.
//
// A subscriber derives from obs::Sink, names the facts it consumes in the
// Sink constructor and overrides their methods, which are its only entry
// points (unit tests feed hand-built facts through an obs::Stream,
// tests/fact_feed.hpp); attach it with drv::WorkloadDriver::attach
// (every layer of a run) or to one emitter.
// Subscribers are notified in attach order; DriverConfig::hooks attaches
// the auditor, the attributor, the driver's own subscriber (start
// handling, figure step series), the Chrome trace and the profiler, in
// that order.  A stream ORs its subscribers' facts, so an unconsumed fact
// costs one bit test and its payload (blocked diagnostics, wall-clock
// reads) is never built.  The trace (make_trace_sink), obs::Profiler,
// obs::WaitAttributor (the dmr_explain sidecar) and chk::Auditor are the
// shipped subscribers.  Run counters are read where they live:
// drv::WorkloadMetrics, fed::Federation::placements(), svc::Service's
// accepted() / rejected_stale() / queue().
#pragma once

#include "dmr/build_info.hpp"  // IWYU pragma: export
#include "obs/attr.hpp"        // IWYU pragma: export
#include "obs/hooks.hpp"       // IWYU pragma: export
#include "obs/json.hpp"        // IWYU pragma: export
#include "obs/profiler.hpp"    // IWYU pragma: export
#include "obs/sink.hpp"        // IWYU pragma: export
#include "obs/trace.hpp"       // IWYU pragma: export
#include "obs/validate.hpp"    // IWYU pragma: export
