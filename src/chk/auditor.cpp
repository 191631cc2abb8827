#include "chk/auditor.hpp"

#include <algorithm>
#include <sstream>

#include "dmr/build_info.hpp"
#include "fed/federation.hpp"
#include "obs/json.hpp"
#include "redist/strategy.hpp"
#include "rms/cluster.hpp"
#include "rms/manager.hpp"

namespace dmr::chk {

namespace {

std::string format_violation(const Violation& violation) {
  std::ostringstream out;
  out << violation.invariant << ": " << violation.message;
  if (violation.job != ::dmr::kInvalidJob) {
    out << " [job " << violation.job << "]";
  }
  out << " [t=" << violation.sim_time << "]";
  return out.str();
}

}  // namespace

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"report\":\"chk\",\"ok\":" << (ok() ? "true" : "false")
      << ",\"checks\":{\"conservation_audits\":" << conservation_audits
      << ",\"event_dispatches\":" << event_dispatches
      << ",\"federation_audits\":" << federation_audits
      << ",\"lifecycle_edges\":" << lifecycle_edges
      << ",\"placement_checks\":" << placement_checks
      << ",\"redist_reports\":" << redist_reports
      << ",\"total\":" << total_checks() << "}"
      << ",\"violation_count\":"
      << (static_cast<long long>(violations.size()) + dropped_violations)
      << ",\"dropped_violations\":" << dropped_violations << ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i != 0) out << ",";
    out << "{\"invariant\":\"" << obs::json_escape(v.invariant) << "\",\"job\":"
        << v.job << ",\"message\":\"" << obs::json_escape(v.message)
        << "\",\"sim_time\":" << v.sim_time << "}";
  }
  out << "]," << ::dmr::bench_provenance_fields(1) << "}";
  return out.str();
}

std::string Report::describe() const {
  std::ostringstream out;
  if (ok()) {
    out << "chk: ok (" << total_checks() << " checks, 0 violations)";
    return out.str();
  }
  out << "chk: " << (static_cast<long long>(violations.size()) +
                     dropped_violations)
      << " violation(s) in " << total_checks() << " checks";
  for (const Violation& v : violations) out << "\n  " << format_violation(v);
  if (dropped_violations > 0)
    out << "\n  ... and " << dropped_violations << " more (cap reached)";
  return out.str();
}

AuditError::AuditError(const Violation& violation_in)
    : std::logic_error("chk: " + format_violation(violation_in)),
      violation(violation_in) {}

const char* Auditor::phase_name(Phase phase) {
  switch (phase) {
    case Phase::Queued:
      return "queued";
    case Phase::Running:
      return "running";
    case Phase::Reconfiguring:
      return "reconfiguring";
    case Phase::Done:
      return "done";
  }
  return "?";
}

Auditor::Auditor(Options options)
    : obs::Sink(obs::kSubmitted | obs::kStarted | obs::kResized |
                obs::kShrinkBegun | obs::kShrinkEnded | obs::kFinished |
                obs::kSchedulePass | obs::kPlaced | obs::kDispatched |
                obs::kRedistReport | obs::kSampled),
      options_(options) {}

void Auditor::sampled(const obs::SampleFact& f) {
  check_federation(f.federation, f.now);
  for (int c = 0; c < f.federation.cluster_count(); ++c) {
    check_manager(f.federation.manager(c), f.now);
  }
}

void Auditor::violate(const char* invariant, ::dmr::JobId job, double now,
                      std::string message) {
  Violation violation{invariant, std::move(message), job, now};
  if (options_.fail_fast) throw AuditError(violation);
  if (report_.violations.size() < options_.max_violations) {
    report_.violations.push_back(std::move(violation));
  } else {
    ++report_.dropped_violations;
  }
}

void Auditor::lifecycle_edge(const obs::JobFact& f, Phase from, Phase to,
                             const char* edge) {
  const ::dmr::JobId id = f.job.id;
  const double now = f.now;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.lifecycle_edges;
  const auto it = phases_.find(id);
  if (it == phases_.end()) {
    violate("job-lifecycle", id, now,
            std::string(edge) + " for a job never submitted");
    phases_[id] = to;  // adopt so one bad edge reports once, not cascades
    return;
  }
  if (it->second != from) {
    violate("job-lifecycle", id, now,
            std::string("illegal edge ") + phase_name(it->second) + " -> " +
                phase_name(to) + " on " + edge + " (expected " +
                phase_name(from) + ")");
  }
  it->second = to;
}

void Auditor::submitted(const obs::JobFact& f) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.lifecycle_edges;
  const auto [it, inserted] = phases_.emplace(f.job.id, Phase::Queued);
  if (!inserted) {
    violate("job-lifecycle", f.job.id, f.now,
            std::string("resubmitted while ") + phase_name(it->second));
    it->second = Phase::Queued;
  }
}

void Auditor::started(const obs::JobFact& f) {
  lifecycle_edge(f, Phase::Queued, Phase::Running, "start");
}

void Auditor::resized(const obs::JobFact& f, Action action, int, int) {
  if (action != Action::Expand) return;
  lifecycle_edge(f, Phase::Running, Phase::Running, "expand");
  check_manager(f.manager, f.now);
}

void Auditor::shrink_begun(const obs::JobFact& f, int) {
  lifecycle_edge(f, Phase::Running, Phase::Reconfiguring, "shrink-begin");
  check_manager(f.manager, f.now);
}

void Auditor::shrink_ended(const obs::JobFact& f, bool completed) {
  lifecycle_edge(f, Phase::Reconfiguring, Phase::Running, "shrink-end");
  if (completed) check_manager(f.manager, f.now);
}

void Auditor::finished(const obs::JobFact& f) {
  const ::dmr::JobId id = f.job.id;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.lifecycle_edges;
  const auto it = phases_.find(id);
  if (it == phases_.end()) {
    violate("job-lifecycle", id, f.now, "finished but never submitted");
    phases_[id] = Phase::Done;
    return;
  }
  if (it->second == Phase::Done) {
    violate("job-lifecycle", id, f.now, "finished twice");
    return;
  }
  it->second = Phase::Done;
}

namespace {

std::string describe(const obs::EventKey& key) {
  std::ostringstream out;
  out << "(t=" << key.time << ", lane=" << key.lane;
  out << ", origin=" << key.origin;
  out << ", " << (key.late ? "late" : "early") << " root=" << key.root;
  out << ", root_seq=" << key.root_seq << ", seq=" << key.seq << ")";
  return out.str();
}

}  // namespace

void Auditor::dispatched(const obs::DispatchFact& f) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.event_dispatches;
  if (f.key.time < f.clock) {
    std::ostringstream msg;
    msg << "event " << describe(f.key) << " dispatched behind the clock "
        << f.clock;
    violate("event-order", ::dmr::kInvalidJob, f.clock, msg.str());
  }
  // Order is only enforceable between events that coexisted in the
  // queue: this event was already queued when the previous one popped
  // iff its seq is below the watermark recorded at that pop.  (An event
  // scheduled *during* the previous callback may legally land at the
  // same instant in a lower lane — mid-run arrivals do exactly this.)
  if (has_last_event_ && f.key.seq < last_watermark_ &&
      obs::precedes(f.key, last_key_)) {
    std::ostringstream msg;
    msg << "event " << describe(f.key) << " dispatched after "
        << describe(last_key_) << " it should have preceded";
    violate("event-order", ::dmr::kInvalidJob, f.clock, msg.str());
  }
  has_last_event_ = true;
  last_key_ = f.key;
  last_watermark_ = f.watermark;
}

void Auditor::placed(const obs::PlaceFact& f) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.placement_checks;
  const ::dmr::JobId stride = fed::kClusterIdStride;
  const ::dmr::JobId lo = static_cast<::dmr::JobId>(f.member) * stride;
  if (f.job.id <= lo || f.job.id > lo + stride) {
    std::ostringstream msg;
    msg << "placed id on member " << f.member << " outside its range (" << lo
        << ", " << lo + stride << "]";
    violate("fed-id-range", f.job.id, f.now, msg.str());
  }
}

void Auditor::check_federation(const fed::Federation& federation, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.federation_audits;
  const ::dmr::JobId stride = fed::kClusterIdStride;
  for (int c = 0; c < federation.cluster_count(); ++c) {
    const ::dmr::JobId lo = static_cast<::dmr::JobId>(c) * stride;
    for (const rms::Job* job : federation.manager(c).jobs()) {
      if (job->id <= lo || job->id > lo + stride) {
        std::ostringstream msg;
        msg << "member " << c << " (" << federation.cluster_name(c)
            << ") holds an id outside its range (" << lo << ", " << lo + stride
            << "]";
        violate("fed-id-range", job->id, now, msg.str());
        continue;  // cluster_of() on a foreign id blames the wrong member
      }
      const int routed = federation.cluster_of(job->id);
      if (routed != c) {
        std::ostringstream msg;
        msg << "id held by member " << c << " routes to member " << routed
            << " (stride inconsistency)";
        violate("fed-id-range", job->id, now, msg.str());
      }
    }
  }
}

void Auditor::check_manager(const rms::Manager& manager, double now) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.conservation_audits;
  const rms::Cluster& cluster = manager.cluster();

  // Recompute everything from the node table, then compare against the
  // cluster's cached counters and every job's allocation list.
  std::vector<int> idle_per(static_cast<std::size_t>(cluster.partition_count()),
                            0);
  std::map<::dmr::JobId, std::vector<int>> owned;
  int idle = 0;
  int draining = 0;
  for (int id = 0; id < cluster.size(); ++id) {
    const rms::Node& node = cluster.node(id);
    if (node.draining) ++draining;
    if (node.owner == ::dmr::kInvalidJob) {
      ++idle;
      ++idle_per[static_cast<std::size_t>(node.partition)];
      if (node.draining) {
        violate("node-conservation", ::dmr::kInvalidJob, now,
                "idle node " + node.name + " is marked draining");
      }
    } else {
      owned[node.owner].push_back(id);
    }
  }

  if (idle != cluster.idle()) {
    std::ostringstream msg;
    msg << "idle counter " << cluster.idle() << " != " << idle
        << " idle nodes in the table";
    violate("node-conservation", ::dmr::kInvalidJob, now, msg.str());
  }
  if (draining != cluster.draining_count()) {
    std::ostringstream msg;
    msg << "draining counter " << cluster.draining_count() << " != " << draining
        << " draining nodes in the table";
    violate("node-conservation", ::dmr::kInvalidJob, now, msg.str());
  }
  for (int p = 0; p < cluster.partition_count(); ++p) {
    const int total = cluster.partition(p).nodes;
    const int idle_p = idle_per[static_cast<std::size_t>(p)];
    if (idle_p != cluster.idle_in(p) ||
        idle_p + cluster.allocated_in(p) != total) {
      std::ostringstream msg;
      msg << "partition " << cluster.partition(p).name << ": idle " << idle_p
          << " + allocated " << cluster.allocated_in(p) << " != total " << total
          << " (cached idle " << cluster.idle_in(p) << ")";
      violate("node-conservation", ::dmr::kInvalidJob, now, msg.str());
    }
  }

  // Each job's node list must match the owner table exactly; a node in
  // two allocations shows up as a list/owner mismatch on one of them.
  for (const auto& [id, nodes] : owned) {
    try {
      const rms::Job& job = manager.job(id);
      if (!job.running()) {
        std::ostringstream msg;
        msg << "owns " << nodes.size() << " node(s) while "
            << (job.pending() ? "pending" : "finished");
        violate("node-conservation", id, now, msg.str());
      }
      std::vector<int> declared = job.nodes;
      std::sort(declared.begin(), declared.end());
      if (declared != nodes) {
        std::ostringstream msg;
        msg << "job's node list has " << declared.size()
            << " node(s) but the owner table gives it " << nodes.size();
        violate("node-conservation", id, now, msg.str());
      }
    } catch (const std::exception&) {
      violate("node-conservation", id, now,
              "owner table names a job the manager does not know");
    }
  }
}

void Auditor::redist_report(const obs::RedistFact& f) {
  const redist::Report& report = f.report;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++report_.redist_reports;
  const auto fail = [&](const std::string& message) {
    violate("byte-conservation", ::dmr::kInvalidJob, f.now, message);
  };
  if (report.bytes_total != f.registered_bytes) {
    std::ostringstream msg;
    msg << "report accounts for " << report.bytes_total << " bytes but "
        << f.registered_bytes << " are registered";
    fail(msg.str());
  }
  // A store-routed report may legitimately move every byte twice (write
  // plus read-back); the direct strategies never exceed the total.
  const std::size_t ceiling =
      report.via_checkpoint ? 2 * report.bytes_total : report.bytes_total;
  if (report.bytes_moved > ceiling) {
    std::ostringstream msg;
    msg << "moved " << report.bytes_moved << " bytes of a "
        << report.bytes_total << "-byte total"
        << (report.via_checkpoint ? " (checkpoint ceiling 2x)" : "");
    fail(msg.str());
  }
  if (report.bytes_moved > 0 && report.transfers <= 0) {
    std::ostringstream msg;
    msg << "moved " << report.bytes_moved << " bytes in " << report.transfers
        << " transfers";
    fail(msg.str());
  }
  if (report.transfers < 0) fail("negative transfer count");
  if (report.lanes < 1) fail("lanes < 1");
  if (!(report.seconds >= 0.0)) fail("negative or NaN duration");
}

Report Auditor::report() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return report_;
}

void Auditor::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  report_ = Report{};
  phases_.clear();
  has_last_event_ = false;
  last_key_ = obs::EventKey{};
  last_watermark_ = 0;
}

}  // namespace dmr::chk
