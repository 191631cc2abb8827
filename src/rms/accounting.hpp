// Job accounting: an sacct-style record of everything that happened to a
// workload — submissions, starts, resizes, completions — with node-hour
// integration per job.
//
// Attach an Accounting to a Manager before submitting (it subscribes to
// the manager's user-job facts); afterwards render the ledger as a table
// or CSV, or query per-job records.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "rms/manager.hpp"

namespace dmr::rms {

/// One resize entry in a job's history.
struct ResizeEntry {
  double time = 0.0;
  Action action = Action::None;
  int old_size = 0;
  int new_size = 0;
};

/// Accumulated per-job accounting record.
struct JobRecord {
  JobId id = kInvalidJob;
  std::string name;
  int submitted_nodes = 0;
  int started_nodes = 0;
  int final_nodes = 0;
  double submit_time = -1.0;
  double start_time = -1.0;
  double end_time = -1.0;
  JobState final_state = JobState::Pending;
  bool flexible = false;
  std::vector<ResizeEntry> resizes;
  /// Integral of allocated nodes over the job's runtime (node-seconds).
  double node_seconds = 0.0;
};

class Accounting : private obs::Sink {
 public:
  /// Subscribes to the manager's lifecycle facts.  The Accounting must
  /// outlive the manager's use (the manager holds a pointer to it).
  explicit Accounting(Manager& manager);

  bool has(JobId id) const { return records_.count(id) != 0; }
  const JobRecord& record(JobId id) const;
  /// All records in job-id order.
  std::vector<const JobRecord*> records() const;

  /// Workload-level aggregates.
  double total_node_seconds() const;
  int total_resizes() const;

  /// Render an sacct-like table:
  /// JobID Name Submit Start End State Nodes Resizes NodeSeconds.
  std::string render() const;
  std::string render_csv() const;

 private:
  void started(const obs::JobFact& f) override;
  void resized(const obs::JobFact& f, Action action, int from, int to) override;
  void finished(const obs::JobFact& f) override;

  /// The job's record, created from its submission on first use.
  JobRecord& ensure(const Job& job);
  void account_segment(JobRecord& record, double until);

  std::map<JobId, JobRecord> records_;
  // Last (time, size) at which each running job's allocation changed,
  // for node-second integration.
  std::map<JobId, std::pair<double, int>> live_;
};

}  // namespace dmr::rms
