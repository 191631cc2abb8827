#include "rms/accounting.hpp"

#include <sstream>
#include <stdexcept>

#include "util/table.hpp"

namespace dmr::rms {

Accounting::Accounting(Manager& manager)
    : obs::Sink(obs::kStarted | obs::kResized | obs::kFinished) {
  manager.attach(*this);
}

void Accounting::started(const obs::JobFact& f) {
  const Job& job = f.job;
  if (job.spec.internal_resizer) return;
  JobRecord& record = ensure(job);
  record.start_time = job.start_time;
  record.started_nodes = job.allocated();
  record.final_nodes = job.allocated();
  live_[job.id] = {job.start_time, job.allocated()};
}

void Accounting::resized(const obs::JobFact& f, Action action, int from,
                         int to) {
  JobRecord& record = ensure(f.job);
  record.resizes.push_back(ResizeEntry{f.now, action, from, to});
  record.final_nodes = to;
  account_segment(record, f.now);
  live_[f.job.id] = {f.now, to};
}

void Accounting::finished(const obs::JobFact& f) {
  const Job& job = f.job;
  if (job.spec.internal_resizer) return;
  JobRecord& record = ensure(job);
  record.end_time = job.end_time;
  record.final_state = job.state;
  if (live_.count(job.id) != 0) {
    account_segment(record, job.end_time);
    live_.erase(job.id);
  }
}

JobRecord& Accounting::ensure(const Job& job) {
  auto [it, inserted] = records_.try_emplace(job.id);
  JobRecord& record = it->second;
  if (!inserted) return record;
  record.id = job.id;
  record.name = job.spec.name;
  record.submitted_nodes = job.spec.requested_nodes;
  record.submit_time = job.submit_time;
  record.flexible = job.spec.flexible;
  return record;
}

void Accounting::account_segment(JobRecord& record, double until) {
  const auto it = live_.find(record.id);
  if (it == live_.end()) return;
  const auto [since, size] = it->second;
  record.node_seconds += (until - since) * size;
}

const JobRecord& Accounting::record(JobId id) const {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    throw std::out_of_range("Accounting: unknown job " + std::to_string(id));
  }
  return it->second;
}

std::vector<const JobRecord*> Accounting::records() const {
  std::vector<const JobRecord*> out;
  out.reserve(records_.size());
  for (const auto& [id, record] : records_) out.push_back(&record);
  return out;
}

double Accounting::total_node_seconds() const {
  double total = 0.0;
  for (const auto& [id, record] : records_) total += record.node_seconds;
  return total;
}

int Accounting::total_resizes() const {
  int total = 0;
  for (const auto& [id, record] : records_) {
    total += static_cast<int>(record.resizes.size());
  }
  return total;
}

std::string Accounting::render() const {
  util::TableWriter table({"JobID", "Name", "Submit", "Start", "End",
                           "State", "Nodes(sub/start/end)", "Resizes",
                           "NodeSeconds"});
  for (const JobRecord* record : records()) {
    std::ostringstream nodes;
    nodes << record->submitted_nodes << "/" << record->started_nodes << "/"
          << record->final_nodes;
    table.add_row({util::TableWriter::cell(
                       static_cast<long long>(record->id)),
                   record->name,
                   util::TableWriter::cell(record->submit_time, 1),
                   util::TableWriter::cell(record->start_time, 1),
                   util::TableWriter::cell(record->end_time, 1),
                   to_string(record->final_state), nodes.str(),
                   util::TableWriter::cell(
                       static_cast<long long>(record->resizes.size())),
                   util::TableWriter::cell(record->node_seconds, 1)});
  }
  return table.render();
}

std::string Accounting::render_csv() const {
  util::TableWriter table({"job_id", "name", "submit", "start", "end",
                           "state", "submitted_nodes", "started_nodes",
                           "final_nodes", "resizes", "node_seconds"});
  for (const JobRecord* record : records()) {
    table.add_row({util::TableWriter::cell(
                       static_cast<long long>(record->id)),
                   record->name,
                   util::TableWriter::cell(record->submit_time, 3),
                   util::TableWriter::cell(record->start_time, 3),
                   util::TableWriter::cell(record->end_time, 3),
                   to_string(record->final_state),
                   util::TableWriter::cell(
                       static_cast<long long>(record->submitted_nodes)),
                   util::TableWriter::cell(
                       static_cast<long long>(record->started_nodes)),
                   util::TableWriter::cell(
                       static_cast<long long>(record->final_nodes)),
                   util::TableWriter::cell(
                       static_cast<long long>(record->resizes.size())),
                   util::TableWriter::cell(record->node_seconds, 3)});
  }
  return table.render_csv();
}

}  // namespace dmr::rms
