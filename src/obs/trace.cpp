#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "redist/strategy.hpp"
#include "rms/manager.hpp"

namespace dmr::obs {

namespace {

constexpr double kUsPerSecond = 1.0e6;

void write_number(std::ostream& out, double value) {
  // Trace timestamps/durations/values: plain decimal, trimmed.
  std::ostringstream text;
  text.precision(3);
  text << std::fixed << value;
  std::string rendered = text.str();
  const std::size_t dot = rendered.find('.');
  std::size_t last = rendered.find_last_not_of('0');
  if (last == dot) --last;
  out << rendered.substr(0, last + 1);
}

}  // namespace

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void TraceRecorder::push(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  ring_.push_back(std::move(event));
}

void TraceRecorder::set_process_name(std::uint32_t pid, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  process_names_[pid] = std::move(name);
}

void TraceRecorder::set_thread_name(std::uint32_t pid, std::uint32_t tid,
                                    std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[{pid, tid}] = std::move(name);
}

void TraceRecorder::complete(std::uint32_t pid, std::uint32_t tid,
                             double ts_seconds, double wall_dur_us,
                             std::string name, std::string args) {
  TraceEvent event;
  event.ph = 'X';
  event.pid = pid;
  event.tid = tid;
  event.ts_us = ts_seconds * kUsPerSecond;
  event.dur_us = wall_dur_us < 0.0 ? 0.0 : wall_dur_us;
  event.name = std::move(name);
  event.args = std::move(args);
  push(std::move(event));
}

void TraceRecorder::instant(std::uint32_t pid, std::uint32_t tid,
                            double ts_seconds, std::string name,
                            std::string args) {
  TraceEvent event;
  event.ph = 'i';
  event.pid = pid;
  event.tid = tid;
  event.ts_us = ts_seconds * kUsPerSecond;
  event.name = std::move(name);
  event.args = std::move(args);
  push(std::move(event));
}

void TraceRecorder::async_begin(std::uint32_t pid, double ts_seconds,
                                std::string cat, std::uint64_t id,
                                std::string name, std::string args) {
  TraceEvent event;
  event.ph = 'b';
  event.pid = pid;
  event.id = id;
  event.ts_us = ts_seconds * kUsPerSecond;
  event.cat = std::move(cat);
  event.name = std::move(name);
  event.args = std::move(args);
  push(std::move(event));
}

void TraceRecorder::async_instant(std::uint32_t pid, double ts_seconds,
                                  std::string cat, std::uint64_t id,
                                  std::string name, std::string args) {
  TraceEvent event;
  event.ph = 'n';
  event.pid = pid;
  event.id = id;
  event.ts_us = ts_seconds * kUsPerSecond;
  event.cat = std::move(cat);
  event.name = std::move(name);
  event.args = std::move(args);
  push(std::move(event));
}

void TraceRecorder::async_end(std::uint32_t pid, double ts_seconds,
                              std::string cat, std::uint64_t id,
                              std::string name) {
  TraceEvent event;
  event.ph = 'e';
  event.pid = pid;
  event.id = id;
  event.ts_us = ts_seconds * kUsPerSecond;
  event.cat = std::move(cat);
  event.name = std::move(name);
  push(std::move(event));
}

void TraceRecorder::counter(std::uint32_t pid, double ts_seconds,
                            std::string name, double value) {
  TraceEvent event;
  event.ph = 'C';
  event.pid = pid;
  event.ts_us = ts_seconds * kUsPerSecond;
  event.name = std::move(name);
  event.value = value;
  push(std::move(event));
}

std::size_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceRecorder::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
      << dropped_ << "},\"traceEvents\":[";
  bool first = true;
  const auto separator = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& [pid, name] : process_names_) {
    separator();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  for (const auto& [track, name] : thread_names_) {
    separator();
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << track.first
        << ",\"tid\":" << track.second << ",\"args\":{\"name\":\""
        << json_escape(name) << "\"}}";
  }
  double last_ts = 0.0;
  for (const TraceEvent& event : ring_) {
    separator();
    out << "{\"ph\":\"" << event.ph << "\",\"ts\":";
    write_number(out, event.ts_us);
    out << ",\"pid\":" << event.pid << ",\"tid\":" << event.tid;
    out << ",\"name\":\"" << json_escape(event.name) << "\"";
    if (event.ph == 'X') {
      out << ",\"dur\":";
      write_number(out, event.dur_us);
    }
    if (event.ph == 'b' || event.ph == 'n' || event.ph == 'e') {
      out << ",\"cat\":\"" << json_escape(event.cat) << "\",\"id\":\"0x"
          << std::hex << event.id << std::dec << "\"";
    }
    if (event.ph == 'i') out << ",\"s\":\"t\"";
    if (event.ph == 'C') {
      out << ",\"args\":{\"value\":";
      write_number(out, event.value);
      out << "}";
    } else if (!event.args.empty()) {
      out << ",\"args\":{" << event.args << "}";
    }
    out << "}";
    last_ts = std::max(last_ts, event.ts_us);
  }
  if (dropped_ > 0) {
    // The loss is on the timeline itself, not only in otherData: a
    // truncated trace must read as truncated.
    separator();
    out << "{\"ph\":\"i\",\"ts\":";
    write_number(out, last_ts);
    out << ",\"pid\":0,\"tid\":0,\"name\":\"trace ring overflow: " << dropped_
        << " events dropped\",\"s\":\"g\"}";
  }
  out << "]}\n";
}

std::string TraceRecorder::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

void TraceRecorder::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("TraceRecorder: cannot write " + path);
  }
  write_json(out);
}

// --- the Chrome-trace subscriber --------------------------------------------

namespace {

std::uint32_t pid_of(int member) {
  return static_cast<std::uint32_t>(member + 1);
}

std::uint64_t async_id(JobId id) { return static_cast<std::uint64_t>(id); }

std::string resize_args(int from, int to) {
  return "\"from\":" + std::to_string(from) + ",\"to\":" + std::to_string(to);
}

std::string phase_args(const JobFact& f, Action action) {
  return "\"job\":" + std::to_string(f.job.id) + ",\"action\":\"" +
         to_string(action) + "\"";
}

class TraceSink final : public Sink {
 public:
  TraceSink(TraceRecorder& trace, const std::vector<std::string>& members)
      : Sink(kSubmitted | kStarted | kResized | kShrinkBegun | kShrinkEnded |
             kFinished | kSchedulePass | kNegotiated | kApplied | kPlaced |
             kAllocChanged | kRedistReport | kSampled),
        trace_(trace),
        queue_depth_(members.size(), 0),
        allocated_(members.size(), 0),
        running_(members.size(), 0) {
    trace_.set_process_name(0, "federation");
    trace_.set_thread_name(0, 0, "placement");
    for (std::size_t c = 0; c < members.size(); ++c) {
      const std::uint32_t pid = pid_of(static_cast<int>(c));
      trace_.set_process_name(pid, "cluster " + members[c]);
      trace_.set_thread_name(pid, 0, "schedule");
      trace_.set_thread_name(pid, 1, "reconfig");
    }
  }

  void submitted(const JobFact& f) override {
    if (f.job.spec.internal_resizer) return;
    const std::uint32_t pid = pid_of(f.member);
    trace_.async_begin(
        pid, f.now, "job", async_id(f.job.id), f.job.spec.name,
        "\"requested_nodes\":" + std::to_string(f.job.requested_nodes));
    trace_.counter(pid, f.now, "queue depth", ++queue_depth_[f.member]);
  }

  void started(const JobFact& f) override {
    if (f.job.spec.internal_resizer) return;
    --queue_depth_[f.member];
    trace_.async_instant(pid_of(f.member), f.now, "job", async_id(f.job.id),
                         "start",
                         "\"nodes\":" + std::to_string(f.job.allocated()));
  }

  void resized(const JobFact& f, Action action, int from, int to) override {
    trace_.async_instant(pid_of(f.member), f.now, "job", async_id(f.job.id),
                         to_string(action), resize_args(from, to));
  }

  void shrink_begun(const JobFact& f, int draining) override {
    trace_.async_begin(pid_of(f.member), f.now, "reconfig", async_id(f.job.id),
                       "drain", "\"nodes\":" + std::to_string(draining));
    open_drains_.insert(f.job.id);
  }

  void shrink_ended(const JobFact& f, bool completed) override {
    if (open_drains_.erase(f.job.id) == 0) return;
    const std::uint32_t pid = pid_of(f.member);
    if (!completed) {
      trace_.async_instant(pid, f.now, "reconfig", async_id(f.job.id),
                           "drain aborted");
    }
    trace_.async_end(pid, f.now, "reconfig", async_id(f.job.id), "drain");
  }

  void finished(const JobFact& f) override {
    const std::uint32_t pid = pid_of(f.member);
    if (open_drains_.erase(f.job.id) != 0) {
      // A job can end while still draining; close its drain span so the
      // trace stays balanced.
      trace_.async_end(pid, f.now, "reconfig", async_id(f.job.id), "drain");
    }
    if (f.job.spec.internal_resizer) return;
    if (f.job.start_time < 0.0) --queue_depth_[f.member];  // never started
    trace_.counter(0, f.now, "completed jobs",
                   static_cast<double>(++completed_));
    trace_.async_end(pid, f.now, "job", async_id(f.job.id));
  }

  void schedule_pass(const PassFact& f) override {
    const std::uint32_t pid = pid_of(f.member);
    trace_.complete(pid, 0, f.now, f.wall_seconds * kUsPerSecond, "schedule",
                    "\"passes\":" + std::to_string(f.passes) +
                        ",\"started\":" + std::to_string(f.started));
    trace_.counter(pid, f.now, "queue depth", queue_depth_[f.member]);
  }

  void negotiated(const JobFact& f, Action action, double wall_s) override {
    trace_.complete(pid_of(f.member), 1, f.now, wall_s * kUsPerSecond,
                    "negotiate", phase_args(f, action));
  }

  void applied(const JobFact& f, Action action, bool aborted,
               double wall_s) override {
    const std::uint32_t pid = pid_of(f.member);
    trace_.complete(pid, 1, f.now, wall_s * kUsPerSecond, "apply",
                    phase_args(f, action) + ",\"aborted\":" +
                        (aborted ? "true" : "false"));
    const rms::Manager::Counters& counters = f.manager.counters();
    trace_.counter(pid, f.now, "reconfigs",
                   static_cast<double>(counters.expands + counters.shrinks));
  }

  void placed(const PlaceFact& f) override {
    trace_.instant(
        0, 0, f.now, "place " + f.job.spec.name,
        "\"cluster\":\"" + json_escape(f.cluster) +
            "\",\"policy\":\"" + json_escape(f.policy) +
            "\",\"nodes\":" + std::to_string(f.job.spec.requested_nodes));
    trace_.counter(0, f.now, "placements", static_cast<double>(++placements_));
  }

  void alloc_changed(const AllocFact& f) override {
    allocated_[f.member] = f.allocated;
    running_[f.member] = f.running;
    int allocated = 0;
    int running = 0;
    for (std::size_t m = 0; m < allocated_.size(); ++m) {
      allocated += allocated_[m];
      running += running_[m];
    }
    trace_.counter(0, f.now, "allocated nodes", allocated);
    trace_.counter(0, f.now, "running jobs", running);
  }

  void redist_report(const RedistFact& f) override {
    // A modeled redistribution occupies [now, now + seconds] of simulated
    // time; both ends are known, so the span is recorded in one go.
    if (!f.simulated || !(f.report.seconds > 0.0)) return;
    const std::uint32_t pid = pid_of(f.member);
    trace_.async_begin(pid, f.now, "redist", async_id(f.job),
                       f.action == Action::Expand ? "redistribute (expand)"
                                                  : "redistribute (shrink)",
                       "\"bytes\":" + std::to_string(f.report.bytes_moved) +
                           "," + resize_args(f.from, f.to));
    trace_.async_end(pid, f.now + f.report.seconds, "redist", async_id(f.job));
  }

  void sampled(const SampleFact& f) override {
    trace_.counter(0, f.now, "ring depth", f.ring_depth);
    trace_.counter(0, f.now, "utilization", f.utilization);
  }

 private:
  TraceRecorder& trace_;
  /// Per member: pending user jobs and the last allocation (allocated
  /// nodes, running jobs).
  std::vector<int> queue_depth_;
  std::vector<int> allocated_;
  std::vector<int> running_;
  long long placements_ = 0;
  long long completed_ = 0;
  /// Jobs with an open drain span: a shrink's end closes only those.
  std::set<JobId> open_drains_;
};

}  // namespace

std::unique_ptr<Sink> make_trace_sink(TraceRecorder& trace,
                                      const std::vector<std::string>& members) {
  return std::make_unique<TraceSink>(trace, members);
}

}  // namespace dmr::obs
