// Benchmark-side spans: name, start, end and parent of every timed call
// the benchmark makes into a layer (set-up phases, WorkloadDriver::run,
// each seed, each resize phase).  Kept in memory and written once, at the
// end, as Chrome trace JSON that the repository's trace_validate accepts.
//
// Spans are always timed (the durations feed the metrics); only an
// enabled recorder keeps them.  Recording is a vector push per span, a
// few dozen per measured unit, never per simulated event.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Spans {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;  // < 0 while open
    int parent = -1;
    /// Trace thread: 0 for the benchmark's own calls; rank-side phases
    /// of a resize use 1 (old ranks) and 2 (new ranks).
    int track = 0;
    std::string args;  // extra JSON fields ("\"k\":v,...") or empty
  };

  /// Closes its span on destruction; seconds() reads the elapsed time.
  class Scope {
   public:
    Scope(Spans& spans, std::string name, std::string args = {});
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span now; returns its duration in seconds.  Idempotent.
    double close();

   private:
    Spans& spans_;
    int index_ = -1;
    Clock::time_point start_;
    double seconds_ = -1.0;
  };

  Spans(bool keep, std::string workload, std::uint64_t seed);

  /// Record an already-timed span (e.g. measured on a rank thread) as a
  /// child of the innermost open span.
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              int track = 0, std::string args = {});
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name over the spans recorded since index `from`:
  /// each closed span's duration minus the part its children cover.
  std::map<std::string, double> self_seconds(std::size_t from = 0) const;

  /// Chrome trace JSON ("X" complete events, µs since the recorder was
  /// made; args carry id, parent, workload and seed).
  std::string chrome_json() const;
  /// Write chrome_json() to `path`; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  int open(std::string name, std::string args, Clock::time_point start);
  void close(int index, Clock::time_point end);

  bool keep_;
  std::string workload_;
  std::uint64_t seed_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
