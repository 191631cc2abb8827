#include "wl/swf.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace dmr::wl {

namespace {

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  std::string field;
  while (in >> field) fields.push_back(std::move(field));
  return fields;
}

/// SWF field names, for diagnostics (1-based positions).
constexpr const char* kFieldNames[18] = {
    "job_number",     "submit",          "wait",
    "run_time",       "used_procs",      "avg_cpu_seconds",
    "used_memory",    "requested_procs", "requested_time",
    "requested_memory", "status",        "user_id",
    "group_id",       "executable",      "queue",
    "partition",      "preceding_job",   "think_time"};

/// Largest magnitude a field may hold: past 2^53 a double no longer
/// represents every whole second or count, and the replay's time
/// arithmetic loses its resolution long before it overflows.
constexpr double kMaxMagnitude = 9007199254740992.0;

SwfParseError field_error(int line, int field, const std::string& token,
                          const char* problem) {
  return SwfParseError(line, "field " + std::to_string(field + 1) + " (" +
                                 kFieldNames[field] + ") " + problem +
                                 ": \"" + token + "\"");
}

double parse_number(const std::string& token, int line, int field) {
  const char* begin = token.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    throw field_error(line, field, token, "is not numeric");
  }
  if (!std::isfinite(value) || std::abs(value) > kMaxMagnitude) {
    throw field_error(line, field, token, "is out of range");
  }
  return value;
}

/// A whole-number field, rounded and range-checked against `Int`.
template <typename Int>
Int parse_integer(const std::string& token, int line, int field) {
  const double value = std::round(parse_number(token, line, field));
  if (value < static_cast<double>(std::numeric_limits<Int>::min()) ||
      value > static_cast<double>(std::numeric_limits<Int>::max())) {
    throw field_error(line, field, token, "is out of range");
  }
  return static_cast<Int>(value);
}

/// `; Key: Value` (or `;Key: Value`); returns false for free comments.
bool parse_directive(const std::string& comment, std::string* key,
                     std::string* value) {
  const std::size_t colon = comment.find(':');
  if (colon == std::string::npos) return false;
  *key = trim(comment.substr(0, colon));
  *value = trim(comment.substr(colon + 1));
  if (key->empty() || value->empty()) return false;
  // Directive keys are single words (MaxNodes, UnixStartTime, ...).
  for (const char c : *key) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) return false;
  }
  return true;
}

std::string format_number(double value) {
  char buffer[48];
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  }
  return buffer;
}

}  // namespace

int SwfHeader::procs_per_node() const {
  if (max_procs > 0 && max_nodes > 0) return std::max(1, max_procs / max_nodes);
  return 1;
}

int SwfHeader::machine_nodes() const {
  if (max_nodes > 0) return max_nodes;
  if (max_procs > 0) return max_procs;
  return 0;
}

SwfParseError::SwfParseError(int line, const std::string& what)
    : std::runtime_error("swf parse error at line " + std::to_string(line) +
                         ": " + what),
      line_(line) {}

SwfTrace parse_swf(std::istream& in) {
  SwfTrace trace;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string body = trim(line);
    if (body.empty()) continue;
    if (body.front() == ';') {
      ++trace.header.comment_lines;
      std::string key;
      std::string value;
      if (parse_directive(trim(body.substr(1)), &key, &value)) {
        trace.header.directives[key] = value;
        // Directive values may carry trailing prose ("128 nodes"); take
        // the leading number and ignore the rest.
        if (key == "MaxNodes") {
          trace.header.max_nodes = std::atoi(value.c_str());
        } else if (key == "MaxProcs") {
          trace.header.max_procs = std::atoi(value.c_str());
        } else if (key == "UnixStartTime") {
          trace.header.unix_start_time = std::atoll(value.c_str());
        }
      }
      continue;
    }
    const std::vector<std::string> fields = split_fields(body);
    if (fields.size() < 18) {
      throw SwfParseError(line_no, "expected 18 fields, got " +
                                       std::to_string(fields.size()));
    }
    TraceJob job;
    job.line = line_no;
    job.job_number = parse_integer<long long>(fields[0], line_no, 0);
    job.submit = parse_number(fields[1], line_no, 1);
    job.wait = parse_number(fields[2], line_no, 2);
    job.run_time = parse_number(fields[3], line_no, 3);
    job.used_procs = parse_integer<int>(fields[4], line_no, 4);
    job.avg_cpu_seconds = parse_number(fields[5], line_no, 5);
    job.used_memory_kb = parse_number(fields[6], line_no, 6);
    job.requested_procs = parse_integer<int>(fields[7], line_no, 7);
    job.requested_time = parse_number(fields[8], line_no, 8);
    job.requested_memory_kb = parse_number(fields[9], line_no, 9);
    job.status = parse_integer<int>(fields[10], line_no, 10);
    job.user_id = parse_integer<int>(fields[11], line_no, 11);
    job.group_id = parse_integer<int>(fields[12], line_no, 12);
    job.executable = parse_integer<int>(fields[13], line_no, 13);
    job.queue = parse_integer<int>(fields[14], line_no, 14);
    job.partition = parse_integer<int>(fields[15], line_no, 15);
    job.preceding_job = parse_integer<long long>(fields[16], line_no, 16);
    job.think_time = parse_number(fields[17], line_no, 17);
    trace.jobs.push_back(job);
  }
  return trace;
}

SwfTrace parse_swf_text(const std::string& text) {
  std::istringstream in(text);
  return parse_swf(in);
}

SwfTrace parse_swf_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("swf: cannot open " + path);
  }
  return parse_swf(in);
}

void write_swf(std::ostream& out, const SwfTrace& trace) {
  const SwfHeader& header = trace.header;
  if (header.unix_start_time != 0) {
    out << "; UnixStartTime: " << header.unix_start_time << "\n";
  }
  if (header.max_nodes > 0) out << "; MaxNodes: " << header.max_nodes << "\n";
  if (header.max_procs > 0) out << "; MaxProcs: " << header.max_procs << "\n";
  for (const auto& [key, value] : header.directives) {
    if (key == "MaxNodes" || key == "MaxProcs" || key == "UnixStartTime") {
      continue;
    }
    out << "; " << key << ": " << value << "\n";
  }
  for (const TraceJob& job : trace.jobs) {
    out << job.job_number << ' ' << format_number(job.submit) << ' '
        << format_number(job.wait) << ' ' << format_number(job.run_time) << ' '
        << job.used_procs << ' ' << format_number(job.avg_cpu_seconds) << ' '
        << format_number(job.used_memory_kb) << ' ' << job.requested_procs
        << ' ' << format_number(job.requested_time) << ' '
        << format_number(job.requested_memory_kb) << ' ' << job.status << ' '
        << job.user_id << ' ' << job.group_id << ' ' << job.executable << ' '
        << job.queue << ' ' << job.partition << ' ' << job.preceding_job << ' '
        << format_number(job.think_time) << "\n";
  }
}

std::string to_swf_text(const SwfTrace& trace) {
  std::ostringstream out;
  write_swf(out, trace);
  return out.str();
}

SwfTrace trace_from_feitelson(const std::vector<SyntheticJob>& jobs,
                              int machine_nodes) {
  SwfTrace trace;
  int max_size = std::max(machine_nodes, 1);
  for (const SyntheticJob& job : jobs) max_size = std::max(max_size, job.size);
  trace.header.max_nodes = max_size;
  trace.header.max_procs = max_size;  // 1 processor per node
  trace.header.directives["Note"] = "synthesized from the Feitelson model";
  trace.jobs.reserve(jobs.size());
  for (const SyntheticJob& job : jobs) {
    TraceJob record;
    record.job_number = job.index + 1;
    record.submit = job.arrival;
    record.wait = 0.0;
    record.run_time = job.runtime;
    record.used_procs = job.size;
    record.requested_procs = job.size;
    record.requested_time = job.runtime;
    record.status = kSwfStatusCompleted;
    trace.jobs.push_back(record);
  }
  return trace;
}

std::string ShapeReport::describe() const {
  std::ostringstream out;
  out << "parsed " << parsed << ", kept " << kept << ", dropped " << dropped()
      << " (status " << dropped_status << ", zero-runtime "
      << dropped_zero_runtime << ", no-size " << dropped_no_size
      << ", oversize " << dropped_oversize << ", window " << dropped_window
      << ", cap " << dropped_cap << "), clamped " << clamped_oversize;
  return out.str();
}

Workload TraceShaper::shape(const SwfTrace& trace, ShapeReport* report) const {
  ShapeReport local;
  ShapeReport& counts = report != nullptr ? *report : local;
  counts = ShapeReport{};
  counts.parsed = static_cast<int>(trace.jobs.size());

  // Machine size: the header's word, or the widest record when the
  // header is silent.
  const int ppn = trace.header.procs_per_node();
  int machine = trace.header.machine_nodes();
  if (machine <= 0) {
    for (const TraceJob& job : trace.jobs) {
      const int procs = std::max(job.requested_procs, job.used_procs);
      machine = std::max(machine, (procs + ppn - 1) / ppn);
    }
  }
  const double scale =
      target_nodes > 0 && machine > 0
          ? static_cast<double>(target_nodes) / static_cast<double>(machine)
          : 1.0;
  const int resolved_target = target_nodes > 0 ? target_nodes : machine;
  const int ceiling = max_job_nodes > 0 ? max_job_nodes : resolved_target;

  // Records in submission order (archives are usually sorted; tolerate
  // the exceptions).
  std::vector<const TraceJob*> records;
  records.reserve(trace.jobs.size());
  for (const TraceJob& job : trace.jobs) records.push_back(&job);
  std::stable_sort(records.begin(), records.end(),
                   [](const TraceJob* a, const TraceJob* b) {
                     return a->submit < b->submit;
                   });

  struct Survivor {
    const TraceJob* record;
    int nodes;
  };
  std::vector<Survivor> survivors;
  survivors.reserve(records.size());
  for (const TraceJob* record : records) {
    if (!keep_failed && record->status != kSwfStatusCompleted &&
        record->status != kSwfStatusUnknown) {
      ++counts.dropped_status;
      continue;
    }
    if (!keep_zero_runtime && record->run_time <= 0.0) {
      ++counts.dropped_zero_runtime;
      continue;
    }
    const int procs =
        record->requested_procs > 0 ? record->requested_procs
                                    : record->used_procs;
    if (procs <= 0) {
      ++counts.dropped_no_size;
      continue;
    }
    const int source_nodes = (procs + ppn - 1) / ppn;
    int nodes = std::max(
        1, static_cast<int>(std::lround(source_nodes * scale)));
    if (nodes > ceiling) {
      if (drop_oversize) {
        ++counts.dropped_oversize;
        continue;
      }
      nodes = ceiling;
      ++counts.clamped_oversize;
    }
    survivors.push_back(Survivor{record, nodes});
  }

  if (time_window > 0.0 && !survivors.empty()) {
    const double horizon = survivors.front().record->submit + time_window;
    std::size_t end = survivors.size();
    while (end > 0 && survivors[end - 1].record->submit > horizon) --end;
    counts.dropped_window = static_cast<int>(survivors.size() - end);
    survivors.resize(end);
  }
  if (max_jobs > 0 && static_cast<int>(survivors.size()) > max_jobs) {
    counts.dropped_cap = static_cast<int>(survivors.size()) - max_jobs;
    survivors.resize(static_cast<std::size_t>(max_jobs));
  }
  counts.kept = static_cast<int>(survivors.size());

  Workload workload;
  workload.source = "swf";
  workload.target_nodes = resolved_target;
  workload.jobs.reserve(survivors.size());
  const double origin =
      normalize_arrivals && !survivors.empty()
          ? survivors.front().record->submit
          : 0.0;
  for (const Survivor& survivor : survivors) {
    WorkloadJob job;
    job.index = static_cast<int>(workload.jobs.size());
    job.arrival = survivor.record->submit - origin;
    job.nodes = survivor.nodes;
    job.runtime = std::max(0.0, survivor.record->run_time);
    job.min_nodes = min_nodes_for(survivor.nodes, malleability);
    job.max_nodes =
        malleability.policy == Malleability::Rigid ||
                malleability.expand_limit <= 0
            ? survivor.nodes
            : std::max(survivor.nodes,
                       std::min(malleability.expand_limit, ceiling));
    job.source_id = survivor.record->job_number;
    workload.jobs.push_back(job);
  }
  return workload;
}

}  // namespace dmr::wl
