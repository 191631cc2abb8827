#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

Spans::Scope::Scope(Spans& spans, std::string name, std::string args)
    : spans_(spans), start_(Clock::now()) {
  index_ = spans_.open(std::move(name), std::move(args), start_);
}

double Spans::Scope::close() {
  if (seconds_ < 0.0) {
    const Clock::time_point end = Clock::now();
    seconds_ = seconds_between(start_, end);
    spans_.close(index_, end);
  }
  return seconds_;
}

Spans::Spans(bool keep, std::string workload, std::uint64_t seed)
    : keep_(keep),
      workload_(std::move(workload)),
      seed_(seed),
      origin_(Clock::now()) {}

int Spans::open(std::string name, std::string args, Clock::time_point start) {
  if (!keep_) return -1;
  Span span;
  span.name = std::move(name);
  span.args = std::move(args);
  span.start_us = seconds_between(origin_, start) * 1.0e6;
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Spans::close(int index, Clock::time_point end) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_us =
      seconds_between(origin_, end) * 1.0e6;
  // Scopes nest lexically, so the span being closed is the innermost.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Spans::record(std::string name, Clock::time_point start,
                   Clock::time_point end, int track, std::string args) {
  if (!keep_) return;
  Span span;
  span.name = std::move(name);
  span.args = std::move(args);
  span.track = track;
  span.start_us = seconds_between(origin_, start) * 1.0e6;
  span.end_us = seconds_between(origin_, end) * 1.0e6;
  span.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(span));
}

std::map<std::string, double> Spans::self_seconds(std::size_t from) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent >= 0 && span.end_us >= 0.0) {
      child_us[static_cast<std::size_t>(span.parent)] +=
          span.end_us - span.start_us;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_us >= 0.0) {
      self[span.name] += (span.end_us - span.start_us - child_us[i]) * 1.0e-6;
    }
  }
  return self;
}

std::string Spans::chrome_json() const {
  // Sorted by start (ties: the longer, enclosing span first), so every
  // track's timestamps are monotone and parents precede their children.
  std::vector<std::size_t> order(spans_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [this](std::size_t a, std::size_t b) {
                     const Span& x = spans_[a];
                     const Span& y = spans_[b];
                     if (x.start_us != y.start_us) {
                       return x.start_us < y.start_us;
                     }
                     return x.end_us - x.start_us > y.end_us - y.start_us;
                   });
  std::string out = "{\"traceEvents\":[\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,"
                "\"ts\":0,\"args\":{\"name\":\"perfbench %s seed %llu\"}}",
                workload_.c_str(), static_cast<unsigned long long>(seed_));
  out += line;
  for (std::size_t i : order) {
    const Span& span = spans_[i];
    if (span.end_us < 0.0) continue;
    std::snprintf(line, sizeof(line),
                  ",\n{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"perfbench\","
                  "\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"workload\":\"%s\","
                  "\"seed\":%llu",
                  span.name.c_str(), span.track, span.start_us,
                  span.end_us - span.start_us, i, span.parent,
                  workload_.c_str(), static_cast<unsigned long long>(seed_));
    out += line;
    if (!span.args.empty()) {
      out += ',';
      out += span.args;
    }
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

bool Spans::write(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return false;
  file << chrome_json();
  return static_cast<bool>(file);
}

}  // namespace perfbench
