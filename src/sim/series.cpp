#include "sim/series.hpp"

#include <sstream>
#include <stdexcept>

namespace dmr::sim {

void SeriesRecorder::record(const std::string& name, double value) {
  series_[name].add_point(engine_->now(), value);
  current_[name] = value;
}

void SeriesRecorder::record_delta(const std::string& name, double delta) {
  const double next = current_[name] + delta;
  record(name, next);
}

const util::StepSeries& SeriesRecorder::series(const std::string& name) const {
  const auto it = series_.find(name);
  if (it == series_.end()) {
    throw std::out_of_range("SeriesRecorder: unknown series " + name);
  }
  return it->second;
}

std::vector<std::string> SeriesRecorder::names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, unused] : series_) out.push_back(name);
  return out;
}

double SeriesRecorder::average(const std::string& name, double t0,
                              double t1) const {
  return series(name).average(t0, t1);
}

std::string SeriesRecorder::to_csv(const std::string& name) const {
  const auto& s = series(name);
  std::ostringstream out;
  out << "time," << name << '\n';
  for (std::size_t i = 0; i < s.size(); ++i) {
    out << s.times()[i] << ',' << s.values()[i] << '\n';
  }
  return out.str();
}

}  // namespace dmr::sim
