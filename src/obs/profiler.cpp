#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "redist/strategy.hpp"

namespace dmr::obs {

void Profiler::redist_report(const RedistFact& f) {
  if (f.simulated) return;
  redists_.fetch_add(1, std::memory_order_relaxed);
  add(redist_us_, f.report.seconds);
}

long Profiler::peak_rss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      std::sscanf(line + 6, "%ld", &kb);
      break;
    }
  }
  std::fclose(status);
  return kb;
}

ProfileReport Profiler::report(double wall_seconds, long long jobs) const {
  ProfileReport report;
  report.wall_seconds = wall_seconds;
  report.events = events_.load(std::memory_order_relaxed);
  report.jobs = jobs;
  if (wall_seconds > 0.0) {
    report.events_per_second =
        static_cast<double>(report.events) / wall_seconds;
    report.jobs_per_second = static_cast<double>(jobs) / wall_seconds;
  }
  report.schedule_passes = static_cast<long long>(
      schedule_passes_.load(std::memory_order_relaxed));
  report.schedule_seconds =
      static_cast<double>(schedule_us_.load(std::memory_order_relaxed)) /
      1.0e6;
  if (report.schedule_passes > 0) {
    report.seconds_per_pass =
        report.schedule_seconds / static_cast<double>(report.schedule_passes);
  }
  report.placements =
      static_cast<long long>(placements_.load(std::memory_order_relaxed));
  report.placement_seconds =
      static_cast<double>(placement_us_.load(std::memory_order_relaxed)) /
      1.0e6;
  report.redists =
      static_cast<long long>(redists_.load(std::memory_order_relaxed));
  report.redist_seconds =
      static_cast<double>(redist_us_.load(std::memory_order_relaxed)) / 1.0e6;
  report.engine_seconds =
      std::max(0.0, wall_seconds - report.schedule_seconds -
                        report.placement_seconds - report.redist_seconds);
  report.peak_rss_kb = peak_rss_kb();
  return report;
}

std::string ProfileReport::json_fields() const {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed;
  out << "\"wall_seconds\":" << wall_seconds << ",\"events\":" << events
      << ",\"events_per_second\":" << events_per_second
      << ",\"jobs\":" << jobs << ",\"jobs_per_second\":" << jobs_per_second
      << ",\"schedule_passes\":" << schedule_passes
      << ",\"schedule_seconds\":" << schedule_seconds
      // Sub-microsecond passes: six significant digits, not six decimals.
      << ",\"seconds_per_pass\":" << std::defaultfloat << seconds_per_pass
      << std::fixed
      << ",\"placements\":" << placements
      << ",\"placement_seconds\":" << placement_seconds
      << ",\"redists\":" << redists
      << ",\"redist_seconds\":" << redist_seconds
      << ",\"engine_seconds\":" << engine_seconds
      << ",\"peak_rss_kb\":" << peak_rss_kb;
  return out.str();
}

}  // namespace dmr::obs
