// Host fingerprint and small numeric helpers.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "dmr/build_info.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string join(const std::vector<double>& values) {
  std::string out;
  char text[32];
  for (const double value : values) {
    std::snprintf(text, sizeof(text), "%s%.6g", out.empty() ? "" : ",", value);
    out += text;
  }
  return out;
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(hash));
  return out;
}

namespace {

/// CPU brand string from cpuid leaves 0x80000002..4 (no file reads).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000U, nullptr);
  if (max_leaf >= 0x80000004U) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002U + i, &regs[i * 4], &regs[i * 4 + 1],
                  &regs[i * 4 + 2], &regs[i * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

}  // namespace

std::map<std::string, std::string> host_fingerprint() {
  std::map<std::string, std::string> fp;
  fp["cpu_model"] = cpu_model();
  fp["logical_cores"] = std::to_string(std::thread::hardware_concurrency());
  fp["compiler"] = PERFBENCH_COMPILER;
  fp["build_type"] = PERFBENCH_BUILD_TYPE;
  fp["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  std::string identity;
  for (const auto& [key, value] : fp) identity += key + "=" + value + "\n";
  fp["host_id"] = fnv1a_hex(identity);
  fp["git_sha"] = dmr::git_sha();
  return fp;
}

}  // namespace perfbench
