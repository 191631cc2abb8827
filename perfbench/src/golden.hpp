// Golden outcome digests, captured on the seed commit of the benchmark:
// fnv1a_hex of the full-precision outcome text (every job's
// submit/start/end at %.17g, plus makespan, expands and shrinks) of one
// full-size simulation at the golden seed: fig10's 50-job run,
// archive_hiload's one 25k-job trace, fed_checked's one 10k-job
// workload (the first simulation of a unit).  A mismatch is a behaviour
// change, never noise: fix the program or justify the new outcomes and
// capture again.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

inline std::string golden_digest(const std::string& workload,
                                 std::uint64_t seed) {
  struct Entry {
    const char* workload;
    std::uint64_t seed;
    const char* digest;
  };
  static const Entry kGolden[] = {
      {"fig10", 1, "e4f06feead34da9f"},
      {"fig10", 2027, "739ab38cde0344b2"},
      {"archive_hiload", 1, "9150dac9862695ba"},
      {"archive_hiload", 2027, "4e1a5b0f26849251"},
      {"fed_checked", 1, "039d4b4e5743e442"},
      {"fed_checked", 2027, "f09ed73d95c88eba"},
  };
  for (const Entry& entry : kGolden) {
    if (workload == entry.workload && seed == entry.seed) return entry.digest;
  }
  return "";
}

}  // namespace perfbench
