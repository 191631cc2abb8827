// bench_validate — provenance checker for the BENCH_*.json trajectories.
//
// Every BENCH file is JSON-lines, one row per recorded run.  A row
// without provenance (which commit, when, how many threads) is a number
// nobody can reproduce, so this tool re-reads every row with the real
// JSON parser (obs/json.hpp) and requires:
//
//   - the line parses as a JSON object,
//   - "git_sha" is a non-empty string,
//   - "timestamp" is a non-empty string,
//   - "threads" is a number >= 1.
//
// Usage:  bench_validate FILE.json [FILE.json ...]
//         bench_validate --dir DIR     validate every BENCH_*.json in DIR
//         bench_validate --regress FILE.json
//
// Exit status 0 iff every row of every file passes; a --dir with no
// BENCH_*.json files is an error (a vacuous pass would hide a renamed
// trajectory).  Wired as the bench_validate ctest and a CI step.
//
// --regress is the throughput-regression guard: it compares the file's
// freshest row (the last line, i.e. the row the CI run just appended)
// against the best prior row for the same "workload", and warns when
// jobs_per_second dropped by more than 15%.  Jobs, not events: the
// number of engine events a job costs is itself something the code
// changes (coalescing step events cut fig10 from ~6.8k to ~73 per job),
// so events/s across such a change compares different units of work.
// Warn-only by design — shared-runner noise would make a hard gate
// flaky — so the exit status stays 0 and CI uploads the report as an
// artifact next to the provenance gate.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace {

/// Validate one JSON-lines file; prints per-row diagnostics, returns the
/// number of bad rows.
int validate_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::printf("%s: error: unreadable\n", path.c_str());
    return 1;
  }
  int bad = 0;
  int rows = 0;
  int line_no = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ++rows;
    dmr::obs::JsonValue row;
    std::string error;
    if (!dmr::obs::parse_json(line, row, error)) {
      std::printf("%s:%d: error: %s\n", path.c_str(), line_no, error.c_str());
      ++bad;
      continue;
    }
    if (row.kind != dmr::obs::JsonValue::Kind::Object) {
      std::printf("%s:%d: error: row is not a JSON object\n", path.c_str(),
                  line_no);
      ++bad;
      continue;
    }
    bool row_ok = true;
    for (const char* key : {"git_sha", "timestamp"}) {
      const dmr::obs::JsonValue* value = row.field(key);
      if (value == nullptr ||
          value->kind != dmr::obs::JsonValue::Kind::String ||
          value->text.empty()) {
        std::printf("%s:%d: error: missing or empty \"%s\" (string)\n",
                    path.c_str(), line_no, key);
        row_ok = false;
      }
    }
    const dmr::obs::JsonValue* threads = row.field("threads");
    if (threads == nullptr ||
        threads->kind != dmr::obs::JsonValue::Kind::Number ||
        !(threads->number >= 1.0)) {
      std::printf("%s:%d: error: missing \"threads\" (number >= 1)\n",
                  path.c_str(), line_no);
      row_ok = false;
    }
    if (!row_ok) ++bad;
  }
  if (rows == 0) {
    std::printf("%s: error: no rows (an empty trajectory proves nothing)\n",
                path.c_str());
    return 1;
  }
  if (bad == 0) {
    std::printf("%s: %d row(s), provenance ok\n", path.c_str(), rows);
  }
  return bad;
}

/// Throughput-regression report for the freshest row of one trajectory.
/// Returns 1 only on structural failure (unreadable file, no usable
/// rows); a regression itself is reported but never fails the run.
int report_regression(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::printf("%s: error: unreadable\n", path.c_str());
    return 1;
  }
  struct Row {
    std::string workload;
    double jobs_per_second = 0.0;
    std::string git_sha;
    std::string timestamp;
  };
  std::vector<Row> rows;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    dmr::obs::JsonValue value;
    std::string error;
    if (!dmr::obs::parse_json(line, value, error)) {
      std::printf("%s:%d: error: %s\n", path.c_str(), line_no, error.c_str());
      return 1;
    }
    const dmr::obs::JsonValue* workload = value.field("workload");
    const dmr::obs::JsonValue* rate = value.field("jobs_per_second");
    if (workload == nullptr ||
        workload->kind != dmr::obs::JsonValue::Kind::String ||
        rate == nullptr || rate->kind != dmr::obs::JsonValue::Kind::Number) {
      continue;  // not a throughput row (other BENCH files ride along)
    }
    Row row;
    row.workload = workload->text;
    row.jobs_per_second = rate->number;
    if (const auto* sha = value.field("git_sha")) row.git_sha = sha->text;
    if (const auto* ts = value.field("timestamp")) row.timestamp = ts->text;
    rows.push_back(std::move(row));
  }
  if (rows.empty()) {
    std::printf("%s: error: no throughput rows to compare\n", path.c_str());
    return 1;
  }
  const Row& fresh = rows.back();
  const Row* best = nullptr;
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
    if (rows[i].workload != fresh.workload) continue;
    if (best == nullptr || rows[i].jobs_per_second > best->jobs_per_second)
      best = &rows[i];
  }
  if (best == nullptr) {
    std::printf("%s: workload \"%s\": %.0f jobs/s — no prior row, "
                "baseline established\n",
                path.c_str(), fresh.workload.c_str(), fresh.jobs_per_second);
    return 0;
  }
  const double change = (fresh.jobs_per_second - best->jobs_per_second) /
                        best->jobs_per_second * 100.0;
  const bool regressed = change < -15.0;
  std::printf("%s: workload \"%s\": fresh %.0f jobs/s (%s %s) vs best "
              "prior %.0f jobs/s (%s %s): %+.1f%%\n",
              path.c_str(), fresh.workload.c_str(), fresh.jobs_per_second,
              fresh.git_sha.c_str(), fresh.timestamp.c_str(),
              best->jobs_per_second, best->git_sha.c_str(),
              best->timestamp.c_str(), change);
  if (regressed) {
    std::printf("%s: WARNING: \"%s\" regressed more than 15%% against its "
                "best recorded run — investigate before trusting new "
                "rows\n",
                path.c_str(), fresh.workload.c_str());
  }
  return 0;  // warn-only: shared-runner noise must not fail CI
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--regress") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: %s --regress FILE.json\n", argv[0]);
      return 2;
    }
    return report_regression(argv[2]);
  }
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      const std::filesystem::path dir = argv[++i];
      std::error_code ec;
      for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
          files.push_back(entry.path().string());
        }
      }
      if (ec) {
        std::fprintf(stderr, "bench_validate: %s: %s\n", dir.string().c_str(),
                     ec.message().c_str());
        return 1;
      }
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: %s FILE.json ...\n       %s --dir DIR\n"
                   "       %s --regress FILE.json\n",
                   argv[0], argv[0], argv[0]);
      return 2;
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "bench_validate: no BENCH_*.json files found (give files "
                 "or --dir)\n");
    return 1;
  }
  std::sort(files.begin(), files.end());
  int bad = 0;
  for (const std::string& file : files) bad += validate_file(file);
  return bad == 0 ? 0 : 1;
}
