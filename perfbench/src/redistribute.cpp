// The real-mode rung of fig10's traced run: resizes on threaded ranks
// through the three dmr::redist strategies, moving micro_redistribute's
// buffer set (a Block array of doubles, a BlockCyclic array of ints and a
// Replicated header).  Shapes keep old + new ranks within four threads.
//
// A resize runs from the spawn to the last new rank's receive; afterwards
// every new rank checks every element it received against the sender's
// seeded fill pattern.  A resize counts as one failed operation on a rank
// failure, a content mismatch, or fewer bytes moved than registered.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <mutex>

#include "dmr/malleable.hpp"
#include "dmr/redist.hpp"
#include "dmr/simulation.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dmr;

struct Shape {
  int from;
  int to;
};
constexpr Shape kShapes[] = {{1, 3}, {3, 1}, {1, 2}, {2, 1}};
const char* const kStrategies[] = {"p2p", "pipelined", "checkpoint"};

/// The element every rank must hold at global index `g` of buffer `b`:
/// a seeded function of the index alone, so a receiver can check what it
/// got without seeing the sender.
double expected_double(std::uint64_t seed, std::size_t g) {
  return static_cast<double>(g) * 0.5 + static_cast<double>(seed % 977);
}
int expected_int(std::uint64_t seed, std::size_t g) {
  return static_cast<int>((g * 2654435761ULL) ^ seed) & 0x7fffffff;
}
double expected_header(std::uint64_t seed, std::size_t g) {
  return static_cast<double>(g) + static_cast<double>(seed) * 0.25;
}

struct Buffers {
  std::vector<double> data;
  std::vector<int> tags;
  std::vector<double> header;
  redist::Registry registry;

  explicit Buffers(std::size_t elements) {
    registry.add_block("data", data, elements);
    registry.add_block_cyclic("tags", tags, elements / 2 + 1, /*block=*/64);
    registry.add_replicated("header", header, 16);
  }

  /// Visit every local element of `rank` in storage order with its
  /// global index: fn(buffer index, local offset, global index).
  template <typename Fn>
  void for_each(int rank, int parts, Fn&& fn) const {
    for (std::size_t b = 0; b < registry.size(); ++b) {
      const redist::Distribution dist(registry.at(b).desc, parts);
      std::size_t local = 0;
      dist.for_each_local_run(rank, [&](std::size_t global, std::size_t n) {
        for (std::size_t k = 0; k < n; ++k) fn(b, local++, global + k);
      });
    }
  }

  void fill(int rank, int parts, std::uint64_t seed) {
    for (std::size_t b = 0; b < registry.size(); ++b) {
      const redist::Distribution dist(registry.at(b).desc, parts);
      registry.at(b).resize(dist.local_count(rank));
    }
    for_each(rank, parts, [&](std::size_t b, std::size_t i, std::size_t g) {
      if (b == 0) data[i] = expected_double(seed, g);
      if (b == 1) tags[i] = expected_int(seed, g);
      if (b == 2) header[i] = expected_header(seed, g);
    });
  }

  /// Elements that differ from the fill pattern (or are missing).
  std::size_t mismatches(int rank, int parts, std::uint64_t seed) const {
    std::size_t bad = 0;
    std::size_t expected_sizes[3] = {};
    for (std::size_t b = 0; b < registry.size(); ++b) {
      expected_sizes[b] =
          redist::Distribution(registry.at(b).desc, parts).local_count(rank);
    }
    if (data.size() != expected_sizes[0] || tags.size() != expected_sizes[1] ||
        header.size() != expected_sizes[2]) {
      return std::max<std::size_t>(1, expected_sizes[0] + expected_sizes[1] +
                                          expected_sizes[2]);
    }
    for_each(rank, parts, [&](std::size_t b, std::size_t i, std::size_t g) {
      if (b == 0 && data[i] != expected_double(seed, g)) ++bad;
      if (b == 1 && tags[i] != expected_int(seed, g)) ++bad;
      if (b == 2 && header[i] != expected_header(seed, g)) ++bad;
    });
    return bad;
  }
};

/// Rank-side timestamps and reports of one resize (guarded by `mu`).
struct ResizeLog {
  std::mutex mu;
  Clock::time_point fill_start = Clock::time_point::max();
  Clock::time_point fill_end = Clock::time_point::min();
  Clock::time_point spawn_start = Clock::time_point::max();
  Clock::time_point child_entry = Clock::time_point::min();
  Clock::time_point send_start = Clock::time_point::max();
  Clock::time_point send_end = Clock::time_point::min();
  Clock::time_point recv_start = Clock::time_point::max();
  Clock::time_point recv_end = Clock::time_point::min();
  Clock::time_point verify_end = Clock::time_point::min();
  double send_seconds = 0.0;  // slowest old rank's Report::seconds
  double recv_seconds = 0.0;  // slowest new rank's Report::seconds
  redist::Report received;    // merged new-side reports
  std::size_t mismatches = 0;
};

struct Resize {
  const char* strategy = "";
  Shape shape{};
  double plan_seconds = 0.0;
  double spawn_ms = 0.0;
  double resize_seconds = 0.0;
  double send_ms = 0.0;
  double recv_ms = 0.0;
  std::size_t bytes_moved = 0;
  std::size_t bytes_total = 0;
  int transfers = 0;
  double model_seconds = 0.0;
  bool failed = false;
};

Resize resize(redist::Strategy& strategy, const char* name, const Shape& shape,
              std::size_t elements, std::uint64_t seed, bool corrupt,
              Spans& spans, Outcome& outcome) {
  Resize r;
  r.strategy = name;
  r.shape = shape;
  {
    const Buffers prototype(elements);
    const Clock::time_point t0 = Clock::now();
    std::size_t planned = 0;
    for (std::size_t i = 0; i < prototype.registry.size(); ++i) {
      planned += redist::plan_transfers(prototype.registry.at(i).desc,
                                        shape.from, shape.to)
                     .size();
    }
    const Clock::time_point t1 = Clock::now();
    r.plan_seconds = seconds_between(t0, t1);
    spans.record("plan", t0, t1, 0,
                 "\"transfers\":" + std::to_string(planned));
  }

  const std::string label = std::string(name) + " " +
                            std::to_string(shape.from) + "->" +
                            std::to_string(shape.to);
  Spans::Scope span(spans, "resize",
                    "\"strategy\":\"" + std::string(name) + "\",\"from\":" +
                        std::to_string(shape.from) + ",\"to\":" +
                        std::to_string(shape.to));
  ResizeLog log;
  std::vector<std::string> failures;
  {
    smpi::Universe universe;
    universe.launch("old", shape.from, [&](smpi::Context& ctx) {
      const Clock::time_point fill_start = Clock::now();
      Buffers state(elements);
      state.fill(ctx.rank(), shape.from, seed);
      const Clock::time_point fill_end = Clock::now();
      {
        std::lock_guard<std::mutex> lock(log.mu);
        log.fill_start = std::min(log.fill_start, fill_start);
        log.fill_end = std::max(log.fill_end, fill_end);
      }
      ctx.world().barrier();  // every old rank is filled: the resize starts
      const Clock::time_point spawn_start = Clock::now();
      const smpi::Comm inter = ctx.spawn(
          ctx.world(), shape.to, [&](smpi::Context& child) {
            const Clock::time_point entry = Clock::now();
            Buffers fresh(elements);
            const redist::Endpoint endpoint{&*child.parent(), child.rank(),
                                            shape.from, shape.to};
            const Clock::time_point recv_start = Clock::now();
            const redist::Report report = strategy.recv(endpoint, fresh.registry);
            const Clock::time_point recv_end = Clock::now();
            if (corrupt && child.rank() == 0 && !fresh.data.empty()) {
              fresh.data[0] += 1.0;
            }
            const std::size_t bad =
                fresh.mismatches(child.rank(), shape.to, seed);
            const Clock::time_point verify_end = Clock::now();
            std::lock_guard<std::mutex> lock(log.mu);
            log.child_entry = std::max(log.child_entry, entry);
            log.recv_start = std::min(log.recv_start, recv_start);
            log.recv_end = std::max(log.recv_end, recv_end);
            log.verify_end = std::max(log.verify_end, verify_end);
            log.recv_seconds = std::max(log.recv_seconds, report.seconds);
            log.received.merge_concurrent(report);
            log.mismatches += bad;
          });
      const redist::Endpoint endpoint{&inter, ctx.rank(), shape.from, shape.to};
      const Clock::time_point send_start = Clock::now();
      const redist::Report report = strategy.send(endpoint, state.registry);
      const Clock::time_point send_end = Clock::now();
      std::lock_guard<std::mutex> lock(log.mu);
      log.spawn_start = std::min(log.spawn_start, spawn_start);
      log.send_start = std::min(log.send_start, send_start);
      log.send_end = std::max(log.send_end, send_end);
      log.send_seconds = std::max(log.send_seconds, report.seconds);
    });
    universe.await_all();
    failures = universe.failures();
  }

  const bool timed = failures.empty() && log.recv_end != Clock::time_point::min() &&
                     log.spawn_start != Clock::time_point::max();
  if (timed) {
    spans.record("fill", log.fill_start, log.fill_end, 1);
    spans.record("spawn", log.spawn_start, log.child_entry, 1);
    spans.record("send", log.send_start, log.send_end, 1);
    spans.record("recv", log.recv_start, log.recv_end, 2);
    spans.record("verify", log.recv_end, log.verify_end, 2);
    r.spawn_ms = seconds_between(log.spawn_start, log.child_entry) * 1.0e3;
    r.resize_seconds = seconds_between(log.spawn_start, log.recv_end);
  }
  span.close();
  r.send_ms = log.send_seconds * 1.0e3;
  r.recv_ms = log.recv_seconds * 1.0e3;
  r.bytes_moved = log.received.bytes_moved;
  r.bytes_total = log.received.bytes_total;
  r.transfers = log.received.transfers;

  drv::CostModel model;
  model.use_checkpoint_restart = std::string(name) == "checkpoint";
  r.model_seconds = model.movement(r.bytes_total, shape.from, shape.to).seconds;

  outcome.attempted += 1;
  if (!failures.empty()) {
    std::string why = label + ": rank failure";
    for (const std::string& failure : failures) why += "; " + failure;
    outcome.fail(1, why);
    r.failed = true;
  } else if (!timed) {
    outcome.fail(1, label + ": no rank reported a receive");
    r.failed = true;
  } else if (log.mismatches > 0) {
    outcome.fail(1, label + ": " + std::to_string(log.mismatches) +
                        " received element(s) differ from the fill pattern");
    r.failed = true;
  } else if (r.bytes_total == 0 || r.bytes_moved < r.bytes_total) {
    outcome.fail(1, label + ": moved " + std::to_string(r.bytes_moved) +
                        " of " + std::to_string(r.bytes_total) + " bytes");
    r.failed = true;
  }
  return r;
}

double mb_per_s(const std::vector<Resize>& resizes, const char* strategy) {
  double bytes = 0.0, seconds = 0.0;
  for (const Resize& r : resizes) {
    if (r.failed) continue;
    if (strategy != nullptr && std::string(r.strategy) != strategy) continue;
    bytes += static_cast<double>(r.bytes_moved);
    seconds += r.resize_seconds;
  }
  return seconds > 0.0 ? bytes / seconds / 1.0e6 : 0.0;
}

template <typename Fn>
std::vector<double> collect(const std::vector<Resize>& resizes, Fn&& fn) {
  std::vector<double> values;
  for (const Resize& r : resizes) {
    if (!r.failed) values.push_back(fn(r));
  }
  return values;
}

/// Resize cycles (every shape through every strategy) until `seconds`
/// have passed, at least one.
std::vector<Resize> run_cycles(const Options& options, double seconds,
                               Spans& spans, Outcome& outcome) {
  const std::size_t elements =
      options.tiny ? std::size_t(1) << 12 : std::size_t(1) << 20;
  outcome.detail["elements"] = std::to_string(elements);

  // The checkpoint route's shards live in a private directory under the
  // working directory, removed at the end.
  const std::filesystem::path shard_dir =
      std::filesystem::current_path() / ".bench_build" /
      ("ckpt-" + std::to_string(static_cast<long long>(::getpid())));
  std::filesystem::create_directories(shard_dir);

  std::vector<Resize> resizes;
  const Clock::time_point start = Clock::now();
  bool corrupt = options.inject == "corrupt-recv";
  {
    // One strategy instance per (shape, strategy) for the whole run, so
    // the checkpoint route reuses its shard directory as a store would.
    std::vector<std::shared_ptr<redist::Strategy>> strategies;
    for (std::size_t shape = 0; shape < std::size(kShapes); ++shape) {
      for (const char* name : kStrategies) {
        if (std::string(name) == "checkpoint") {
          redist::CheckpointRouteOptions route;
          route.directory = shard_dir / std::to_string(shape);
          strategies.push_back(std::make_shared<redist::CheckpointRoute>(route));
        } else {
          strategies.push_back(redist::make_strategy(name));
        }
      }
    }
    int cycles = 0;
    while (cycles == 0 || seconds_between(start, Clock::now()) < seconds) {
      Spans::Scope cycle(spans, "cycle");
      std::size_t s = 0;
      for (const Shape& shape : kShapes) {
        for (const char* name : kStrategies) {
          const Resize r = resize(
              *strategies[s], name, shape, elements,
              options.seed + static_cast<std::uint64_t>(resizes.size()),
              corrupt, spans, outcome);
          corrupt = false;
          resizes.push_back(r);
          ++s;
        }
      }
      ++cycles;
    }
    outcome.detail["cycles"] = std::to_string(cycles);
  }
  std::error_code ignored;
  std::filesystem::remove_all(shard_dir, ignored);
  outcome.detail["resizes"] = std::to_string(resizes.size());
  return resizes;
}

/// The redist / smpi per-layer metrics of a set of resizes.
void resize_layers(const std::vector<Resize>& resizes, Metrics& layers) {
  auto med = [&resizes](auto fn) { return median(collect(resizes, fn)); };
  const std::vector<double> resize_ms =
      collect(resizes, [](const Resize& r) { return r.resize_seconds * 1e3; });
  layers["redist.plan_s"].value = med([](const Resize& r) { return r.plan_seconds; });
  layers["redist.send_ms"].value = med([](const Resize& r) { return r.send_ms; });
  layers["redist.recv_ms"].value = med([](const Resize& r) { return r.recv_ms; });
  layers["smpi.spawn_ms"].value = med([](const Resize& r) { return r.spawn_ms; });
  layers["redist.transfers_per_resize"].value =
      med([](const Resize& r) { return static_cast<double>(r.transfers); });
  layers["redist.bytes_per_resize"].value =
      med([](const Resize& r) { return static_cast<double>(r.bytes_moved); });
  layers["redist.mb_per_s"].value = mb_per_s(resizes, nullptr);
  layers["redist.mb_per_s.p2p"].value = mb_per_s(resizes, "p2p");
  layers["redist.mb_per_s.pipelined"].value = mb_per_s(resizes, "pipelined");
  layers["redist.mb_per_s.checkpoint"].value = mb_per_s(resizes, "checkpoint");
  layers["redist.resize_ms_p50"].value = quantile(resize_ms, 0.5);
  layers["redist.resize_ms_p90"].value = quantile(resize_ms, 0.9);
  double measured = 0.0, modeled = 0.0;
  for (const Resize& r : resizes) {
    if (r.failed) continue;
    measured += r.resize_seconds;
    modeled += r.model_seconds;
  }
  layers["redist.model_ratio"].value = modeled > 0.0 ? measured / modeled : 0.0;
}

}  // namespace

void redistribute_rung(const Options& options, double seconds, Spans& spans,
                       Outcome& outcome, Metrics& layers) {
  Spans::Scope rung(spans, "rung.redistribute");
  resize_layers(run_cycles(options, seconds, spans, outcome), layers);
}

}  // namespace perfbench
