#pragma once

/// @file bench_util.hpp
/// Minimal shared harness for the hand-rolled benches: best-of-reps and
/// median-of-reps wall timing, a machine-readable JSON reporter (the
/// BENCH_*.json perf trajectory format), and flag parsing for the common
/// options
///
///     --json <path>   write results as JSON to <path>
///     --reps <n>      timed repetitions per measurement (best-of)
///     --quick         minimal-reps smoke mode (CI)
///     --arch <name>   restrict kernel benches to one arch tier
///                     (portable | avx2 | avx512ifma)
///
/// JSON schema: {"bench": "<binary>", "results": [{"name": "...",
/// "seconds": ..., "items_per_s": ..., ...}, ...]} — one object per
/// measurement, metrics as flat numeric fields; records may also carry
/// string labels (e.g. "op"/"arch" in the unified kernel schema).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace abc::bench {

struct BenchArgs {
  std::string json_path;                  // empty = no JSON output
  int reps = 0;                           // 0 = bench default
  bool quick = false;
  std::string arch;                       // empty = every selectable tier
  std::vector<std::string> positional;

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
        args.json_path = argv[++i];
      } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
        args.reps = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        args.quick = true;
      } else if (std::strcmp(argv[i], "--arch") == 0 && i + 1 < argc) {
        args.arch = argv[++i];
      } else {
        args.positional.emplace_back(argv[i]);
      }
    }
    return args;
  }
};

/// One measurement: a name plus string labels and flat numeric metrics.
struct BenchResult {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, double>> metrics;
};

class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Standard timing entry; derives items_per_s when items > 0.
  void add_timing(const std::string& name, double seconds, double items = 0) {
    BenchResult r{name, {}, {{"seconds", seconds}}};
    if (items > 0) {
      r.metrics.emplace_back("items", items);
      r.metrics.emplace_back("items_per_s", items / seconds);
    }
    results_.push_back(std::move(r));
  }

  /// Free-form scalar metric (speed-ups, rates, counts).
  void add_metric(const std::string& name, const std::string& key,
                  double value) {
    results_.push_back(BenchResult{name, {}, {{key, value}}});
  }

  /// Labeled record (the unified kernel schema: string labels like
  /// "op"/"arch"/"fused" next to numeric metrics like "ns_per_op").
  void add_record(BenchResult r) { results_.push_back(std::move(r)); }

  const std::vector<BenchResult>& results() const { return results_; }

  /// Writes the JSON file; returns false (with a message) on I/O failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n",
                   path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
                 bench_name_.c_str());
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const BenchResult& r = results_[i];
      std::fprintf(f, "    {\"name\": \"%s\"", r.name.c_str());
      for (const auto& [key, value] : r.labels) {
        std::fprintf(f, ", \"%s\": \"%s\"", key.c_str(), value.c_str());
      }
      for (const auto& [key, value] : r.metrics) {
        std::fprintf(f, ", \"%s\": %.9g", key.c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < results_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string bench_name_;
  std::vector<BenchResult> results_;
};

/// Calls fn() once to warm up, then returns the best wall time of @p reps
/// timed calls, in seconds.
template <class F>
double time_best_of(int reps, F&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Returns the median wall time of @p reps timed calls of fn() (no warm-up
/// call), in seconds.
template <class F>
double time_median_of(int reps, F&& fn) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    times.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Formats a seconds value with an adaptive unit for table output.
inline std::string fmt_time(double seconds) {
  char buf[32];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof buf, "%.1f ns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f s", seconds);
  }
  return buf;
}

}  // namespace abc::bench
