#pragma once

/// @file bench_util.hpp
/// Minimal shared harness for the hand-rolled benches: best-of-reps and
/// median-of-reps wall timing, and flag parsing for the common options
///
///     --reps <n>      timed repetitions per measurement (best-of)
///     --quick         minimal-reps smoke mode (CI)
///     --arch <name>   restrict kernel benches to one arch tier
///                     (portable | avx2 | avx512ifma)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace abc::bench {

struct BenchArgs {
  int reps = 0;                           // 0 = bench default
  bool quick = false;
  std::string arch;                       // empty = every selectable tier

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
        args.reps = std::atoi(argv[++i]);
      } else if (std::strcmp(argv[i], "--quick") == 0) {
        args.quick = true;
      } else if (std::strcmp(argv[i], "--arch") == 0 && i + 1 < argc) {
        args.arch = argv[++i];
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
        std::exit(2);
      }
    }
    return args;
  }
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
