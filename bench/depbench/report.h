// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Timing, percentile, and result-reporting helpers shared by every
// depbench workload.

#ifndef DEPMATCH_BENCH_DEPBENCH_REPORT_H_
#define DEPMATCH_BENCH_DEPBENCH_REPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace depbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to);
double MsSince(Clock::time_point from);

// A tail percentile is reported only when at least this many samples
// lie beyond its nearest rank.
inline constexpr size_t kMinSamplesBeyondTail = 10;

// Nearest-rank percentile: the value at rank ceil(pct/100 * n), 1-based.
// For pct > 50 the call fails when fewer than kMinSamplesBeyondTail
// samples lie beyond that rank: `error` then names `metric` and the
// counts, and the caller fails the run instead of printing a tail the
// sample cannot support. An empty sample always fails.
struct PercentileResult {
  bool ok = false;
  double value = 0.0;
  std::string error;
};
PercentileResult Percentile(std::vector<double> samples, double pct,
                            std::string_view metric);

// The largest of {99, 95, 90, 80, 75, 50} the sample supports, for the
// per-layer report ("p50 and the largest tail the sample supports").
// Returns 0 for an empty sample.
struct SupportedTail {
  double pct = 0.0;
  double value = 0.0;
};
SupportedTail LargestSupportedTail(const std::vector<double>& samples);

double Median(std::vector<double> samples);

// Completions per second, robust to short stalls of a shared host: the
// sorted completion times are cut into runs of `per_run` completions (a
// tenth of them when 0), and the median run's rate is returned.
double MedianRatePerS(std::vector<Clock::time_point> done, Clock::time_point start,
                      size_t per_run = 0);

// Peak resident set size of this process, in MB.
double PeakRssMb();

// Moves the calling thread to the next CPU of its affinity mask, round
// robin, on every Next(). On a shared host each vCPU runs at its own,
// drifting speed, and a single caller otherwise stays on one vCPU for a
// whole run, so its timings would measure that vCPU; rotating spreads
// every run's ops evenly over all of them. The mask is restored right
// after each move, so threads the op starts may still use every CPU.
// A no-op where the mask has one CPU or cannot be read.
class CpuRotation {
 public:
  CpuRotation();
  void Next();

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// One reported metric: name, value with every digit, unit, and the
// number of samples behind it (0 for counts and ratios that are not
// sample statistics). A timing added by AddTiming also carries the
// largest tail its sample supports (the median when no tail is).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  double tail_pct = 0.0;
  double tail_value = 0.0;
};

// Ordered metric set with the run's correctness verdict. Failures
// recorded through Fail() make the run incorrect; the first few reasons
// are printed.
class RunReport {
 public:
  void Add(std::string name, double value, std::string unit,
           size_t samples = 0);
  // Adds the `pct` percentile of `samples` as `name`, or fails the run
  // when the sample does not support it.
  void AddPercentile(std::string name, const std::vector<double>& samples,
                     double pct, std::string unit = "ms");
  // Adds the median of `samples` times `scale` as `name`, with the
  // largest tail the sample supports beside it (0 when empty).
  void AddTiming(std::string name, const std::vector<double>& samples,
                 std::string unit = "ms", double scale = 1.0);
  void Fail(std::string reason);

  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(std::string_view name) const;
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // The one-line result object:
  // {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
  // restricted to `names` (every name must be present).
  std::string ResultJson(const std::vector<std::string>& names) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Shortest round-trip decimal form of `value` (all significant digits).
std::string FormatDouble(double value);

}  // namespace depbench

#endif  // DEPMATCH_BENCH_DEPBENCH_REPORT_H_
