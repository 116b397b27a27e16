// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include <sched.h>
#include <sys/resource.h>

#include "depmatch/common/string_util.h"

namespace depbench {

using depmatch::StrFormat;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double MsSince(Clock::time_point from) { return MsBetween(from, Clock::now()); }

namespace {

size_t NearestRankIndex(size_t n, double pct) {
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n) - 1;
}

// Nearest-rank percentile of a sample (0 when empty), with no support
// check.
double NearestRank(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  const auto at = samples.begin() +
                  static_cast<std::ptrdiff_t>(NearestRankIndex(samples.size(), pct));
  std::nth_element(samples.begin(), at, samples.end());
  return *at;
}

}  // namespace

PercentileResult Percentile(std::vector<double> samples, double pct,
                            std::string_view metric) {
  PercentileResult result;
  const size_t n = samples.size();
  const int name_len = static_cast<int>(metric.size());
  if (n == 0) {
    result.error = StrFormat("%.*s: no samples", name_len, metric.data());
    return result;
  }
  const size_t beyond = n - 1 - NearestRankIndex(n, pct);
  if (pct > 50.0 && beyond < kMinSamplesBeyondTail) {
    result.error = StrFormat(
        "%.*s: p%g of %zu samples has %zu beyond it (need %zu); run longer or "
        "report a lower percentile",
        name_len, metric.data(), pct, n, beyond, kMinSamplesBeyondTail);
    return result;
  }
  result.ok = true;
  result.value = NearestRank(std::move(samples), pct);
  return result;
}

SupportedTail LargestSupportedTail(const std::vector<double>& samples) {
  for (double pct : {99.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    PercentileResult p = Percentile(samples, pct, "tail");
    if (p.ok) return {pct, p.value};
  }
  return {};
}

double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50.0);
}

double MedianRatePerS(std::vector<Clock::time_point> done, Clock::time_point start,
                      size_t per_run) {
  constexpr size_t kRuns = 10;
  if (done.empty()) return 0.0;
  std::sort(done.begin(), done.end());
  if (per_run == 0) per_run = std::max<size_t>(1, done.size() / kRuns);
  std::vector<double> rates;
  Clock::time_point from = start;
  for (size_t end = per_run; end <= done.size(); end += per_run) {
    const double ms = MsBetween(from, done[end - 1]);
    if (ms > 0.0) rates.push_back(static_cast<double>(per_run) * 1000.0 / ms);
    from = done[end - 1];
  }
  return Median(std::move(rates));
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus_.push_back(cpu);
  }
}

void CpuRotation::Next() {
  if (cpus_.size() < 2) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  CPU_SET(cpus_[next_++ % cpus_.size()], &mask);
  // Pinning migrates the thread at once; widening the mask again leaves
  // it where it is until the scheduler has a reason to move it.
  if (sched_setaffinity(0, sizeof(mask), &mask) != 0) return;
  CPU_ZERO(&mask);
  for (int cpu : cpus_) CPU_SET(cpu, &mask);
  sched_setaffinity(0, sizeof(mask), &mask);
}

void RunReport::Add(std::string name, double value, std::string unit,
                    size_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void RunReport::AddPercentile(std::string name,
                              const std::vector<double>& samples, double pct,
                              std::string unit) {
  PercentileResult p = Percentile(samples, pct, name);
  if (!p.ok) {
    Fail(p.error);
    return;
  }
  Add(std::move(name), p.value, std::move(unit), samples.size());
}

void RunReport::AddTiming(std::string name, const std::vector<double>& samples,
                          std::string unit, double scale) {
  const SupportedTail tail = LargestSupportedTail(samples);
  metrics_.push_back({std::move(name), Median(samples) * scale, std::move(unit),
                      samples.size(), tail.pct, tail.value * scale});
}

void RunReport::Fail(std::string reason) { failures_.push_back(std::move(reason)); }

const Metric* RunReport::Find(std::string_view name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

std::string RunReport::ResultJson(const std::vector<std::string>& names) const {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct() ? "true" : "false", static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < names.size(); ++i) {
    const Metric* metric = Find(names[i]);
    double value = metric != nullptr ? metric->value : 0.0;
    std::string unit = metric != nullptr ? metric->unit : "";
    out += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                     i > 0 ? ", " : "", names[i].c_str(),
                     FormatDouble(value).c_str(), unit.c_str());
  }
  out += "}}";
  return out;
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

}  // namespace depbench
