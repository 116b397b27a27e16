// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// In-memory span recorder for depbench's --trace runs.
//
// Spans are recorded by the benchmark's own files around calls into the
// public functions of each library layer; nothing inside src/ is
// instrumented. Every span carries its layer, the op it belongs to, and
// the span that caused it, so a layer's self time is its spans' time
// minus the time of their child spans. Replay spans (an op re-run as its
// public pieces after the load) are children of the span they explain
// even though they run later, so self time is computed from durations,
// not from interval overlap.
//
// At exit the spans are written in Chrome trace format
// (chrome://tracing, Perfetto) next to a per-layer self-time summary.

#ifndef DEPMATCH_BENCH_DEPBENCH_TRACE_H_
#define DEPMATCH_BENCH_DEPBENCH_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "report.h"

namespace depbench {

// The repository's modules, as depbench attributes time to them.
// kGraph covers Table2DepGraph (graph/ and stats/); kOp is the root span
// of one benchmark operation, and kGen the load generator itself.
enum class Layer : uint8_t { kOp, kTable, kGraph, kMatch, kCore, kService, kGen };
inline constexpr size_t kNumLayers = 7;

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // 0 = set-up
  Layer layer = Layer::kOp;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  double DurationMs() const { return MsBetween(start, end); }
};

// Thread-safe; a disabled tracer records nothing and returns id 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // A fresh span id (0 when disabled), so a parent can be named by its
  // children before it ends.
  uint64_t NewId();
  // Records a finished span under `span.id` (ignored when disabled).
  void Record(SpanRecord span);

  // Self time per layer over the ops (spans of op 0, the set-up, are
  // left out): for every span, its duration minus the durations of its
  // children (clamped at 0), summed by layer.
  std::array<double, kNumLayers> SelfMsByLayer() const;

  // Durations of every span named `name`, set-up spans included.
  std::vector<double> DurationsMs(const std::string& name) const;

  // Writes <dir>/trace_<workload>.json (Chrome trace) and
  // <dir>/trace_<workload>.summary.json. Returns false on I/O failure.
  bool Write(const std::string& dir, const std::string& workload) const;

 private:
  std::vector<SpanRecord> Spans() const;

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 1;           // guarded by mu_
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

// A process-wide tracer that records nothing, for untraced phases.
Tracer& DisabledTracer();

// Times one call: the span is recorded when the object goes out of
// scope (or at End()). With a disabled tracer it only keeps the clock,
// so callers can read the duration either way.
class Span {
 public:
  Span(Tracer& tracer, std::string name, Layer layer, uint64_t op,
       uint64_t parent = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return id_; }
  // Ends the span (idempotent) and returns its duration.
  double End();

 private:
  Tracer& tracer_;
  std::string name_;
  Layer layer_;
  uint64_t op_;
  uint64_t parent_;
  Clock::time_point start_;
  Clock::time_point end_;
  bool ended_ = false;
  uint64_t id_ = 0;
};

}  // namespace depbench

#endif  // DEPMATCH_BENCH_DEPBENCH_TRACE_H_
