// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <utility>

namespace depbench {
namespace {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp:
      return "op";
    case Layer::kTable:
      return "table";
    case Layer::kGraph:
      return "graph";
    case Layer::kMatch:
      return "match";
    case Layer::kCore:
      return "core";
    case Layer::kService:
      return "service";
    case Layer::kGen:
      return "gen";
  }
  return "?";
}

}  // namespace

Tracer& DisabledTracer() {
  static Tracer* const tracer = new Tracer(false);
  return *tracer;
}

uint64_t Tracer::NewId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(SpanRecord span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> ms;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) ms.push_back(span.DurationMs());
  }
  return ms;
}

std::array<double, kNumLayers> Tracer::SelfMsByLayer() const {
  std::vector<SpanRecord> spans = Spans();
  std::unordered_map<uint64_t, double> child_ms;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) child_ms[span.parent] += span.DurationMs();
  }
  std::array<double, kNumLayers> self{};
  for (const SpanRecord& span : spans) {
    if (span.op == 0) continue;
    auto it = child_ms.find(span.id);
    double children = it == child_ms.end() ? 0.0 : it->second;
    self[static_cast<size_t>(span.layer)] +=
        std::max(0.0, span.DurationMs() - children);
  }
  return self;
}

bool Tracer::Write(const std::string& dir, const std::string& workload) const {
  std::vector<SpanRecord> spans = Spans();
  const std::string trace_path = dir + "/trace_" + workload + ".json";
  std::FILE* out = std::fopen(trace_path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %llu, \"parent\": %llu, \"op\": %llu}}%s\n",
                 span.name.c_str(), LayerName(span.layer),
                 static_cast<unsigned long long>(span.op),
                 MsBetween(origin_, span.start) * 1000.0,
                 span.DurationMs() * 1000.0,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.op),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  bool ok = std::fclose(out) == 0;

  // Per-layer self time, then per-span-name duration digests.
  std::map<std::string, std::pair<Layer, std::vector<double>>> by_name;
  for (const SpanRecord& span : spans) {
    auto& entry = by_name[span.name];
    entry.first = span.layer;
    entry.second.push_back(span.DurationMs());
  }
  const std::string summary_path =
      dir + "/trace_" + workload + ".summary.json";
  out = std::fopen(summary_path.c_str(), "w");
  if (out == nullptr) return false;
  std::array<double, kNumLayers> self = SelfMsByLayer();
  std::fprintf(out, "{\n  \"workload\": \"%s\",\n  \"spans\": %zu,\n",
               workload.c_str(), spans.size());
  std::fprintf(out, "  \"self_ms_by_layer\": {");
  for (size_t l = 0; l < kNumLayers; ++l) {
    std::fprintf(out, "%s\"%s\": %s", l > 0 ? ", " : "",
                 LayerName(static_cast<Layer>(l)), FormatDouble(self[l]).c_str());
  }
  std::fprintf(out, "},\n  \"by_name\": {\n");
  size_t i = 0;
  for (const auto& [name, entry] : by_name) {
    double total = 0.0;
    for (double ms : entry.second) total += ms;
    SupportedTail tail = LargestSupportedTail(entry.second);
    std::fprintf(out,
                 "    \"%s\": {\"layer\": \"%s\", \"count\": %zu, \"total_ms\": %s, "
                 "\"p50_ms\": %s, \"tail_pct\": %g, \"tail_ms\": %s}%s\n",
                 name.c_str(), LayerName(entry.first), entry.second.size(),
                 FormatDouble(total).c_str(),
                 FormatDouble(Median(entry.second)).c_str(), tail.pct,
                 FormatDouble(tail.value).c_str(),
                 ++i < by_name.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  return std::fclose(out) == 0 && ok;
}

Span::Span(Tracer& tracer, std::string name, Layer layer, uint64_t op,
           uint64_t parent)
    : tracer_(tracer),
      name_(std::move(name)),
      layer_(layer),
      op_(op),
      parent_(parent),
      start_(Clock::now()),
      id_(tracer.NewId()) {}

double Span::End() {
  if (!ended_) {
    ended_ = true;
    end_ = Clock::now();
    if (id_ != 0) {
      tracer_.Record({id_, parent_, op_, layer_, std::move(name_), start_, end_});
    }
  }
  return MsBetween(start_, end_);
}

}  // namespace depbench
