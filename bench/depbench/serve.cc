// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// The two served workloads. Both run an in-process ServiceServer over
// AF_UNIX with ServiceOptions{num_threads=4, max_queue=64, max_batch=8,
// snapshot_history=1} in front of a 2,000-entry banded corpus plus 40
// query-family graphs q000..q039. Phase A is an open loop at a fixed
// rate from 4 client threads on 4 connections; phase B sends the same
// mix back to back from one client.
//
// serve_search: the daemon's read path. 32 lab entries (2,000 x 8) join
// the catalog. The mix, fixed per block of 20 requests, is 17
// SearchStored(qNNN, k=5), 2 SearchTable sending a lab entry's own CSV,
// parsed per op, and 1 MatchTables on a CSV pair.
//
// serve_ingest: writes beside reads. The 32 lab entries are 20,000 x 8,
// inserted from the first half of their date-ordered rows. The open-loop
// mix per block of 20 is 12 AppendRows (the entry's next 1% slice,
// round-robin), 1 InsertTable (a new 2,000 x 8 entry from CSV), and 7
// SearchStored(qNNN).
//
// Every searched catalog uses annealing, set explicitly: the wire
// default (exhaustive) takes seconds on the corpus's widest entries.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <tuple>
#include <utility>

#include "checks.h"
#include "depmatch/common/logging.h"
#include "depmatch/common/rng.h"
#include "depmatch/common/string_util.h"
#include "depmatch/common/thread_pool.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/datagen/datasets.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/graph/incremental_builder.h"
#include "depmatch/service/client.h"
#include "depmatch/service/match_service.h"
#include "depmatch/service/protocol.h"
#include "depmatch/service/server.h"
#include "depmatch/service/snapshot.h"
#include "depmatch/table/csv.h"
#include "depmatch/table/table_ops.h"
#include "inputs.h"
#include "workloads.h"

namespace depbench {
namespace {

using depmatch::DependencyGraph;
using depmatch::GraphCatalog;
using depmatch::IncrementalGraphBuilder;
using depmatch::StrFormat;
using depmatch::Table;
using depmatch::service::MatchService;
using depmatch::service::Request;
using depmatch::service::RequestType;
using depmatch::service::Response;
using depmatch::service::SearchSource;
using depmatch::service::ServiceClient;
using depmatch::service::ServiceOptions;
using depmatch::service::ServiceServer;
using depmatch::service::ServiceSnapshot;
using depmatch::service::WireMatchOptions;
using depmatch::service::WireStatus;

// Open-loop rates. Requests arrive on a fixed schedule, and the gap
// between two (67 and 80 ms) is longer than nearly every request takes,
// so a request's latency is its own path through the daemon plus the
// occasional wait behind a slow predecessor. At twice these rates the
// dispatcher was ~75% busy, waits dominated, and the open-loop medians
// moved by 30% between runs (README.md).
constexpr double kSearchRate = 15.0;
// 12 appends per 20 ops, so the 12 s of a 20 s run's phase A time 90
// appends: enough to support the tail.
constexpr double kIngestRate = 12.5;
// Share of --seconds spent in the open loop (the rest is phase B).
constexpr double kOpenShare = 0.6;
// Seconds at the start of phase B its rate leaves out (see Run).
constexpr double kRampS = 1.0;

constexpr size_t kConnections = 4;
constexpr size_t kCorpusEntries = 2000;
constexpr size_t kQueryFamily = 40;
constexpr size_t kLabEntries = 32;
constexpr size_t kLabRows = 2000;
constexpr size_t kLabWidth = 8;
constexpr size_t kIngestRows = 20000;
constexpr size_t kIngestSlices = 50;
constexpr size_t kCsvFiles = 8;
constexpr size_t kMatchPairs = 4;
constexpr uint64_t kTopK = 5;
// An inline query is a stored entry's own table asking for its best
// match, which the index finds at once. A lab table resampled from other
// rows instead searches 1-175 entries (5 ms to 1 s) depending on its
// columns, and at k=5 ~150 entries (0.7 s): regimes README.md records,
// too seed-dependent to time here.
constexpr uint64_t kInlineTopK = 1;
constexpr size_t kMixBlock = 20;

enum class Kind : uint8_t { kStored, kInline, kMatch, kAppend, kInsert };

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kStored:
      return "stored_search";
    case Kind::kInline:
      return "inline_search";
    case Kind::kMatch:
      return "match_tables";
    case Kind::kAppend:
      return "append";
    case Kind::kInsert:
      return "insert";
  }
  return "?";
}

// One scheduled request: its kind and which input it uses.
struct Planned {
  Kind kind = Kind::kStored;
  size_t payload = 0;  // query, CSV file, pair, or entry index
  size_t slice = 0;    // append slice of the entry
};

struct Outcome {
  Planned plan;
  uint64_t op_id = 0;
  uint64_t root_span = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  // How late the sender woke for this request's due time; negative when
  // it did not sleep because every connection was busy past the due time.
  double late_ms = -1.0;
  bool ok = false;
  // Newest publication acknowledged to any client when this was sent.
  uint64_t acked_before = 0;
  double csv_ms = 0.0;
  double csv_bytes = 0.0;
  // The request is rebuilt from `plan` when needed (Rebuild), so the
  // harness's memory does not grow with the requests it sent.
  Response response;
  double LatencyMs() const { return MsBetween(due, done); }
};

WireMatchOptions SearchWireOptions() {
  WireMatchOptions options;
  options.algorithm = depmatch::MatchAlgorithm::kSimulatedAnnealing;
  return options;
}

// Resolves a search request the way the service does (core-level fan-out
// serial; the micro-batch is the unit of parallelism).
depmatch::CatalogSearchOptions ResolveSearch(const Request& request,
                                             const ServiceOptions& service) {
  depmatch::CatalogSearchOptions options;
  options.k = static_cast<size_t>(request.search.k);
  options.match = request.search.options.ToMatchOptions(1);
  options.use_prefilter = service.use_prefilter;
  options.use_index = service.use_index;
  options.num_threads = 1;
  return options;
}

ServiceOptions ServeOptions() {
  ServiceOptions options;
  options.num_threads = 4;
  options.max_queue = 64;
  options.max_batch = 8;
  options.snapshot_history = 1;
  return options;
}

// How late the open-loop sender woke, for each request it slept for.
std::vector<double> Lateness(const std::vector<Outcome>& outcomes) {
  std::vector<double> late;
  for (const Outcome& out : outcomes) {
    if (out.late_ms >= 0.0) late.push_back(out.late_ms);
  }
  return late;
}

void AtomicMax(std::atomic<uint64_t>& target, uint64_t value) {
  uint64_t seen = target.load();
  while (seen < value && !target.compare_exchange_weak(seen, value)) {
  }
}

class Serve {
 public:
  Serve(const RunConfig& config, Tracer& tracer, RunReport& report, bool ingest)
      : config_(config), tracer_(tracer), report_(report), ingest_(ingest) {}

  void Run();

 private:
  // --- set-up ------------------------------------------------------------
  void Setup();
  void SetupOnce();
  // `count` requests of the workload's mix, in seeded blocks of
  // kMixBlock that each hold the whole mix.
  std::vector<Planned> Schedule(size_t count);
  std::string LabName(size_t entry) const { return StrFormat("lab%03zu", entry); }
  std::string QueryName(size_t query) const { return StrFormat("q%03zu", query); }

  // --- load --------------------------------------------------------------
  // Sends plan[i] at start + i / rate from kConnections client threads.
  std::vector<Outcome> OpenLoop(const std::vector<Planned>& plan, double rate,
                                bool traced);
  // Sends back to back from one client until `seconds` pass; `start`
  // receives the time the loop began. One client, because four lock
  // into one micro-batching pattern (batches of 1 and 3, of 2, or of 4)
  // for a whole run: their rate moved between 34 and 58 req/s from run to
  // run, and with think times still by 22%. The plan is the workload's
  // mix: serve_ingest's appends alone moved between 88 and 139 per second
  // from run to run.
  std::vector<Outcome> ClosedLoop(const std::vector<Planned>& plan,
                                  double seconds, Clock::time_point* start);
  // Runs `worker` on each of kConnections client connections at once.
  void OnConnections(const std::function<void(ServiceClient&)>& worker);
  std::vector<Outcome> Plan(const std::vector<Planned>& plan);
  void Send(ServiceClient& client, Outcome& out, Tracer& tracer);
  Request MakeRequest(Outcome& out, Tracer& tracer);
  // The request `out` sent, built again from its plan.
  Request Rebuild(const Outcome& out);
  Table ReadCsv(const std::string& path, Outcome& out, Tracer& tracer);

  // --- checks ------------------------------------------------------------
  // Re-executes every response against the snapshot it names.
  void CheckAgainstSnapshots(const std::vector<Outcome>& outcomes);
  // Append ordering, read-your-acks, and final graphs vs cold rebuilds.
  void CheckIngest(const std::vector<Outcome>& outcomes);
  void AddPrecision(const std::vector<Outcome>& outcomes);
  // Counts the requests and fails the run if any failed or was shed.
  void CountFailed(const std::vector<Outcome>& outcomes);

  // --- trace replay --------------------------------------------------------
  void ReplaySearch(const Outcome& out, const Request& request,
                    const ServiceSnapshot& snapshot);
  void ReplayMatch(const Outcome& out, const Request& request);
  void ReplayWireCost(const Outcome& out, const Request& request);
  // Re-executes a served read in one direct call against the snapshot it
  // names (nullptr for MatchTables), checks it against the response, and
  // records its time and the part of the served latency it leaves over:
  // queueing, batching, the socket, and the wire codec.
  void ExecuteDirect(const Outcome& out, const Request& request,
                     const ServiceSnapshot* snapshot);
  // Rebuilds every snapshot the traced phase published, from `start`, and
  // replays each traced request against the snapshot it names.
  void ReplayIngest(const std::vector<Outcome>& untraced,
                    const std::vector<Outcome>& traced,
                    std::shared_ptr<const ServiceSnapshot> start);

  const RunConfig& config_;
  Tracer& tracer_;
  RunReport& report_;
  const bool ingest_;
  const ServiceOptions options_ = ServeOptions();
  const size_t lab_entries_ = config_.smoke ? 4 : kLabEntries;

  std::string socket_path_;
  std::unique_ptr<ServiceServer> server_;
  std::vector<size_t> query_order_;
  std::vector<std::string> csv_files_;  // inline queries or insert tables
  std::vector<MatchPairFiles> match_pairs_;
  std::vector<depmatch::datagen::StreamingSlices> slices_;
  std::vector<size_t> next_slice_;
  // Counters assigning inputs to scheduled requests of each kind.
  size_t stored_count_ = 0, inline_count_ = 0, match_count_ = 0,
         append_count_ = 0, insert_count_ = 0;
  uint64_t next_op_ = 0;
  std::atomic<uint64_t> acked_version_{0};
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> in_flight_max_{0};
  LayerCounters counters_;
};

// ---------------------------------------------------------------------------
// Set-up

void Serve::Setup() {
  socket_path_ = config_.workdir + "/serve.sock";
  AddSetupTime(report_, [&] { SetupOnce(); }, [&] { server_.reset(); });
}

void Serve::SetupOnce() {
  const size_t corpus_entries = config_.smoke ? 200 : kCorpusEntries;
  const size_t lab_entries = lab_entries_;
  acked_version_ = 0;
  const depmatch::GraphCorpusOptions corpus =
      CorpusConfig(corpus_entries);
  GraphCatalog catalog;
  for (size_t i = 0; i < corpus_entries; ++i) {
    DEPMATCH_CHECK(
        catalog.Insert(depmatch::CorpusEntryName(i), depmatch::CorpusEntry(corpus, i))
            .ok());
  }
  for (size_t q = 0; q < kQueryFamily; ++q) {
    DEPMATCH_CHECK(
        catalog.Insert(QueryName(q), QueryFamilyGraph(corpus, q)).ok());
  }
  query_order_.resize(kQueryFamily);
  std::iota(query_order_.begin(), query_order_.end(), size_t{0});
  depmatch::Rng(config_.seed ^ 0x5E4Cu).Shuffle(query_order_);

  const size_t lab_rows = ingest_ ? (config_.smoke ? 2000 : kIngestRows)
                                  : 2 * kLabRows;
  Table lab = MakeLabTable(config_.seed, lab_rows);
  depmatch::Rng rng(config_.seed ^ 0x1AB5u);
  std::vector<std::vector<size_t>> attrs =
      ColumnSubsets(kLabFirstTest, kLabTests, lab_entries, kLabWidth);
  if (ingest_) {
    for (std::vector<size_t>& set : attrs) set.insert(set.begin(), 0);  // exam_date
  }
  csv_files_.clear();
  slices_.clear();
  if (!ingest_) {
    // Each entry is stored from its CSV, and inline query f sends entry
    // f's CSV: the question "which stored table is this?", whose answer
    // is that entry under the identity mapping.
    for (size_t e = 0; e < lab_entries; ++e) {
      const std::string csv = StrFormat("%s/lab%03zu.csv", config_.workdir.c_str(), e);
      DEPMATCH_CHECK(depmatch::WriteCsvFile(
                         depmatch::SampleRows(
                             depmatch::ProjectColumns(lab, attrs[e]).value(), kLabRows, rng),
                         csv, {})
                         .ok());
      Table entry = depmatch::ReadCsvFile(csv, {}).value();
      DEPMATCH_CHECK(
          catalog.Insert(LabName(e), depmatch::BuildDependencyGraph(entry).value())
              .ok());
      if (csv_files_.size() < kCsvFiles) csv_files_.push_back(csv);
    }
    const std::string pair_dir = config_.workdir + "/pairs";
    std::filesystem::create_directories(pair_dir);
    MatchPairShape shape;
    shape.lab_pairs = kMatchPairs;
    shape.census_pairs = 0;
    shape.rows = kLabRows;
    shape.attributes = kLabWidth;
    match_pairs_ = WriteMatchPairs(pair_dir, config_.seed, shape);
  } else {
    // Each entry's rows arrive in exam-date order: the first half is
    // inserted, the rest comes as 1% appends. The date orders the slices
    // and is then dropped, so an entry holds its 8 test columns.
    std::vector<size_t> tests(kLabWidth);
    std::iota(tests.begin(), tests.end(), size_t{1});
    auto drop_date = [&](const Table& slice) {
      return depmatch::ProjectColumns(slice, tests).value();
    };
    for (size_t e = 0; e < lab_entries; ++e) {
      depmatch::datagen::StreamingSlices dated =
          depmatch::datagen::MakeStreamingSlices(
              depmatch::ProjectColumns(lab, attrs[e]).value(), 0.5, kIngestSlices, 0)
              .value();
      depmatch::datagen::StreamingSlices slices;
      slices.base = drop_date(dated.base);
      for (const Table& append : dated.appends) slices.appends.push_back(drop_date(append));
      slices_.push_back(std::move(slices));
    }
    for (size_t f = 0; f < kCsvFiles; ++f) {
      Table table = depmatch::SampleRows(
          depmatch::ProjectColumns(lab, attrs[f % lab_entries]).value(),
          config_.smoke ? 500 : kLabRows, rng);
      table = drop_date(table);
      csv_files_.push_back(StrFormat("%s/insert%02zu.csv", config_.workdir.c_str(), f));
      DEPMATCH_CHECK(depmatch::WriteCsvFile(table, csv_files_.back(), {}).ok());
    }
    next_slice_.assign(lab_entries, 0);
  }

  auto service = std::make_unique<MatchService>(std::move(catalog), options_);
  depmatch::service::ServerOptions server_options;
  server_options.socket_path = socket_path_;
  server_ = std::make_unique<ServiceServer>(std::move(service), server_options);
  depmatch::Status started = server_->Start();
  DEPMATCH_CHECK(started.ok());

  if (ingest_) {
    ServiceClient client = ServiceClient::Connect(socket_path_).value();
    for (size_t e = 0; e < lab_entries; ++e) {
      depmatch::Result<Response> inserted =
          client.InsertTable(LabName(e), slices_[e].base);
      DEPMATCH_CHECK(inserted.ok() && inserted->status == WireStatus::kOk);
      AtomicMax(acked_version_, inserted->insert.snapshot_version);
    }
  }
}

std::vector<Planned> Serve::Schedule(size_t count) {
  // Per block of 20: how many of each kind (the rest are stored searches).
  const size_t inline_n = ingest_ ? 0 : 2;
  const size_t match_n = ingest_ ? 0 : 1;
  const size_t append_n = ingest_ ? 12 : 0;
  const size_t insert_n = ingest_ ? 1 : 0;
  std::vector<Planned> plan;
  plan.reserve(count);
  while (plan.size() < count) {
    std::vector<Kind> block(kMixBlock, Kind::kStored);
    size_t at = 0;
    for (size_t i = 0; i < inline_n; ++i) block[at++] = Kind::kInline;
    for (size_t i = 0; i < match_n; ++i) block[at++] = Kind::kMatch;
    for (size_t i = 0; i < append_n; ++i) block[at++] = Kind::kAppend;
    for (size_t i = 0; i < insert_n; ++i) block[at++] = Kind::kInsert;
    depmatch::Rng(config_.seed ^ (0xB10Cull + plan.size())).Shuffle(block);
    for (Kind kind : block) {
      if (plan.size() == count) break;
      Planned p;
      p.kind = kind;
      switch (kind) {
        case Kind::kStored:
          p.payload = query_order_[stored_count_++ % query_order_.size()];
          break;
        case Kind::kInline:
          p.payload = inline_count_++ % csv_files_.size();
          break;
        case Kind::kMatch:
          p.payload = match_count_++ % match_pairs_.size();
          break;
        case Kind::kAppend:
          p.payload = append_count_++ % slices_.size();
          p.slice = next_slice_[p.payload]++;
          // Every slice has been sent: stop planning appends.
          if (p.slice >= slices_[p.payload].appends.size()) return plan;
          break;
        case Kind::kInsert:
          p.payload = insert_count_++ % csv_files_.size();
          break;
      }
      plan.push_back(p);
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Load

Table Serve::ReadCsv(const std::string& path, Outcome& out, Tracer& tracer) {
  Span span(tracer, "table.read_csv", Layer::kTable, out.op_id, out.root_span);
  Table table = depmatch::ReadCsvFile(path, {}).value();
  out.csv_ms += span.End();
  out.csv_bytes += static_cast<double>(std::filesystem::file_size(path));
  return table;
}

Request Serve::MakeRequest(Outcome& out, Tracer& tracer) {
  Request request;
  request.request_id = out.op_id;
  const Planned& p = out.plan;
  switch (p.kind) {
    case Kind::kStored:
      request.type = RequestType::kSearch;
      request.search.source = SearchSource::kStoredEntry;
      request.search.stored_name = QueryName(p.payload);
      request.search.k = kTopK;
      request.search.options = SearchWireOptions();
      break;
    case Kind::kInline:
      request.type = RequestType::kSearch;
      request.search.source = SearchSource::kInlineTable;
      request.search.table = ReadCsv(csv_files_[p.payload], out, tracer);
      request.search.k = kInlineTopK;
      request.search.options = SearchWireOptions();
      break;
    case Kind::kMatch:
      request.type = RequestType::kMatchTables;
      request.match.source = ReadCsv(match_pairs_[p.payload].source_csv, out, tracer);
      request.match.target = ReadCsv(match_pairs_[p.payload].target_csv, out, tracer);
      break;
    case Kind::kAppend:
      request.type = RequestType::kAppend;
      request.append.name = LabName(p.payload);
      request.append.table = slices_[p.payload].appends[p.slice];
      break;
    case Kind::kInsert:
      request.type = RequestType::kInsert;
      request.insert.name = StrFormat("new%06llu", static_cast<unsigned long long>(out.op_id));
      request.insert.table = ReadCsv(csv_files_[p.payload], out, tracer);
      break;
  }
  return request;
}

Request Serve::Rebuild(const Outcome& out) {
  Outcome copy;
  copy.plan = out.plan;
  copy.op_id = out.op_id;
  return MakeRequest(copy, DisabledTracer());
}

void Serve::Send(ServiceClient& client, Outcome& out, Tracer& tracer) {
  AtomicMax(in_flight_max_, ++in_flight_);
  out.root_span = tracer.NewId();
  out.acked_before = acked_version_.load();
  out.sent = Clock::now();
  depmatch::Result<Response> response = client.Call(MakeRequest(out, tracer));
  out.done = Clock::now();
  --in_flight_;
  if (response.ok()) {
    out.ok = response->status == WireStatus::kOk;
    out.response = *std::move(response);
    if (out.ok && out.plan.kind == Kind::kAppend) {
      AtomicMax(acked_version_, out.response.append.snapshot_version);
    } else if (out.ok && out.plan.kind == Kind::kInsert) {
      AtomicMax(acked_version_, out.response.insert.snapshot_version);
    }
  }
  if (tracer.enabled()) {
    // The request as the user sees it, from its due time: the time a
    // busy generator made it wait, then the round trip.
    if (out.sent > out.due) {
      tracer.Record({tracer.NewId(), out.root_span, out.op_id, Layer::kGen,
                     "gen.wait", out.due, out.sent});
    }
    tracer.Record({out.root_span, 0, out.op_id, Layer::kService,
                   std::string("service.") + KindName(out.plan.kind), out.due,
                   out.done});
  }
}

void Serve::OnConnections(const std::function<void(ServiceClient&)>& worker) {
  // One dedicated pool thread per connection: each blocks on its own
  // socket for the whole phase.
  depmatch::ThreadPool pool(kConnections);
  for (size_t w = 0; w < kConnections; ++w) {
    pool.Schedule([&] {
      depmatch::Result<ServiceClient> client = ServiceClient::Connect(socket_path_);
      // Without a connection its requests stay !ok and fail the run.
      if (client.ok()) worker(*client);
    });
  }
  pool.Wait();
}

std::vector<Outcome> Serve::Plan(const std::vector<Planned>& plan) {
  std::vector<Outcome> outcomes(plan.size());
  for (size_t i = 0; i < plan.size(); ++i) {
    outcomes[i].plan = plan[i];
    outcomes[i].op_id = ++next_op_;
  }
  return outcomes;
}

std::vector<Outcome> Serve::OpenLoop(const std::vector<Planned>& plan, double rate,
                                     bool traced) {
  Tracer& tracer = traced ? tracer_ : DisabledTracer();
  std::vector<Outcome> outcomes = Plan(plan);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto gap = std::chrono::duration<double>(1.0 / rate);
  OnConnections([&](ServiceClient& client) {
    for (size_t i = next++; i < outcomes.size(); i = next++) {
      Outcome& out = outcomes[i];
      out.due = start + std::chrono::duration_cast<Clock::duration>(
                            gap * static_cast<double>(i));
      if (Clock::now() < out.due) {
        std::this_thread::sleep_until(out.due);
        out.late_ms = MsSince(out.due);
      }
      Send(client, out, tracer);
    }
  });
  return outcomes;
}

std::vector<Outcome> Serve::ClosedLoop(const std::vector<Planned>& plan,
                                       double seconds, Clock::time_point* start) {
  std::vector<Outcome> outcomes = Plan(plan);
  *start = Clock::now();
  const Clock::time_point deadline =
      *start + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  size_t sent = 0;
  depmatch::Result<ServiceClient> client = ServiceClient::Connect(socket_path_);
  // Without a connection the first request stays !ok and fails the run.
  while (client.ok() && sent < outcomes.size() && Clock::now() < deadline) {
    outcomes[sent].due = Clock::now();
    Send(*client, outcomes[sent++], DisabledTracer());
  }
  outcomes.resize(std::max<size_t>(sent, 1));
  return outcomes;
}

// ---------------------------------------------------------------------------
// Checks

void Serve::CountFailed(const std::vector<Outcome>& outcomes) {
  uint64_t failed = 0;
  for (const Outcome& out : outcomes) {
    if (!out.ok) ++failed;
  }
  report_.CountOps(outcomes.size(), failed);
  if (failed > 0) {
    report_.Fail(StrFormat("%llu of %zu requests failed or were shed",
                           static_cast<unsigned long long>(failed), outcomes.size()));
  }
}

void Serve::CheckAgainstSnapshots(const std::vector<Outcome>& outcomes) {
  MatchService& service = server_->match_service();
  // Execution is deterministic, so each distinct (kind, input, snapshot)
  // is executed once and every response that asked it must equal it.
  using Key = std::tuple<Kind, size_t, uint64_t>;
  std::map<Key, const Outcome*> distinct;
  for (const Outcome& out : outcomes) {
    if (!out.ok) continue;
    uint64_t version = out.plan.kind == Kind::kMatch ? 0 : out.response.search.snapshot_version;
    distinct.emplace(Key{out.plan.kind, out.plan.payload, version}, &out);
  }
  std::vector<std::pair<Key, const Outcome*>> work(distinct.begin(), distinct.end());
  std::vector<Response> references(work.size());
  std::vector<char> resolved(work.size(), 0);
  depmatch::ThreadPool::ParallelFor(kConnections, work.size(), [&](size_t i) {
    const Outcome& out = *work[i].second;
    const Request request = Rebuild(out);
    if (out.plan.kind == Kind::kMatch) {
      references[i] = MatchService::ExecuteMatchDirect(request, nullptr);
      resolved[i] = 1;
      return;
    }
    std::shared_ptr<const ServiceSnapshot> snapshot =
        service.SnapshotAt(std::get<2>(work[i].first));
    if (snapshot == nullptr) return;
    references[i] = MatchService::ExecuteSearchDirect(request, *snapshot, options_);
    resolved[i] = 1;
  });
  std::map<Key, size_t> index;
  for (size_t i = 0; i < work.size(); ++i) index[work[i].first] = i;
  size_t mismatched = 0, unresolved = 0;
  for (const Outcome& out : outcomes) {
    if (!out.ok) continue;
    uint64_t version = out.plan.kind == Kind::kMatch ? 0 : out.response.search.snapshot_version;
    size_t i = index[Key{out.plan.kind, out.plan.payload, version}];
    if (!resolved[i]) {
      ++unresolved;
    } else if (!SameResponse(out.response, references[i])) {
      ++mismatched;
    }
  }
  if (mismatched > 0 || unresolved > 0) {
    report_.Fail(StrFormat(
        "%zu responses differ from a direct execution against their snapshot, "
        "%zu name a snapshot no longer retained",
        mismatched, unresolved));
  }
}

void Serve::CheckIngest(const std::vector<Outcome>& outcomes) {
  // Publication versions strictly increase: every write acks a version
  // no other write acked, newer than any acked before it was sent; a
  // search sent after an ack sees at least that version. Each entry's
  // slices must also be applied in the order they were sent.
  std::vector<std::vector<const Outcome*>> by_entry(slices_.size());
  std::vector<uint64_t> versions;
  for (const Outcome& out : outcomes) {
    if (!out.ok) continue;
    uint64_t version = 0;
    if (out.plan.kind == Kind::kAppend) {
      by_entry[out.plan.payload].push_back(&out);
      version = out.response.append.snapshot_version;
      versions.push_back(version);
    } else if (out.plan.kind == Kind::kInsert) {
      version = out.response.insert.snapshot_version;
      versions.push_back(version);
    } else {
      version = out.response.search.snapshot_version;
    }
    const bool is_write = out.plan.kind != Kind::kStored;
    if (is_write ? version <= out.acked_before : version < out.acked_before) {
      report_.Fail(StrFormat("%s %llu saw version %llu after %llu was acked",
                             KindName(out.plan.kind),
                             static_cast<unsigned long long>(out.op_id),
                             static_cast<unsigned long long>(version),
                             static_cast<unsigned long long>(out.acked_before)));
    }
  }
  std::sort(versions.begin(), versions.end());
  if (std::adjacent_find(versions.begin(), versions.end()) != versions.end()) {
    report_.Fail("two publications acknowledged the same snapshot version");
  }
  std::shared_ptr<const ServiceSnapshot> final_snapshot =
      server_->match_service().snapshot();
  const GraphCatalog& catalog = final_snapshot->catalog;
  std::vector<char> same(slices_.size(), 0);
  depmatch::ThreadPool::ParallelFor(kConnections, slices_.size(), [&](size_t e) {
    std::vector<const Outcome*>& applied = by_entry[e];
    std::sort(applied.begin(), applied.end(), [](const Outcome* a, const Outcome* b) {
      return a->response.append.snapshot_version < b->response.append.snapshot_version;
    });
    std::vector<Table> deltas;
    for (size_t i = 0; i < applied.size(); ++i) {
      if (i > 0 && applied[i]->plan.slice <= applied[i - 1]->plan.slice) return;
      deltas.push_back(slices_[e].appends[applied[i]->plan.slice]);
    }
    depmatch::Result<Table> all =
        depmatch::datagen::ConcatenateSlices(slices_[e].base, deltas);
    depmatch::Result<size_t> entry = catalog.Find(LabName(e));
    if (!all.ok() || !entry.ok()) return;
    depmatch::Result<DependencyGraph> cold = depmatch::BuildDependencyGraph(*all);
    same[e] = cold.ok() && SameGraph(*cold, catalog.graph(*entry));
  });
  for (size_t e = 0; e < slices_.size(); ++e) {
    if (!same[e]) {
      report_.Fail(StrFormat("%s: appended graph differs from a cold build of "
                             "its concatenated slices (or slices applied out of order)",
                             LabName(e).c_str()));
    }
  }
}

void Serve::AddPrecision(const std::vector<Outcome>& outcomes) {
  std::shared_ptr<const ServiceSnapshot> snapshot = server_->match_service().snapshot();
  const GraphCatalog& catalog = snapshot->catalog;
  size_t correct = 0, total = 0;
  for (const Outcome& out : outcomes) {
    if (!out.ok) continue;
    const auto& hits = out.response.search.hits;
    switch (out.plan.kind) {
      case Kind::kStored: {
        // The query itself ranks first; the best other hit should be a
        // perturbation of the corpus query, matched by the identity.
        total += kLabWidth;
        for (const auto& hit : hits) {
          if (hit.name == QueryName(out.plan.payload)) continue;
          depmatch::Result<size_t> entry = catalog.Find(hit.name);
          if (entry.ok() && IsQueryPerturbation(catalog.graph(*entry), kLabWidth)) {
            correct += IdentityPairs(hit.pairs);
          }
          break;
        }
        break;
      }
      case Kind::kInline:
        // The entry the CSV was stored from should rank first.
        total += kLabWidth;
        if (!hits.empty() && hits.front().name == LabName(out.plan.payload)) {
          correct += IdentityPairs(hits.front().pairs);
        }
        break;
      case Kind::kMatch: {
        std::vector<depmatch::MatchPair> pairs;
        for (const auto& c : out.response.match.correspondences) {
          pairs.push_back({static_cast<size_t>(c.source_index),
                           static_cast<size_t>(c.target_index)});
        }
        total += kLabWidth;
        correct += CorrectPairs(pairs, match_pairs_[out.plan.payload].permutation);
        break;
      }
      case Kind::kAppend:
      case Kind::kInsert:
        break;
    }
  }
  report_.Add("match_precision",
              total > 0 ? static_cast<double>(correct) / static_cast<double>(total) : 0.0,
              "ratio", total);
}

// ---------------------------------------------------------------------------
// Trace replay

void Serve::ReplayWireCost(const Outcome& out, const Request& request) {
  const uint64_t op = out.op_id, parent = out.root_span;
  Span encode_request(tracer_, "service.encode_request", Layer::kService, op, parent);
  std::string request_frame = depmatch::service::EncodeRequest(request);
  encode_request.End();
  Span decode_request(tracer_, "service.decode_request", Layer::kService, op, parent);
  bool request_ok = depmatch::service::DecodeRequest(request_frame).ok();
  decode_request.End();
  Span encode_response(tracer_, "service.encode_response", Layer::kService, op, parent);
  std::string response_frame = depmatch::service::EncodeResponse(out.response);
  encode_response.End();
  Span decode_response(tracer_, "service.decode_response", Layer::kService, op, parent);
  bool response_ok = depmatch::service::DecodeResponse(response_frame).ok();
  decode_response.End();
  if (!request_ok || !response_ok) report_.Fail("wire round trip failed in replay");
  counters_.requests += 1;
  counters_.request_bytes += static_cast<double>(request_frame.size());
  counters_.response_bytes += static_cast<double>(response_frame.size());
  counters_.csv_ms += out.csv_ms;
  counters_.csv_bytes += out.csv_bytes;
}

void Serve::ReplaySearch(const Outcome& out, const Request& request,
                         const ServiceSnapshot& snapshot) {
  const uint64_t op = out.op_id, parent = out.root_span;
  double pieces_ms = out.csv_ms;
  DependencyGraph built;
  const DependencyGraph* query = nullptr;
  if (request.search.source == SearchSource::kInlineTable) {
    Span span(tracer_, "graph.build", Layer::kGraph, op, parent);
    built = depmatch::BuildDependencyGraph(request.search.table).value();
    double ms = span.End();
    pieces_ms += ms;
    counters_.AddGraphWork(request.search.table, ms);
    query = &built;
  } else {
    query = &snapshot.catalog.graph(snapshot.catalog.Find(request.search.stored_name).value());
  }
  const depmatch::CatalogSearchOptions options = ResolveSearch(request, options_);
  Span search(tracer_, "core.search", Layer::kCore, op, parent);
  depmatch::Result<depmatch::CatalogSearchResult> result =
      depmatch::SearchCatalog(*query, snapshot.catalog, options);
  const double search_ms = search.End();
  pieces_ms += search_ms;
  bool same = result.ok() && result->ranked.size() == out.response.search.hits.size();
  std::vector<double> ranked_ms;
  for (size_t i = 0; same && i < result->ranked.size(); ++i) {
    const depmatch::CatalogMatch& hit = result->ranked[i];
    Span span(tracer_, "match.graphmatch", Layer::kMatch, op, search.id());
    depmatch::Result<depmatch::MatchResult> m =
        depmatch::MatchGraphs(*query, snapshot.catalog.graph(hit.entry), options.match);
    ranked_ms.push_back(span.End());
    counters_.graphmatch_calls += 1;
    const auto& served = out.response.search.hits[i];
    same = m.ok() && SameMatch(*m, hit.match) && served.name == hit.name &&
           served.pairs == hit.match.pairs &&
           BitEqual(served.ranking_key, hit.ranking_key);
    if (m.ok()) {
      counters_.nodes_explored += static_cast<double>(m->nodes_explored);
      counters_.budget_exhausted += m->budget_exhausted ? 1.0 : 0.0;
    }
  }
  if (!same) {
    report_.Fail(StrFormat("request %llu: replay as SearchCatalog + MatchGraphs "
                           "differs from the served response",
                           static_cast<unsigned long long>(op)));
    return;
  }
  counters_.AddSearch(result->stats, search_ms, ranked_ms);
  counters_.coverage.push_back(pieces_ms / out.LatencyMs());
  ReplayWireCost(out, request);
  ExecuteDirect(out, request, &snapshot);
}

void Serve::ReplayMatch(const Outcome& out, const Request& request) {
  const uint64_t op = out.op_id, parent = out.root_span;
  double pieces_ms = out.csv_ms;
  const depmatch::MatchOptions match = request.match.options.ToMatchOptions(1);
  Span build_source(tracer_, "graph.build", Layer::kGraph, op, parent);
  depmatch::Result<DependencyGraph> gs = depmatch::BuildDependencyGraph(request.match.source);
  const double source_ms = build_source.End();
  Span build_target(tracer_, "graph.build", Layer::kGraph, op, parent);
  depmatch::Result<DependencyGraph> gt = depmatch::BuildDependencyGraph(request.match.target);
  const double target_ms = build_target.End();
  Span graphmatch(tracer_, "match.graphmatch", Layer::kMatch, op, parent);
  depmatch::Result<depmatch::MatchResult> m =
      gs.ok() && gt.ok() ? depmatch::MatchGraphs(*gs, *gt, match)
                         : depmatch::Result<depmatch::MatchResult>(gs.status());
  double match_ms = graphmatch.End();
  bool same = m.ok() && BitEqual(m->metric_value, out.response.match.metric_value) &&
              m->pairs.size() == out.response.match.correspondences.size();
  for (size_t i = 0; same && i < m->pairs.size(); ++i) {
    same = m->pairs[i].source == out.response.match.correspondences[i].source_index &&
           m->pairs[i].target == out.response.match.correspondences[i].target_index;
  }
  if (!same) {
    report_.Fail(StrFormat("request %llu: replay as BuildDependencyGraph x2 + "
                           "MatchGraphs differs from the served MatchTables",
                           static_cast<unsigned long long>(op)));
    return;
  }
  counters_.AddGraphWork(request.match.source, source_ms);
  counters_.AddGraphWork(request.match.target, target_ms);
  counters_.graphmatch_calls += 1;
  counters_.nodes_explored += static_cast<double>(m->nodes_explored);
  counters_.budget_exhausted += m->budget_exhausted ? 1.0 : 0.0;
  counters_.coverage.push_back((pieces_ms + source_ms + target_ms + match_ms) /
                               out.LatencyMs());
  ReplayWireCost(out, request);
  ExecuteDirect(out, request, nullptr);
}

void Serve::ExecuteDirect(const Outcome& out, const Request& request,
                          const ServiceSnapshot* snapshot) {
  const Clock::time_point start = Clock::now();
  const Response reference =
      snapshot == nullptr ? MatchService::ExecuteMatchDirect(request, nullptr)
                          : MatchService::ExecuteSearchDirect(request, *snapshot, options_);
  const double ms = MsSince(start);
  if (!SameResponse(out.response, reference)) {
    report_.Fail(StrFormat("request %llu: direct execution differs from the served response",
                           static_cast<unsigned long long>(out.op_id)));
  }
  const std::string type = KindName(out.plan.kind);
  counters_.execute_ms[type].push_back(ms);
  counters_.overhead_ms[type].push_back(out.LatencyMs() - ms);
  counters_.overhead_share.push_back((out.LatencyMs() - ms) / out.LatencyMs());
}

void Serve::ReplayIngest(const std::vector<Outcome>& untraced,
                         const std::vector<Outcome>& traced,
                         std::shared_ptr<const ServiceSnapshot> start) {
  // Count state as the server holds it when the traced phase starts: the
  // base rows plus every slice the untraced phase appended, in order.
  std::vector<const Outcome*> before;
  for (const Outcome& out : untraced) {
    if (out.ok && out.plan.kind == Kind::kAppend) before.push_back(&out);
  }
  std::sort(before.begin(), before.end(), [](const Outcome* a, const Outcome* b) {
    return a->response.append.snapshot_version < b->response.append.snapshot_version;
  });
  std::vector<IncrementalGraphBuilder> builders;
  for (const auto& slices : slices_) {
    builders.push_back(IncrementalGraphBuilder::Create(slices.base).value());
  }
  for (const Outcome* out : before) {
    DEPMATCH_CHECK(builders[out->plan.payload]
                       .Append(slices_[out->plan.payload].appends[out->plan.slice])
                       .ok());
  }
  for (IncrementalGraphBuilder& builder : builders) DEPMATCH_CHECK(builder.Refresh().ok());

  // Publications in version order, each followed by the searches that
  // read the snapshot it published.
  std::vector<const Outcome*> writes;
  std::multimap<uint64_t, const Outcome*> reads;
  for (const Outcome& out : traced) {
    if (!out.ok) continue;
    if (out.plan.kind == Kind::kStored) {
      reads.emplace(out.response.search.snapshot_version, &out);
    } else {
      writes.push_back(&out);
    }
  }
  auto version_of = [](const Outcome* out) {
    return out->plan.kind == Kind::kAppend ? out->response.append.snapshot_version
                                           : out->response.insert.snapshot_version;
  };
  std::sort(writes.begin(), writes.end(),
            [&](const Outcome* a, const Outcome* b) { return version_of(a) < version_of(b); });

  std::shared_ptr<const ServiceSnapshot> current = std::move(start);
  size_t reads_replayed = 0;
  auto replay_reads = [&](uint64_t version) {
    auto [lo, hi] = reads.equal_range(version);
    for (auto it = lo; it != hi; ++it, ++reads_replayed) {
      ReplaySearch(*it->second, Rebuild(*it->second), *current);
    }
  };
  replay_reads(current->version);
  for (const Outcome* out : writes) {
    const uint64_t version = version_of(out);
    if (version != current->version + 1) {
      report_.Fail(StrFormat("traced publications skip from version %llu to %llu",
                             static_cast<unsigned long long>(current->version),
                             static_cast<unsigned long long>(version)));
      return;
    }
    const uint64_t op = out->op_id, parent = out->root_span;
    const Request request = Rebuild(*out);
    double pieces_ms = out->csv_ms;
    DependencyGraph graph;
    if (out->plan.kind == Kind::kAppend) {
      IncrementalGraphBuilder& builder = builders[out->plan.payload];
      Span append(tracer_, "graph.append", Layer::kGraph, op, parent);
      DEPMATCH_CHECK(builder.Append(request.append.table).ok());
      append.End();
      Span refresh(tracer_, "graph.refresh", Layer::kGraph, op, parent);
      graph = builder.Refresh().value();
      double ms = append.End() + refresh.End();
      pieces_ms += ms;
      counters_.AddGraphWork(request.append.table, ms);
      counters_.refreshed_columns +=
          static_cast<double>(builder.last_refreshed_columns().size());
    } else {
      Span create(tracer_, "graph.create", Layer::kGraph, op, parent);
      graph = IncrementalGraphBuilder::Create(request.insert.table).value().graph();
      double ms = create.End();
      pieces_ms += ms;
      counters_.AddGraphWork(request.insert.table, ms);
    }
    Span copy(tracer_, "core.catalog_copy", Layer::kCore, op, parent);
    GraphCatalog next = current->catalog;
    pieces_ms += copy.End();
    std::shared_ptr<const ServiceSnapshot> published;
    if (out->plan.kind == Kind::kAppend) {
      Span update(tracer_, "core.update_entry", Layer::kCore, op, parent);
      DEPMATCH_CHECK(next.UpdateEntry(request.append.name, std::move(graph),
                                      options_.index).ok());
      pieces_ms += update.End();
      Span publish(tracer_, "service.publish", Layer::kService, op, parent);
      published = depmatch::service::MakeServiceSnapshotPreservingIndex(version,
                                                                        std::move(next));
      pieces_ms += publish.End();
    } else {
      Span insert(tracer_, "core.catalog_insert", Layer::kCore, op, parent);
      DEPMATCH_CHECK(next.Insert(request.insert.name, std::move(graph)).ok());
      pieces_ms += insert.End();
      Span publish(tracer_, "service.publish", Layer::kService, op, parent);
      published = depmatch::service::MakeServiceSnapshot(
          version, std::move(next), options_.build_index, options_.index);
      pieces_ms += publish.End();
    }
    // The server releases the snapshot this one displaces on the request
    // path too, when it drops it from its history.
    Span release(tracer_, "core.catalog_release", Layer::kCore, op, parent);
    current = std::move(published);
    pieces_ms += release.End();
    counters_.coverage.push_back(pieces_ms / out->LatencyMs());
    ReplayWireCost(*out, request);
    replay_reads(version);
  }

  // The rebuilt history must end where the server did.
  std::shared_ptr<const ServiceSnapshot> served = server_->match_service().snapshot();
  bool same = served->version == current->version &&
              served->catalog.size() == current->catalog.size();
  for (size_t i = 0; same && i < served->catalog.size(); ++i) {
    same = served->catalog.name(i) == current->catalog.name(i) &&
           SameGraph(served->catalog.graph(i), current->catalog.graph(i));
  }
  if (!same) report_.Fail("replayed publications do not reproduce the served catalog");
  if (reads_replayed != reads.size()) {
    report_.Fail("a traced search names a snapshot the traced phase did not publish");
  }
}

// ---------------------------------------------------------------------------

void Serve::Run() {
  Setup();
  const double rate = ingest_ ? kIngestRate : kSearchRate;
  const Kind main_kind = ingest_ ? Kind::kAppend : Kind::kStored;
  const Kind second_kind = ingest_ ? Kind::kStored : Kind::kInline;
  MatchService& service = server_->match_service();
  auto latencies = [](const std::vector<Outcome>& outcomes, Kind kind) {
    std::vector<double> ms;
    for (const Outcome& out : outcomes) {
      if (out.ok && out.plan.kind == kind) ms.push_back(out.LatencyMs());
    }
    return ms;
  };
  auto open_count = [&](double seconds) {
    return std::max<size_t>(config_.smoke ? 2 * kMixBlock : 1,
                            static_cast<size_t>(rate * seconds));
  };

  if (config_.trace) {
    std::vector<Outcome> plain =
        OpenLoop(Schedule(open_count(config_.seconds * kUntracedShare)), rate, false);
    std::shared_ptr<const ServiceSnapshot> start = service.snapshot();
    depmatch::service::StatsResponse before = service.Stats();
    in_flight_max_ = 0;
    std::vector<Outcome> traced = OpenLoop(
        Schedule(open_count(config_.seconds * (1.0 - kUntracedShare))), rate, true);
    depmatch::service::StatsResponse after = service.Stats();
    CountFailed(plain);
    CountFailed(traced);
    counters_.untraced_p50_ms = Median(latencies(plain, main_kind));
    counters_.traced_p50_ms = Median(latencies(traced, main_kind));
    counters_.batches = static_cast<double>(after.batches_total - before.batches_total);
    counters_.batched_requests =
        static_cast<double>(after.batched_requests_total - before.batched_requests_total);
    counters_.max_queue_depth = static_cast<double>(after.max_queue_depth_seen);
    counters_.shed_overload =
        static_cast<double>(after.shed_overload_total - before.shed_overload_total);
    counters_.shed_deadline =
        static_cast<double>(after.shed_deadline_total - before.shed_deadline_total);
    counters_.stat_cache_hits =
        static_cast<double>(after.stat_cache_hits - before.stat_cache_hits);
    counters_.stat_cache_lookups = static_cast<double>(
        after.stat_cache_hits + after.stat_cache_misses - before.stat_cache_hits -
        before.stat_cache_misses);
    counters_.late_ms = Lateness(traced);
    counters_.gap_ms = 1000.0 / rate;
    counters_.inflight_max = static_cast<double>(in_flight_max_.load());
    if (ingest_) {
      ReplayIngest(plain, traced, std::move(start));
    } else {
      for (const Outcome& out : traced) {
        if (!out.ok) continue;
        if (out.plan.kind == Kind::kMatch) {
          ReplayMatch(out, Rebuild(out));
        } else {
          ReplaySearch(out, Rebuild(out),
                       *service.SnapshotAt(out.response.search.snapshot_version));
        }
      }
    }
    AddLayerMetrics(tracer_, counters_, report_);
    server_->Stop();
    return;
  }

  // Phase A: open loop at the fixed rate.
  std::vector<Outcome> open =
      OpenLoop(Schedule(open_count(config_.seconds * kOpenShare)), rate, false);
  // Phase B: the same mix back to back from one client. The plan is
  // capped well above what one client can send; appends stop when every
  // slice was sent.
  const double closed_s = config_.seconds * (1.0 - kOpenShare);
  Clock::time_point closed_start;
  std::vector<Outcome> closed = ClosedLoop(
      Schedule(static_cast<size_t>(1000.0 * closed_s) + kMixBlock), closed_s, &closed_start);

  CountFailed(open);
  CountFailed(closed);

  // The open-loop sender must keep its schedule for the offered load to
  // be the one intended. Its lateness is judged at the largest percentile
  // the sample supports (p90 for 100-199 wakeups): at p99 two late
  // wakeups in a stall of the host would fail a run.
  const double gap_ms = 1000.0 / rate;
  const SupportedTail late_tail = LargestSupportedTail(Lateness(open));
  if (late_tail.pct > 50.0 && late_tail.value > 0.1 * gap_ms) {
    report_.Fail(StrFormat("open-loop sender p%g lateness %.2f ms exceeds 10%% of "
                           "the %.1f ms inter-arrival gap: run invalid",
                           late_tail.pct, late_tail.value, gap_ms));
  }
  std::printf("gen: open loop %zu requests at %g/s, sender p%g late %.3f ms "
              "(gap %.1f ms), max in flight %llu\n",
              open.size(), rate, late_tail.pct, late_tail.value, gap_ms,
              static_cast<unsigned long long>(in_flight_max_.load()));

  if (ingest_) {
    std::vector<Outcome> all = open;
    all.insert(all.end(), closed.begin(), closed.end());
    CheckIngest(all);
  } else {
    CheckAgainstSnapshots(open);
    CheckAgainstSnapshots(closed);
  }

  report_.Add("peak_rss_mb", PeakRssMb(), "MB");
  report_.AddPercentile("op_p50_ms", latencies(open, main_kind), 50.0);
  report_.AddPercentile("op_tail_ms", latencies(open, main_kind), config_.tail_pct());
  report_.AddPercentile("op2_p50_ms", latencies(open, second_kind), 50.0);
  // Phase B is rated over whole blocks of the mix, so every run of
  // completions holds the same requests, leaving out the blocks that end
  // within its first second: idle vCPUs of the reference host (a VM)
  // take ~1-1.5 s to reach full speed.
  const Clock::time_point ramp_end =
      closed_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(std::min(kRampS, closed_s / 2)));
  std::vector<Clock::time_point> done;
  for (const Outcome& out : closed) done.push_back(out.done);
  size_t first = 0;
  while (first + kMixBlock <= done.size() && done[first + kMixBlock - 1] <= ramp_end) {
    first += kMixBlock;
  }
  const Clock::time_point rate_start = first == 0 ? closed_start : done[first - 1];
  done.erase(done.begin(), done.begin() + static_cast<std::ptrdiff_t>(first));
  report_.Add("ops_per_s", MedianRatePerS(done, rate_start, kMixBlock), "1/s", done.size());
  AddPrecision(open);
  server_->Stop();
}

}  // namespace

void RunServeSearch(const RunConfig& config, Tracer& tracer, RunReport& report) {
  Serve(config, tracer, report, /*ingest=*/false).Run();
}

void RunServeIngest(const RunConfig& config, Tracer& tracer, RunReport& report) {
  Serve(config, tracer, report, /*ingest=*/true).Run();
}

}  // namespace depbench
