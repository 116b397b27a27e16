// MatchService contract: admission (bounded queue, explicit
// kOverloaded), deadline shedding, copy-on-write snapshot publication,
// snapshot history, shutdown draining, and — throughout — bit-identity
// of served responses with direct library calls against the snapshot
// each response names. The dispatcher test hooks (PauseForTest /
// ResumeForTest) make the queueing outcomes deterministic: a paused
// dispatcher cannot drain, so admission decisions are observed exactly.

#include "depmatch/service/match_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "depmatch/datagen/graph_corpus.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/service/protocol.h"
#include "depmatch/service/snapshot.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace service {
namespace {

constexpr size_t kCorpusEntries = 5;

GraphCatalog MakeCatalog(size_t entries = kCorpusEntries) {
  GraphCatalog catalog;
  GraphCorpusOptions corpus;
  for (size_t i = 0; i < entries; ++i) {
    EXPECT_TRUE(catalog.Insert(CorpusEntryName(i), CorpusEntry(corpus, i)).ok());
  }
  return catalog;
}

Table MakeSmallTable(uint64_t seed) {
  Result<Schema> schema = Schema::Create({
      {"a", DataType::kInt64},
      {"b", DataType::kInt64},
      {"c", DataType::kInt64},
  });
  EXPECT_TRUE(schema.ok());
  TableBuilder builder(*schema);
  for (size_t r = 0; r < 64; ++r) {
    uint64_t base = (seed + r * 2654435761u) % 8;
    builder.AppendValue(0, Value(static_cast<int64_t>(base)));
    builder.AppendValue(1, Value(static_cast<int64_t>(base / 2)));
    builder.AppendValue(2, Value(static_cast<int64_t>((base + r % 3) % 5)));
  }
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

Request SearchStoredRequest(std::string name, uint64_t k,
                            uint64_t request_id) {
  Request request;
  request.type = RequestType::kSearch;
  request.request_id = request_id;
  request.search.source = SearchSource::kStoredEntry;
  request.search.stored_name = std::move(name);
  request.search.k = k;
  return request;
}

void ExpectBitIdenticalSearch(const Response& served,
                              const Response& direct) {
  ASSERT_EQ(served.status, direct.status);
  ASSERT_EQ(served.search.hits.size(), direct.search.hits.size());
  for (size_t i = 0; i < served.search.hits.size(); ++i) {
    const SearchHit& a = served.search.hits[i];
    const SearchHit& b = direct.search.hits[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.entry, b.entry);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.ranking_key),
              std::bit_cast<uint64_t>(b.ranking_key));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.normalized_score),
              std::bit_cast<uint64_t>(b.normalized_score));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.metric_value),
              std::bit_cast<uint64_t>(b.metric_value));
    EXPECT_EQ(a.pairs, b.pairs);
  }
}

// Row-wise concatenation through the public Table API — the reference
// "cold" table an appended entry must be bit-identical to.
Table ConcatRows(const Table& base, const Table& delta) {
  TableBuilder builder(base.schema());
  for (const Table* part : {&base, &delta}) {
    for (size_t r = 0; r < part->num_rows(); ++r) {
      for (size_t c = 0; c < part->num_attributes(); ++c) {
        builder.AppendValue(c, part->GetValue(r, c));
      }
    }
  }
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

void ExpectBitIdenticalGraphs(const DependencyGraph& a,
                              const DependencyGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.name(i), b.name(i));
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a.mi(i, j)),
                std::bit_cast<uint64_t>(b.mi(i, j)))
          << "cell " << i << "," << j;
    }
  }
}

Request AppendRequestFor(std::string name, Table delta, uint64_t request_id) {
  Request request;
  request.type = RequestType::kAppend;
  request.request_id = request_id;
  request.append.name = std::move(name);
  request.append.table = std::move(delta);
  return request;
}

TEST(MatchServiceTest, StatsAnsweredInlineWithCatalogShape) {
  MatchService service(MakeCatalog(), {});
  Request request;
  request.type = RequestType::kStats;
  request.request_id = 1;
  Response response = service.Process(request);
  EXPECT_EQ(response.status, WireStatus::kOk);
  EXPECT_EQ(response.stats.snapshot_version, 1u);
  EXPECT_EQ(response.stats.catalog_entries, kCorpusEntries);
  EXPECT_EQ(response.stats.queue_depth, 0u);
}

TEST(MatchServiceTest, StoredSearchIsBitIdenticalToDirectCall) {
  MatchService service(MakeCatalog(), {});
  Request request = SearchStoredRequest(CorpusEntryName(1), 3, 2);
  Response served = service.Process(request);
  ASSERT_EQ(served.status, WireStatus::kOk);
  ASSERT_FALSE(served.search.hits.empty());
  // A stored entry's best match is itself.
  EXPECT_EQ(served.search.hits.front().name, CorpusEntryName(1));
  EXPECT_EQ(served.search.snapshot_version, 1u);

  Response direct = MatchService::ExecuteSearchDirect(
      request, *service.snapshot(), service.options());
  ExpectBitIdenticalSearch(served, direct);
}

TEST(MatchServiceTest, MatchTablesIsBitIdenticalToDirectCall) {
  MatchService service(MakeCatalog(1), {});
  Request request;
  request.type = RequestType::kMatchTables;
  request.request_id = 3;
  request.match.source = MakeSmallTable(7);
  request.match.target = MakeSmallTable(7 + 32);
  Response served = service.Process(request);
  ASSERT_EQ(served.status, WireStatus::kOk);
  Response direct =
      MatchService::ExecuteMatchDirect(request, /*stat_cache=*/nullptr);
  ASSERT_EQ(direct.status, WireStatus::kOk);
  EXPECT_EQ(std::bit_cast<uint64_t>(served.match.metric_value),
            std::bit_cast<uint64_t>(direct.match.metric_value));
  ASSERT_EQ(served.match.correspondences.size(),
            direct.match.correspondences.size());
  for (size_t i = 0; i < served.match.correspondences.size(); ++i) {
    EXPECT_EQ(served.match.correspondences[i].source_index,
              direct.match.correspondences[i].source_index);
    EXPECT_EQ(served.match.correspondences[i].target_index,
              direct.match.correspondences[i].target_index);
  }
}

TEST(MatchServiceTest, SearchErrorsSurfaceCleanly) {
  MatchService service(MakeCatalog(), {});
  Response missing =
      service.Process(SearchStoredRequest("no_such_entry", 3, 4));
  EXPECT_EQ(missing.status, WireStatus::kNotFound);

  Response zero_k = service.Process(SearchStoredRequest(CorpusEntryName(0), 0, 5));
  EXPECT_EQ(zero_k.status, WireStatus::kInvalidArgument);
}

TEST(MatchServiceTest, InsertPublishesCopyOnWriteSnapshot) {
  ServiceOptions options;
  options.snapshot_history = 4;
  MatchService service(MakeCatalog(), options);

  auto before = service.snapshot();
  EXPECT_EQ(before->version, 1u);

  Request insert;
  insert.type = RequestType::kInsert;
  insert.request_id = 6;
  insert.insert.name = "fresh_entry";
  insert.insert.payload = InsertPayload::kTable;
  insert.insert.table = MakeSmallTable(21);
  Response response = service.Process(insert);
  ASSERT_EQ(response.status, WireStatus::kOk);
  EXPECT_EQ(response.insert.snapshot_version, 2u);
  EXPECT_EQ(response.insert.catalog_entries, kCorpusEntries + 1);
  EXPECT_FALSE(response.insert.replaced);

  // The old snapshot is untouched (readers never block, never see the
  // new entry) and still resolvable by version.
  EXPECT_EQ(before->catalog.size(), kCorpusEntries);
  EXPECT_EQ(service.SnapshotAt(1), before);
  auto after = service.SnapshotAt(2);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->catalog.size(), kCorpusEntries + 1);
  EXPECT_EQ(service.snapshot(), after);

  // The new entry is served from the new snapshot.
  Response search = service.Process(SearchStoredRequest("fresh_entry", 2, 7));
  ASSERT_EQ(search.status, WireStatus::kOk);
  EXPECT_EQ(search.search.snapshot_version, 2u);
  ASSERT_FALSE(search.search.hits.empty());
  EXPECT_EQ(search.search.hits.front().name, "fresh_entry");
}

TEST(MatchServiceTest, InsertRespectsReplaceExisting) {
  ServiceOptions options;
  options.snapshot_history = 4;
  MatchService service(MakeCatalog(), options);

  Request insert;
  insert.type = RequestType::kInsert;
  insert.request_id = 8;
  insert.insert.name = CorpusEntryName(0);
  insert.insert.payload = InsertPayload::kTable;
  insert.insert.table = MakeSmallTable(33);
  insert.insert.replace_existing = false;
  Response refused = service.Process(insert);
  EXPECT_EQ(refused.status, WireStatus::kAlreadyExists);
  EXPECT_EQ(service.snapshot()->version, 1u);

  insert.insert.replace_existing = true;
  Response replaced = service.Process(insert);
  ASSERT_EQ(replaced.status, WireStatus::kOk);
  EXPECT_TRUE(replaced.insert.replaced);
  EXPECT_EQ(replaced.insert.snapshot_version, 2u);
  EXPECT_EQ(replaced.insert.catalog_entries, kCorpusEntries);

  // The replaced snapshot serves exactly what a catalog built from
  // scratch with the replacement in the same slot serves.
  GraphCatalog scratch;
  GraphCorpusOptions corpus;
  Result<DependencyGraph> replacement =
      BuildDependencyGraph(insert.insert.table);
  ASSERT_TRUE(replacement.ok());
  for (size_t i = 0; i < kCorpusEntries; ++i) {
    ASSERT_TRUE(scratch
                    .Insert(CorpusEntryName(i),
                            i == 0 ? *replacement : CorpusEntry(corpus, i))
                    .ok());
  }
  std::shared_ptr<const ServiceSnapshot> rebuilt = MakeServiceSnapshot(
      2, std::move(scratch), options.build_index, options.index);
  for (size_t i = 0; i < kCorpusEntries; ++i) {
    Request search = SearchStoredRequest(CorpusEntryName(i), kCorpusEntries,
                                         9 + i);
    Response served = service.Process(search);
    ASSERT_EQ(served.status, WireStatus::kOk);
    EXPECT_EQ(served.search.snapshot_version, 2u);
    ExpectBitIdenticalSearch(
        served,
        MatchService::ExecuteSearchDirect(search, *rebuilt, service.options()));
  }
}

TEST(MatchServiceTest, AppendRefreshesEntryBitIdenticalToColdRebuild) {
  ServiceOptions options;
  options.snapshot_history = 8;
  MatchService service(MakeCatalog(), options);

  Table base = MakeSmallTable(50);
  Request insert;
  insert.type = RequestType::kInsert;
  insert.request_id = 20;
  insert.insert.name = "live_entry";
  insert.insert.payload = InsertPayload::kTable;
  insert.insert.table = base;
  ASSERT_EQ(service.Process(insert).status, WireStatus::kOk);

  // Two appends; after each, the published entry graph must equal a
  // cold BuildDependencyGraph over every row ingested so far — every
  // double bit-equal — and the snapshot lineage must stay resolvable.
  Table accumulated = base;
  for (uint64_t step = 0; step < 2; ++step) {
    Table delta = MakeSmallTable(60 + step * 17);
    accumulated = ConcatRows(accumulated, delta);
    auto before = service.snapshot();
    Response appended = service.Process(
        AppendRequestFor("live_entry", delta, 21 + step));
    ASSERT_EQ(appended.status, WireStatus::kOk) << appended.message;
    EXPECT_EQ(appended.append.snapshot_version, 3 + step);
    EXPECT_EQ(appended.append.catalog_entries, kCorpusEntries + 1);
    EXPECT_EQ(appended.append.rows_total, accumulated.num_rows());
    EXPECT_EQ(appended.append.generation, 2 + step);

    auto snapshot = service.SnapshotAt(appended.append.snapshot_version);
    ASSERT_NE(snapshot, nullptr);
    Result<size_t> entry = snapshot->catalog.Find("live_entry");
    ASSERT_TRUE(entry.ok());
    Result<DependencyGraph> cold = BuildDependencyGraph(accumulated);
    ASSERT_TRUE(cold.ok());
    ExpectBitIdenticalGraphs(snapshot->catalog.graph(*entry), *cold);

    // The publication shares every other entry with its predecessor.
    ASSERT_EQ(before->catalog.size(), snapshot->catalog.size());
    for (size_t i = 0; i < snapshot->catalog.size(); ++i) {
      if (i == *entry) {
        EXPECT_NE(&before->catalog.graph(i), &snapshot->catalog.graph(i));
      } else {
        EXPECT_EQ(&before->catalog.graph(i), &snapshot->catalog.graph(i))
            << "entry " << i;
      }
    }
  }

  // The append path must not have dropped the tiered index: the
  // published snapshot still carries one (widened in place, never
  // rebuilt), and a served search against it is bit-identical to the
  // direct call on the same snapshot.
  auto current = service.snapshot();
  EXPECT_TRUE(current->index_built);
  EXPECT_NE(current->catalog.index(), nullptr);
  Request search = SearchStoredRequest("live_entry", 3, 30);
  Response served = service.Process(search);
  ASSERT_EQ(served.status, WireStatus::kOk);
  EXPECT_EQ(served.search.hits.front().name, "live_entry");
  Response direct = MatchService::ExecuteSearchDirect(
      search, *service.SnapshotAt(served.search.snapshot_version),
      service.options());
  ExpectBitIdenticalSearch(served, direct);

  EXPECT_EQ(service.Stats().appends_total, 2u);
}

TEST(MatchServiceTest, AppendPreconditionsAreEnforced) {
  MatchService service(MakeCatalog(), {});

  // Unknown entry.
  Response missing =
      service.Process(AppendRequestFor("no_such_entry", MakeSmallTable(1), 40));
  EXPECT_EQ(missing.status, WireStatus::kNotFound);

  // Empty name.
  Response unnamed = service.Process(AppendRequestFor("", MakeSmallTable(1), 41));
  EXPECT_EQ(unnamed.status, WireStatus::kInvalidArgument);

  // The corpus entries were seeded as graphs, not tables: no count
  // state to extend.
  Response blob = service.Process(
      AppendRequestFor(CorpusEntryName(0), MakeSmallTable(1), 42));
  EXPECT_EQ(blob.status, WireStatus::kFailedPrecondition);

  // A table-backed entry loses its count state when replaced by a
  // graph blob; appends must fail from then on instead of extending
  // counts that no longer describe the entry.
  Request insert;
  insert.type = RequestType::kInsert;
  insert.request_id = 43;
  insert.insert.name = "flip";
  insert.insert.payload = InsertPayload::kTable;
  insert.insert.table = MakeSmallTable(5);
  ASSERT_EQ(service.Process(insert).status, WireStatus::kOk);
  ASSERT_EQ(service
                .Process(AppendRequestFor("flip", MakeSmallTable(6), 44))
                .status,
            WireStatus::kOk);

  Request replace;
  replace.type = RequestType::kInsert;
  replace.request_id = 45;
  replace.insert.name = "flip";
  replace.insert.payload = InsertPayload::kGraphBlob;
  replace.insert.graph = service.snapshot()->catalog.graph(
      *service.snapshot()->catalog.Find("flip"));
  ASSERT_EQ(service.Process(replace).status, WireStatus::kOk);
  Response after_blob =
      service.Process(AppendRequestFor("flip", MakeSmallTable(7), 46));
  EXPECT_EQ(after_blob.status, WireStatus::kFailedPrecondition);

  // A schema-mismatched delta is refused without mutating the entry.
  Result<Schema> other_schema = Schema::Create({{"z", DataType::kString}});
  ASSERT_TRUE(other_schema.ok());
  TableBuilder other_builder(*other_schema);
  other_builder.AppendValue(0, Value("zed"));
  Result<Table> other = std::move(other_builder).Build();
  ASSERT_TRUE(other.ok());
  Request insert2;
  insert2.type = RequestType::kInsert;
  insert2.request_id = 47;
  insert2.insert.name = "strict";
  insert2.insert.payload = InsertPayload::kTable;
  insert2.insert.table = MakeSmallTable(9);
  ASSERT_EQ(service.Process(insert2).status, WireStatus::kOk);
  uint64_t version_before = service.snapshot()->version;
  Response mismatched =
      service.Process(AppendRequestFor("strict", *std::move(other), 48));
  EXPECT_EQ(mismatched.status, WireStatus::kInvalidArgument);
  EXPECT_EQ(service.snapshot()->version, version_before);
}

TEST(MatchServiceTest, SnapshotHistoryIsBounded) {
  ServiceOptions options;
  options.snapshot_history = 2;
  MatchService service(MakeCatalog(2), options);
  for (int i = 0; i < 3; ++i) {
    Request insert;
    insert.type = RequestType::kInsert;
    insert.request_id = 10 + static_cast<uint64_t>(i);
    insert.insert.name = "extra_" + std::to_string(i);
    insert.insert.payload = InsertPayload::kTable;
    insert.insert.table = MakeSmallTable(40 + static_cast<uint64_t>(i));
    ASSERT_EQ(service.Process(insert).status, WireStatus::kOk);
  }
  // Current is 4; history holds 3 and 2; 1 has aged out.
  EXPECT_NE(service.SnapshotAt(4), nullptr);
  EXPECT_NE(service.SnapshotAt(3), nullptr);
  EXPECT_NE(service.SnapshotAt(2), nullptr);
  EXPECT_EQ(service.SnapshotAt(1), nullptr);
  EXPECT_EQ(service.SnapshotAt(99), nullptr);
}

TEST(MatchServiceTest, AdmissionShedsExactlyBeyondBound) {
  ServiceOptions options;
  options.max_queue = 3;
  MatchService service(MakeCatalog(2), options);
  service.PauseForTest();

  // Fill the queue with blocked callers.
  // depmatch-lint: allow(raw-thread)
  std::vector<std::thread> blocked;
  for (size_t i = 0; i < options.max_queue; ++i) {
    // depmatch-lint: allow(raw-thread) — admitted callers must block
    // in Process() on independent threads to hold queue slots.
    blocked.emplace_back([&service, i] {
      Response response = service.Process(
          SearchStoredRequest(CorpusEntryName(0), 2, 100 + i));
      EXPECT_EQ(response.status, WireStatus::kOk);
    });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.QueueDepthForTest() < options.max_queue &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.QueueDepthForTest(), options.max_queue);

  // The bound is hit: the next request sheds immediately (the
  // dispatcher is paused, so nothing else can be serving it).
  Response shed =
      service.Process(SearchStoredRequest(CorpusEntryName(0), 2, 200));
  EXPECT_EQ(shed.status, WireStatus::kOverloaded);

  service.ResumeForTest();
  // depmatch-lint: allow(raw-thread)
  for (std::thread& thread : blocked) thread.join();

  StatsResponse stats = service.Stats();
  EXPECT_EQ(stats.shed_overload_total, 1u);
  EXPECT_EQ(stats.accepted_total, options.max_queue);
  EXPECT_EQ(stats.completed_total, options.max_queue);
  EXPECT_EQ(stats.max_queue_depth_seen, options.max_queue);
}

TEST(MatchServiceTest, QueuedDeadlineIsShedNotServedLate) {
  MatchService service(MakeCatalog(2), {});
  service.PauseForTest();

  Request request = SearchStoredRequest(CorpusEntryName(0), 2, 300);
  request.deadline_ms = 20;
  Response response;
  // depmatch-lint: allow(raw-thread) — the caller must block in
  // Process() while the main thread out-waits the deadline.
  std::thread caller(
      [&service, &request, &response] { response = service.Process(request); });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.QueueDepthForTest() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  service.ResumeForTest();
  caller.join();
  EXPECT_EQ(response.status, WireStatus::kDeadlineExceeded);
  EXPECT_EQ(service.Stats().shed_deadline_total, 1u);
}

TEST(MatchServiceTest, DefaultDeadlineAppliesToBareRequests) {
  ServiceOptions options;
  options.default_deadline_ms = 20;
  MatchService service(MakeCatalog(2), options);
  service.PauseForTest();
  Response response;
  // depmatch-lint: allow(raw-thread) — see above.
  std::thread caller([&service, &response] {
    response =
        service.Process(SearchStoredRequest(CorpusEntryName(0), 2, 301));
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.QueueDepthForTest() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  service.ResumeForTest();
  caller.join();
  EXPECT_EQ(response.status, WireStatus::kDeadlineExceeded);
}

TEST(MatchServiceTest, StopDrainsQueueWithShuttingDown) {
  MatchService service(MakeCatalog(2), {});
  service.PauseForTest();
  Response queued_response;
  std::atomic<bool> queued_done{false};
  // depmatch-lint: allow(raw-thread) — the queued caller must block
  // across the Stop() call.
  std::thread caller([&] {
    queued_response =
        service.Process(SearchStoredRequest(CorpusEntryName(0), 2, 400));
    queued_done.store(true);
  });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.QueueDepthForTest() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.QueueDepthForTest(), 1u);

  service.Stop();
  caller.join();
  EXPECT_TRUE(queued_done.load());
  EXPECT_EQ(queued_response.status, WireStatus::kShuttingDown);

  // After Stop, new work is refused; Stop is idempotent.
  Response refused =
      service.Process(SearchStoredRequest(CorpusEntryName(0), 2, 401));
  EXPECT_EQ(refused.status, WireStatus::kShuttingDown);
  service.Stop();
}

TEST(MatchServiceTest, BatchingCoalescesConsecutiveSearches) {
  ServiceOptions options;
  options.max_batch = 8;
  options.max_queue = 16;
  MatchService service(MakeCatalog(), options);
  service.PauseForTest();

  constexpr size_t kBurst = 6;
  std::vector<Response> responses(kBurst);
  // depmatch-lint: allow(raw-thread)
  std::vector<std::thread> callers;
  for (size_t i = 0; i < kBurst; ++i) {
    // depmatch-lint: allow(raw-thread) — a burst of concurrent blocked
    // callers is what the dispatcher coalesces.
    callers.emplace_back([&service, &responses, i] {
      responses[i] = service.Process(
          SearchStoredRequest(CorpusEntryName(i % kCorpusEntries), 3,
                              500 + i));
    });
  }
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (service.QueueDepthForTest() < kBurst &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.QueueDepthForTest(), kBurst);
  service.ResumeForTest();
  // depmatch-lint: allow(raw-thread)
  for (std::thread& thread : callers) thread.join();

  auto snapshot = service.snapshot();
  for (size_t i = 0; i < kBurst; ++i) {
    ASSERT_EQ(responses[i].status, WireStatus::kOk) << responses[i].message;
    // Batched execution is unobservable in the result: bit-identical
    // to the direct call.
    Response direct = MatchService::ExecuteSearchDirect(
        SearchStoredRequest(CorpusEntryName(i % kCorpusEntries), 3, 500 + i),
        *snapshot, service.options());
    ExpectBitIdenticalSearch(responses[i], direct);
  }
  StatsResponse stats = service.Stats();
  // The whole burst was queued before the dispatcher woke, so it ran
  // as one micro-batch.
  EXPECT_EQ(stats.batches_total, 1u);
  EXPECT_EQ(stats.batched_requests_total, kBurst);
}

}  // namespace
}  // namespace service
}  // namespace depmatch
