// Concurrency stress for the incremental append path: appender clients
// stream disjoint deltas into their own table-backed entries while
// search clients hammer the catalog and an inserter churns snapshot
// publications — all over real sockets. Under the `tsan` preset the
// race detector watches the builder map (dispatcher-only), the widened
// index inside copied catalogs, and the index-preserving snapshot swap.
// In every build the test then replays POST HOC, from the retained
// snapshot history:
//   * every append response: the entry graph published at exactly that
//     snapshot version must be bit-identical to a cold
//     BuildDependencyGraph over the rows ingested up to that append
//     (each entry has a single appender, so the prefix is known); and
//   * every search response: bit-identical to a direct library call
//     against the snapshot version the response names, even though the
//     serving snapshot raced with appends and inserts.
//
// Concurrent appends may change *which* snapshot serves a request,
// never *what* any published snapshot contains.
//
// A second phase makes readers the last owners of snapshots. Each held
// reader grabs the snapshot one of its searches was served from, holds
// it across at least kHeldPublications further appends, and replays the
// search only after the service's history has evicted that snapshot.
// Releasing it then frees, on the reader thread, the entry and index
// copy no newer snapshot shares, while the dispatcher keeps publishing
// snapshots that share every other entry with it.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "depmatch/common/string_util.h"
#include "depmatch/datagen/graph_corpus.h"
#include "depmatch/graph/graph_builder.h"
#include "depmatch/service/client.h"
#include "depmatch/service/match_service.h"
#include "depmatch/service/protocol.h"
#include "depmatch/service/server.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace service {
namespace {

constexpr size_t kCorpusEntries = 4;
constexpr size_t kAppenders = 3;
constexpr size_t kAppendsPerClient = 4;
constexpr size_t kSearchers = 4;
constexpr size_t kSearchesPerClient = 6;
constexpr size_t kInserterRounds = 2;
constexpr size_t kHolders = 3;
constexpr size_t kHeldPublications = 50;

Table MakeSliceTable(uint64_t seed, size_t rows) {
  Result<Schema> schema = Schema::Create({
      {"a", DataType::kInt64},
      {"b", DataType::kInt64},
      {"c", DataType::kInt64},
  });
  EXPECT_TRUE(schema.ok());
  TableBuilder builder(*schema);
  for (size_t r = 0; r < rows; ++r) {
    uint64_t base = (seed + r * 2654435761u) % 9;
    builder.AppendValue(0, Value(static_cast<int64_t>(base)));
    builder.AppendValue(1, Value(static_cast<int64_t>((base * 3 + r) % 4)));
    builder.AppendValue(2, Value(static_cast<int64_t>((base + r % 5) % 6)));
  }
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

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

void ExpectBitIdenticalSearch(const Response& served, const Response& direct) {
  ASSERT_EQ(served.status, direct.status);
  ASSERT_EQ(served.search.hits.size(), direct.search.hits.size());
  for (size_t i = 0; i < direct.search.hits.size(); ++i) {
    const SearchHit& got = served.search.hits[i];
    const SearchHit& want = direct.search.hits[i];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.ranking_key),
              std::bit_cast<uint64_t>(want.ranking_key));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.metric_value),
              std::bit_cast<uint64_t>(want.metric_value));
    EXPECT_EQ(got.pairs, want.pairs);
  }
}

std::string AppendEntryName(size_t appender) {
  return "inc_" + std::to_string(appender);
}

Table AppenderBase(size_t appender) {
  return MakeSliceTable(1000 + appender * 37, 48);
}

Table AppenderDelta(size_t appender, size_t round) {
  return MakeSliceTable(2000 + appender * 97 + round * 13, 16 + round * 8);
}

TEST(IncrementalStressTest, ConcurrentAppendsSearchesAndInsertsReplayExactly) {
  GraphCatalog catalog;
  GraphCorpusOptions corpus;
  for (size_t i = 0; i < kCorpusEntries; ++i) {
    ASSERT_TRUE(
        catalog.Insert(CorpusEntryName(i), CorpusEntry(corpus, i)).ok());
  }
  ServiceOptions service_options;
  // Every publication the run can produce must stay resolvable for the
  // post-hoc replay: seed inserts + appends + inserter churn.
  service_options.snapshot_history =
      kAppenders * (1 + kAppendsPerClient) + kInserterRounds + 8;
  service_options.max_queue =
      kAppenders * kAppendsPerClient + kSearchers * kSearchesPerClient + 16;
  auto match_service =
      std::make_unique<MatchService>(std::move(catalog), service_options);
  ServerOptions server_options;
  server_options.socket_path =
      StrFormat("/tmp/depmatch_inc_stress_%d.sock", getpid());
  ServiceServer server(std::move(match_service), std::move(server_options));
  ASSERT_TRUE(server.Start().ok());

  // Seed the appenders' table-backed entries (count state lives
  // server-side from here on) before any concurrency starts.
  {
    Result<ServiceClient> seeder =
        ServiceClient::Connect(server.socket_path());
    ASSERT_TRUE(seeder.ok()) << seeder.status();
    for (size_t a = 0; a < kAppenders; ++a) {
      Result<Response> inserted =
          seeder->InsertTable(AppendEntryName(a), AppenderBase(a));
      ASSERT_TRUE(inserted.ok()) << inserted.status();
      ASSERT_EQ(inserted->status, WireStatus::kOk) << inserted->message;
    }
  }

  struct ServedSearch {
    Request request;
    Response response;
  };
  std::vector<std::vector<Response>> append_responses(kAppenders);
  std::vector<std::vector<ServedSearch>> searches(kSearchers);
  // One byte per flag: std::vector<bool> packs flags into shared words,
  // so threads setting neighbouring flags would race.
  std::vector<char> appender_ok(kAppenders, 0);
  std::vector<char> searcher_ok(kSearchers, 0);
  bool inserter_ok = false;

  {
    // depmatch-lint: allow(raw-thread)
    std::vector<std::thread> threads;
    threads.reserve(kAppenders + kSearchers + 1);
    for (size_t a = 0; a < kAppenders; ++a) {
      // depmatch-lint: allow(raw-thread) — the stress is many OS
      // threads blocking on independent connections at once.
      threads.emplace_back([&, a] {
        Result<ServiceClient> client =
            ServiceClient::Connect(server.socket_path());
        ASSERT_TRUE(client.ok()) << client.status();
        for (size_t r = 0; r < kAppendsPerClient; ++r) {
          Result<Response> appended =
              client->AppendRows(AppendEntryName(a), AppenderDelta(a, r));
          ASSERT_TRUE(appended.ok()) << appended.status();
          ASSERT_EQ(appended->status, WireStatus::kOk) << appended->message;
          append_responses[a].push_back(*std::move(appended));
        }
        appender_ok[a] = true;
      });
    }
    for (size_t s = 0; s < kSearchers; ++s) {
      // depmatch-lint: allow(raw-thread) — see above.
      threads.emplace_back([&, s] {
        Result<ServiceClient> client =
            ServiceClient::Connect(server.socket_path());
        ASSERT_TRUE(client.ok()) << client.status();
        for (size_t r = 0; r < kSearchesPerClient; ++r) {
          // Alternate between corpus entries and the live entries that
          // are being appended to mid-flight.
          std::string name = (r % 2 == 0)
                                 ? CorpusEntryName((s + r) % kCorpusEntries)
                                 : AppendEntryName((s + r) % kAppenders);
          Result<Response> response = client->SearchStored(name, 3);
          ASSERT_TRUE(response.ok()) << response.status();
          ASSERT_EQ(response->status, WireStatus::kOk) << response->message;
          ServedSearch served;
          served.request.type = RequestType::kSearch;
          served.request.request_id = response->request_id;
          served.request.search.source = SearchSource::kStoredEntry;
          served.request.search.stored_name = name;
          served.request.search.k = 3;
          served.response = *std::move(response);
          searches[s].push_back(std::move(served));
        }
        searcher_ok[s] = true;
      });
    }
    // depmatch-lint: allow(raw-thread) — one inserter churns snapshot
    // publications underneath the appends and searches.
    threads.emplace_back([&] {
      Result<ServiceClient> client =
          ServiceClient::Connect(server.socket_path());
      ASSERT_TRUE(client.ok()) << client.status();
      for (size_t r = 0; r < kInserterRounds; ++r) {
        Result<Response> inserted = client->InsertTable(
            "churn_" + std::to_string(r), MakeSliceTable(5000 + r, 32));
        ASSERT_TRUE(inserted.ok()) << inserted.status();
        ASSERT_EQ(inserted->status, WireStatus::kOk) << inserted->message;
      }
      inserter_ok = true;
    });
    // depmatch-lint: allow(raw-thread)
    for (std::thread& thread : threads) thread.join();
  }

  MatchService& service = server.match_service();
  for (size_t a = 0; a < kAppenders; ++a) {
    EXPECT_TRUE(appender_ok[a]) << "appender " << a << " aborted early";
  }
  for (size_t s = 0; s < kSearchers; ++s) {
    EXPECT_TRUE(searcher_ok[s]) << "searcher " << s << " aborted early";
  }
  EXPECT_TRUE(inserter_ok) << "inserter aborted early";

  // Post-hoc append replay: each entry has one appender issuing its
  // deltas in order, so the i-th append response for entry `a`
  // corresponds to base + deltas[0..i]. The graph published at exactly
  // that snapshot version must equal the cold rebuild of that prefix —
  // every double bit-equal — no matter how appends, inserts, and
  // searches interleaved.
  for (size_t a = 0; a < kAppenders; ++a) {
    ASSERT_EQ(append_responses[a].size(), kAppendsPerClient);
    Table accumulated = AppenderBase(a);
    for (size_t r = 0; r < kAppendsPerClient; ++r) {
      accumulated = ConcatRows(accumulated, AppenderDelta(a, r));
      const Response& response = append_responses[a][r];
      EXPECT_EQ(response.append.rows_total, accumulated.num_rows());
      EXPECT_EQ(response.append.generation, 2 + r);
      auto snapshot = service.SnapshotAt(response.append.snapshot_version);
      ASSERT_NE(snapshot, nullptr)
          << "version " << response.append.snapshot_version
          << " aged out of history";
      EXPECT_TRUE(snapshot->index_built);
      Result<size_t> entry = snapshot->catalog.Find(AppendEntryName(a));
      ASSERT_TRUE(entry.ok());
      Result<DependencyGraph> cold = BuildDependencyGraph(accumulated);
      ASSERT_TRUE(cold.ok()) << cold.status();
      const DependencyGraph& published = snapshot->catalog.graph(*entry);
      ASSERT_EQ(published.size(), cold->size());
      for (size_t i = 0; i < cold->size(); ++i) {
        for (size_t j = 0; j < cold->size(); ++j) {
          ASSERT_EQ(std::bit_cast<uint64_t>(published.mi(i, j)),
                    std::bit_cast<uint64_t>(cold->mi(i, j)))
              << "entry " << a << " append " << r << " cell " << i << ","
              << j;
        }
      }
    }
  }

  // Post-hoc search replay: bit-identical to the direct call against
  // the snapshot each response names.
  size_t verified = 0;
  for (size_t s = 0; s < kSearchers; ++s) {
    for (const ServedSearch& served : searches[s]) {
      auto snapshot =
          service.SnapshotAt(served.response.search.snapshot_version);
      ASSERT_NE(snapshot, nullptr)
          << "version " << served.response.search.snapshot_version
          << " aged out of history";
      ExpectBitIdenticalSearch(
          served.response, MatchService::ExecuteSearchDirect(
                               served.request, *snapshot, service.options()));
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);

  // Held readers. The churn appender pauses after each of its first
  // kHolders appends until reader h has grabbed the snapshot that append
  // published, so every reader holds a different version.
  struct HeldSearch {
    Request request;
    Response served;
    Response replayed;
    bool grabbed = false;
    bool evicted = false;
  };
  std::vector<HeldSearch> held(kHolders);
  const size_t churn_appends =
      kHolders + kHeldPublications + service_options.snapshot_history;
  std::atomic<size_t> grab_turn{0};
  std::atomic<size_t> grabs_done{0};
  std::atomic<bool> churn_done{false};
  size_t churn_acked = 0;
  {
    // depmatch-lint: allow(raw-thread)
    std::vector<std::thread> threads;
    threads.reserve(kHolders + 1);
    // depmatch-lint: allow(raw-thread) — the churn appender publishes
    // while the held readers wait, replay and release.
    threads.emplace_back([&] {
      Result<ServiceClient> client =
          ServiceClient::Connect(server.socket_path());
      for (size_t j = 0; client.ok() && j < churn_appends; ++j) {
        Result<Response> appended = client->AppendRows(
            AppendEntryName(0), MakeSliceTable(7000 + j, 8));
        if (!appended.ok() || appended->status != WireStatus::kOk) break;
        ++churn_acked;
        if (j < kHolders) {
          grab_turn.store(j + 1);
          while (grabs_done.load() <= j) std::this_thread::yield();
        }
      }
      churn_done.store(true);
    });
    for (size_t h = 0; h < kHolders; ++h) {
      // depmatch-lint: allow(raw-thread) — each reader owns its snapshot
      // on its own thread.
      threads.emplace_back([&, h] {
        HeldSearch& mine = held[h];
        while (grab_turn.load() <= h && !churn_done.load()) {
          std::this_thread::yield();
        }
        mine.request.type = RequestType::kSearch;
        mine.request.search.source = SearchSource::kStoredEntry;
        mine.request.search.stored_name = AppendEntryName(0);
        mine.request.search.k = 3;
        std::shared_ptr<const ServiceSnapshot> snapshot;
        Result<ServiceClient> client =
            ServiceClient::Connect(server.socket_path());
        if (client.ok()) {
          Result<Response> served = client->SearchStored(AppendEntryName(0), 3);
          if (served.ok() && served->status == WireStatus::kOk) {
            mine.served = *std::move(served);
            mine.request.request_id = mine.served.request_id;
            snapshot = service.SnapshotAt(mine.served.search.snapshot_version);
          }
        }
        mine.grabbed = snapshot != nullptr;
        grabs_done.fetch_add(1);
        if (snapshot == nullptr) return;
        const uint64_t version = snapshot->version;
        auto last_owner = [&] {
          return service.snapshot()->version >= version + kHeldPublications &&
                 service.SnapshotAt(version) == nullptr &&
                 snapshot.use_count() == 1;
        };
        while (!last_owner() && !churn_done.load()) std::this_thread::yield();
        mine.evicted = last_owner();
        mine.replayed =
            MatchService::ExecuteSearchDirect(mine.request, *snapshot,
                                              service.options());
        snapshot.reset();
      });
    }
    // depmatch-lint: allow(raw-thread)
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(churn_acked, churn_appends);
  for (size_t h = 0; h < kHolders; ++h) {
    const HeldSearch& mine = held[h];
    ASSERT_TRUE(mine.grabbed) << "reader " << h << " could not grab";
    EXPECT_TRUE(mine.evicted)
        << "reader " << h << " replayed before it was the last owner";
    if (h > 0) {
      EXPECT_GT(mine.served.search.snapshot_version,
                held[h - 1].served.search.snapshot_version);
    }
    ExpectBitIdenticalSearch(mine.served, mine.replayed);
  }

  StatsResponse stats = service.Stats();
  EXPECT_EQ(stats.appends_total,
            kAppenders * kAppendsPerClient + churn_appends);
  EXPECT_EQ(stats.inserts_total, kAppenders + kInserterRounds);
  EXPECT_EQ(stats.shed_overload_total, 0u);

  server.Stop();
}

}  // namespace
}  // namespace service
}  // namespace depmatch
