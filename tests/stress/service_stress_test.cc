// Concurrency stress for the matching service: 8 concurrent socket
// clients mixing catalog searches with inserts (copy-on-write snapshot
// swaps) while the dispatcher micro-batches. Under the `tsan` preset
// (ctest label `tsan_stress`) the race detector watches the admission
// queue, the snapshot pointer swap, and the pool fan-out; in every
// build the test then re-verifies POST HOC that each search response
// is bit-identical to a direct library call against the exact snapshot
// version the response names — concurrent inserts may change *which*
// snapshot served a search, never *what* that snapshot returns.

#include <gtest/gtest.h>

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
#include "depmatch/service/client.h"
#include "depmatch/service/match_service.h"
#include "depmatch/service/protocol.h"
#include "depmatch/service/server.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace service {
namespace {

constexpr size_t kClients = 8;
constexpr size_t kRequestsPerClient = 6;
constexpr size_t kCorpusEntries = 6;

Table MakeStressTable(uint64_t seed) {
  Result<Schema> schema = Schema::Create({
      {"a", DataType::kInt64},
      {"b", DataType::kInt64},
      {"c", DataType::kInt64},
  });
  EXPECT_TRUE(schema.ok());
  TableBuilder builder(*schema);
  for (size_t r = 0; r < 40; ++r) {
    uint64_t base = (seed + r * 2654435761u) % 8;
    builder.AppendValue(0, Value(static_cast<int64_t>(base)));
    builder.AppendValue(1, Value(static_cast<int64_t>(base / 2)));
    builder.AppendValue(2, Value(static_cast<int64_t>((base + r % 3) % 5)));
  }
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

void ExpectBitIdenticalSearch(const Response& served, const Response& direct,
                              size_t client, size_t round) {
  ASSERT_EQ(served.status, direct.status)
      << "client " << client << " round " << round;
  ASSERT_EQ(served.search.hits.size(), direct.search.hits.size())
      << "client " << client << " round " << round;
  for (size_t i = 0; i < served.search.hits.size(); ++i) {
    const SearchHit& a = served.search.hits[i];
    const SearchHit& b = direct.search.hits[i];
    EXPECT_EQ(a.name, b.name) << "client " << client << " round " << round;
    EXPECT_EQ(a.entry, b.entry);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.ranking_key),
              std::bit_cast<uint64_t>(b.ranking_key))
        << "client " << client << " round " << round << " hit " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.normalized_score),
              std::bit_cast<uint64_t>(b.normalized_score));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.metric_value),
              std::bit_cast<uint64_t>(b.metric_value));
    EXPECT_EQ(a.pairs, b.pairs);
  }
}

TEST(ServiceStressTest, ConcurrentSearchesAndInsertsStayBitIdentical) {
  GraphCatalog catalog;
  GraphCorpusOptions corpus;
  for (size_t i = 0; i < kCorpusEntries; ++i) {
    ASSERT_TRUE(
        catalog.Insert(CorpusEntryName(i), CorpusEntry(corpus, i)).ok());
  }
  ServiceOptions service_options;
  // Every publication the run can produce must stay resolvable for the
  // post-hoc verification pass.
  service_options.snapshot_history = kClients * kRequestsPerClient + 4;
  // Large enough that nothing sheds: every response must be kOk here.
  service_options.max_queue = kClients * kRequestsPerClient + 8;
  auto match_service =
      std::make_unique<MatchService>(std::move(catalog), service_options);
  ServerOptions server_options;
  server_options.socket_path =
      StrFormat("/tmp/depmatch_stress_%d.sock", getpid());
  ServiceServer server(std::move(match_service), std::move(server_options));
  ASSERT_TRUE(server.Start().ok());

  struct ServedSearch {
    Request request;
    Response response;
    size_t round = 0;
  };
  std::vector<std::vector<ServedSearch>> searches(kClients);
  // One byte per flag: std::vector<bool> packs flags into shared words,
  // so threads setting neighbouring flags would race.
  std::vector<char> client_ok(kClients, 0);

  {
    // depmatch-lint: allow(raw-thread)
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      // depmatch-lint: allow(raw-thread) — the point of the stress is
      // many OS threads blocking on independent connections at once.
      threads.emplace_back([&, c] {
        Result<ServiceClient> client =
            ServiceClient::Connect(server.socket_path());
        ASSERT_TRUE(client.ok()) << client.status();
        for (size_t r = 0; r < kRequestsPerClient; ++r) {
          if (c % 2 == 1 && r % 3 == 2) {
            // Odd clients interleave inserts: distinct names, so every
            // insert publishes a new snapshot version.
            std::string name =
                "stress_" + std::to_string(c) + "_" + std::to_string(r);
            Result<Response> inserted = client->InsertTable(
                name, MakeStressTable(c * 100 + r));
            ASSERT_TRUE(inserted.ok()) << inserted.status();
            ASSERT_EQ(inserted->status, WireStatus::kOk)
                << inserted->message;
            continue;
          }
          std::string name = CorpusEntryName((c + r) % kCorpusEntries);
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
          served.round = r;
          searches[c].push_back(std::move(served));
        }
        client_ok[c] = true;
      });
    }
    // depmatch-lint: allow(raw-thread)
    for (std::thread& thread : threads) thread.join();
  }

  MatchService& service = server.match_service();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(client_ok[c]) << "client " << c << " aborted early";
  }

  // Post-hoc bit-identity: replay every served search directly against
  // the snapshot its response names.
  size_t verified = 0;
  for (size_t c = 0; c < kClients; ++c) {
    for (const ServedSearch& served : searches[c]) {
      auto snapshot =
          service.SnapshotAt(served.response.search.snapshot_version);
      ASSERT_NE(snapshot, nullptr)
          << "version " << served.response.search.snapshot_version
          << " aged out of history";
      Response direct = MatchService::ExecuteSearchDirect(
          served.request, *snapshot, service.options());
      ExpectBitIdenticalSearch(served.response, direct, c, served.round);
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);

  // Every odd-client insert published exactly one new version.
  StatsResponse stats = service.Stats();
  uint64_t expected_inserts = 0;
  for (size_t c = 1; c < kClients; c += 2) {
    for (size_t r = 0; r < kRequestsPerClient; ++r) {
      if (r % 3 == 2) ++expected_inserts;
    }
  }
  EXPECT_EQ(stats.inserts_total, expected_inserts);
  EXPECT_EQ(stats.snapshot_version, 1 + expected_inserts);
  EXPECT_EQ(stats.shed_overload_total, 0u);

  server.Stop();
}

}  // namespace
}  // namespace service
}  // namespace depmatch
