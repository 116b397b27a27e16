// Protocol robustness contract, mirroring graph_io_test: every
// single-byte corruption and every truncation of a frame must surface
// as a clean InvalidArgument Status — never a crash, hang, over-read,
// or silently wrong decode — and decode(encode(x)) must reproduce x
// bit-for-bit, doubles included.

#include "depmatch/service/protocol.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "depmatch/graph/dependency_graph.h"
#include "depmatch/graph/graph_io.h"
#include "depmatch/table/table.h"

namespace depmatch {
namespace service {
namespace {

// A table exercising every type, nulls, and doubles whose bit patterns
// plain `==` comparison would conflate (-0.0) or reject (NaN is left
// out: Value equality is not defined over NaNs).
Table MakeWireTable() {
  Result<Schema> schema = Schema::Create({
      {"id", DataType::kInt64},
      {"score", DataType::kDouble},
      {"label", DataType::kString},
  });
  EXPECT_TRUE(schema.ok());
  TableBuilder builder(*schema);
  const double doubles[] = {
      0.0, -0.0, 1.5, -1.0 / 3.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
  };
  for (size_t r = 0; r < 6; ++r) {
    if (r == 3) {
      builder.AppendValue(0, Value::Null());
    } else {
      builder.AppendValue(
          0, Value(static_cast<int64_t>(r) * int64_t{-1234567891011}));
    }
    builder.AppendValue(1, Value(doubles[r]));
    if (r == 4) {
      builder.AppendValue(2, Value::Null());
    } else {
      builder.AppendValue(2, Value(r == 5 ? "" : "label_" + std::to_string(r)));
    }
  }
  Result<Table> table = std::move(builder).Build();
  EXPECT_TRUE(table.ok());
  return *std::move(table);
}

DependencyGraph MakeWireGraph() {
  auto graph = DependencyGraph::Create({"a", "b", "c"},
                                       {{3.0, 1.0, 0.5},
                                        {1.0, 2.0, 0.25},
                                        {0.5, 0.25, 4.0}});
  EXPECT_TRUE(graph.ok());
  return *std::move(graph);
}

void ExpectBitIdenticalTables(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_attributes(); ++c) {
    EXPECT_EQ(a.schema().attribute(c).name, b.schema().attribute(c).name);
    EXPECT_EQ(a.schema().attribute(c).type, b.schema().attribute(c).type);
    for (size_t r = 0; r < a.num_rows(); ++r) {
      Value va = a.GetValue(r, c);
      Value vb = b.GetValue(r, c);
      ASSERT_EQ(va.is_null(), vb.is_null()) << "cell " << r << "," << c;
      if (va.is_double()) {
        ASSERT_TRUE(vb.is_double());
        EXPECT_EQ(std::bit_cast<uint64_t>(va.double_value()),
                  std::bit_cast<uint64_t>(vb.double_value()))
            << "cell " << r << "," << c;
      } else {
        EXPECT_EQ(va, vb) << "cell " << r << "," << c;
      }
    }
  }
}

Request MakeSearchRequest() {
  Request request;
  request.type = RequestType::kSearch;
  request.request_id = 77;
  request.deadline_ms = 250;
  request.search.source = SearchSource::kStoredEntry;
  request.search.stored_name = "t000003";
  request.search.k = 4;
  request.search.options.metric = MetricKind::kEntropyNormal;
  request.search.options.alpha = 2.5;
  return request;
}

// Re-seals a frame whose header/body was deliberately edited, so the
// test reaches the check under the CRC instead of the CRC itself.
std::string Reseal(std::string frame) {
  frame.resize(frame.size() - kFrameTrailerBytes);
  // Patch the body length in case the edit changed the frame size.
  std::string patched = frame.substr(0, 8);
  graphio::AppendU64(&patched, frame.size() - kFrameHeaderBytes);
  patched += frame.substr(kFrameHeaderBytes);
  graphio::AppendU32(&patched, graphio::Crc32(patched));
  return patched;
}

TEST(ProtocolTest, MatchRequestRoundTripsBitIdentically) {
  Request request;
  request.type = RequestType::kMatchTables;
  request.request_id = 41;
  request.deadline_ms = 1000;
  request.match.source = MakeWireTable();
  request.match.target = MakeWireTable();
  request.match.options.cardinality = Cardinality::kOnto;
  request.match.options.algorithm = MatchAlgorithm::kGreedy;
  request.match.options.alpha = 1.25;
  request.match.options.candidates_per_attribute = 5;
  request.match.options.max_search_nodes = 123456;

  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, RequestType::kMatchTables);
  EXPECT_EQ(decoded->request_id, 41u);
  EXPECT_EQ(decoded->deadline_ms, 1000u);
  EXPECT_EQ(decoded->match.options.cardinality, Cardinality::kOnto);
  EXPECT_EQ(decoded->match.options.algorithm, MatchAlgorithm::kGreedy);
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->match.options.alpha),
            std::bit_cast<uint64_t>(1.25));
  EXPECT_EQ(decoded->match.options.candidates_per_attribute, 5u);
  EXPECT_EQ(decoded->match.options.max_search_nodes, 123456u);
  ExpectBitIdenticalTables(request.match.source, decoded->match.source);
  ExpectBitIdenticalTables(request.match.target, decoded->match.target);
}

TEST(ProtocolTest, SearchAndInsertAndStatsRequestsRoundTrip) {
  Request search = MakeSearchRequest();
  auto search_decoded = DecodeRequest(EncodeRequest(search));
  ASSERT_TRUE(search_decoded.ok()) << search_decoded.status();
  EXPECT_EQ(search_decoded->search.source, SearchSource::kStoredEntry);
  EXPECT_EQ(search_decoded->search.stored_name, "t000003");
  EXPECT_EQ(search_decoded->search.k, 4u);
  EXPECT_EQ(search_decoded->search.options.metric, MetricKind::kEntropyNormal);

  Request inline_search;
  inline_search.type = RequestType::kSearch;
  inline_search.request_id = 78;
  inline_search.search.source = SearchSource::kInlineTable;
  inline_search.search.table = MakeWireTable();
  inline_search.search.k = 2;
  auto inline_decoded = DecodeRequest(EncodeRequest(inline_search));
  ASSERT_TRUE(inline_decoded.ok()) << inline_decoded.status();
  EXPECT_EQ(inline_decoded->search.source, SearchSource::kInlineTable);
  ExpectBitIdenticalTables(inline_search.search.table,
                           inline_decoded->search.table);

  Request insert;
  insert.type = RequestType::kInsert;
  insert.request_id = 79;
  insert.insert.name = "fresh";
  insert.insert.payload = InsertPayload::kGraphBlob;
  insert.insert.graph = MakeWireGraph();
  insert.insert.replace_existing = false;
  auto insert_decoded = DecodeRequest(EncodeRequest(insert));
  ASSERT_TRUE(insert_decoded.ok()) << insert_decoded.status();
  EXPECT_EQ(insert_decoded->insert.name, "fresh");
  EXPECT_EQ(insert_decoded->insert.payload, InsertPayload::kGraphBlob);
  EXPECT_FALSE(insert_decoded->insert.replace_existing);
  ASSERT_EQ(insert_decoded->insert.graph.size(), 3u);
  EXPECT_EQ(std::bit_cast<uint64_t>(insert_decoded->insert.graph.mi(0, 1)),
            std::bit_cast<uint64_t>(1.0));

  Request stats;
  stats.type = RequestType::kStats;
  stats.request_id = 80;
  auto stats_decoded = DecodeRequest(EncodeRequest(stats));
  ASSERT_TRUE(stats_decoded.ok()) << stats_decoded.status();
  EXPECT_EQ(stats_decoded->type, RequestType::kStats);
  EXPECT_EQ(stats_decoded->request_id, 80u);
}

TEST(ProtocolTest, AppendRequestAndResponseRoundTrip) {
  Request append;
  append.type = RequestType::kAppend;
  append.request_id = 85;
  append.deadline_ms = 400;
  append.append.name = "t000009";
  append.append.table = MakeWireTable();
  auto decoded = DecodeRequest(EncodeRequest(append));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, RequestType::kAppend);
  EXPECT_EQ(decoded->request_id, 85u);
  EXPECT_EQ(decoded->deadline_ms, 400u);
  EXPECT_EQ(decoded->append.name, "t000009");
  ExpectBitIdenticalTables(append.append.table, decoded->append.table);

  Response response;
  response.request_id = 86;
  response.type = RequestType::kAppend;
  response.append.snapshot_version = 12;
  response.append.catalog_entries = 30;
  response.append.rows_total = 51234;
  response.append.generation = 7;
  auto response_decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(response_decoded.ok()) << response_decoded.status();
  EXPECT_EQ(response_decoded->type, RequestType::kAppend);
  EXPECT_EQ(response_decoded->append.snapshot_version, 12u);
  EXPECT_EQ(response_decoded->append.catalog_entries, 30u);
  EXPECT_EQ(response_decoded->append.rows_total, 51234u);
  EXPECT_EQ(response_decoded->append.generation, 7u);
}

TEST(ProtocolTest, AppendFrameCorruptionAndTruncationAreDetected) {
  Request append;
  append.type = RequestType::kAppend;
  append.request_id = 87;
  append.append.name = "x";
  append.append.table = MakeWireTable();
  std::string frame = EncodeRequest(append);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string corrupted = frame;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
    EXPECT_FALSE(DecodeRequest(corrupted).ok())
        << "flip at byte " << i << " went undetected";
  }
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    EXPECT_FALSE(DecodeRequest(frame.substr(0, keep)).ok())
        << "truncation to " << keep << " bytes accepted";
  }

  Response response;
  response.request_id = 88;
  response.type = RequestType::kAppend;
  response.append.rows_total = 99;
  std::string response_frame = EncodeResponse(response);
  for (size_t keep = 0; keep < response_frame.size(); ++keep) {
    EXPECT_FALSE(DecodeResponse(response_frame.substr(0, keep)).ok())
        << "truncation to " << keep << " bytes accepted";
  }
}

TEST(ProtocolTest, ResponsesRoundTripBitIdentically) {
  Response search;
  search.request_id = 91;
  search.status = WireStatus::kOk;
  search.type = RequestType::kSearch;
  search.search.snapshot_version = 7;
  search.search.entries_total = 10;
  search.search.entries_searched = 6;
  search.search.entries_pruned = 4;
  SearchHit hit;
  hit.name = "t000001";
  hit.entry = 1;
  hit.ranking_key = -0.0;
  hit.normalized_score = 1.0 / 3.0;
  hit.metric_value = std::numeric_limits<double>::denorm_min();
  hit.pairs = {{0, 2}, {1, 0}};
  search.search.hits.push_back(hit);
  auto search_decoded = DecodeResponse(EncodeResponse(search));
  ASSERT_TRUE(search_decoded.ok()) << search_decoded.status();
  ASSERT_EQ(search_decoded->search.hits.size(), 1u);
  const SearchHit& decoded_hit = search_decoded->search.hits[0];
  EXPECT_EQ(decoded_hit.name, "t000001");
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded_hit.ranking_key),
            std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded_hit.metric_value),
            std::bit_cast<uint64_t>(
                std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(decoded_hit.pairs, hit.pairs);
  EXPECT_EQ(search_decoded->search.snapshot_version, 7u);

  Response match;
  match.request_id = 92;
  match.type = RequestType::kMatchTables;
  match.match.metric_value = 2.75;
  match.match.metric = MetricKind::kEntropyEuclidean;
  match.match.correspondences.push_back({0, 1, "a", "x"});
  auto match_decoded = DecodeResponse(EncodeResponse(match));
  ASSERT_TRUE(match_decoded.ok()) << match_decoded.status();
  ASSERT_EQ(match_decoded->match.correspondences.size(), 1u);
  EXPECT_EQ(match_decoded->match.correspondences[0].source_name, "a");
  EXPECT_EQ(match_decoded->match.correspondences[0].target_name, "x");

  Response error;
  error.request_id = 93;
  error.status = WireStatus::kOverloaded;
  error.message = "queue full";
  error.type = RequestType::kSearch;
  auto error_decoded = DecodeResponse(EncodeResponse(error));
  ASSERT_TRUE(error_decoded.ok()) << error_decoded.status();
  EXPECT_EQ(error_decoded->status, WireStatus::kOverloaded);
  EXPECT_EQ(error_decoded->message, "queue full");
  EXPECT_TRUE(error_decoded->search.hits.empty());

  Response stats;
  stats.request_id = 94;
  stats.type = RequestType::kStats;
  stats.stats.snapshot_version = 3;
  stats.stats.accepted_total = 100;
  stats.stats.shed_overload_total = 5;
  stats.stats.appends_total = 11;
  stats.stats.stat_cache_hits = 42;
  auto stats_decoded = DecodeResponse(EncodeResponse(stats));
  ASSERT_TRUE(stats_decoded.ok()) << stats_decoded.status();
  EXPECT_EQ(stats_decoded->stats.snapshot_version, 3u);
  EXPECT_EQ(stats_decoded->stats.accepted_total, 100u);
  EXPECT_EQ(stats_decoded->stats.shed_overload_total, 5u);
  EXPECT_EQ(stats_decoded->stats.appends_total, 11u);
  EXPECT_EQ(stats_decoded->stats.stat_cache_hits, 42u);
}

TEST(ProtocolTest, EncodingIsDeterministic) {
  Request request = MakeSearchRequest();
  EXPECT_EQ(EncodeRequest(request), EncodeRequest(request));
}

TEST(ProtocolTest, EverySingleByteRequestCorruptionIsDetected) {
  std::string frame = EncodeRequest(MakeSearchRequest());
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string corrupted = frame;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
    auto result = DecodeRequest(corrupted);
    EXPECT_FALSE(result.ok()) << "flip at byte " << i << " went undetected";
  }
}

TEST(ProtocolTest, EverySingleByteResponseCorruptionIsDetected) {
  Response response;
  response.request_id = 5;
  response.type = RequestType::kInsert;
  response.insert.snapshot_version = 2;
  response.insert.catalog_entries = 9;
  response.insert.replaced = true;
  std::string frame = EncodeResponse(response);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::string corrupted = frame;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
    auto result = DecodeResponse(corrupted);
    EXPECT_FALSE(result.ok()) << "flip at byte " << i << " went undetected";
  }
}

TEST(ProtocolTest, EveryTruncationIsDetected) {
  std::string frame = EncodeRequest(MakeSearchRequest());
  for (size_t keep = 0; keep < frame.size(); ++keep) {
    auto result = DecodeRequest(frame.substr(0, keep));
    EXPECT_FALSE(result.ok()) << "truncation to " << keep << " bytes accepted";
  }
}

TEST(ProtocolTest, TrailingGarbageIsRejected) {
  std::string frame = EncodeRequest(MakeSearchRequest());
  EXPECT_FALSE(DecodeRequest(frame + std::string(1, '\0')).ok());
  EXPECT_FALSE(DecodeRequest(frame + frame).ok());
}

TEST(ProtocolTest, HeaderValidatesMagicVersionAndBound) {
  std::string frame = EncodeRequest(MakeSearchRequest());
  std::string header = frame.substr(0, kFrameHeaderBytes);

  auto body_len = DecodeFrameHeader(header, /*expect_request=*/true);
  ASSERT_TRUE(body_len.ok()) << body_len.status();
  EXPECT_EQ(FrameSizeForBody(*body_len), frame.size());

  // A request frame is not a response frame (and vice versa).
  EXPECT_FALSE(DecodeFrameHeader(header, /*expect_request=*/false).ok());
  EXPECT_FALSE(DecodeResponse(frame).ok());

  // Short header.
  EXPECT_FALSE(
      DecodeFrameHeader(header.substr(0, kFrameHeaderBytes - 1), true).ok());

  // Wrong magic.
  std::string bad_magic = header;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeFrameHeader(bad_magic, true).ok());

  // Future version.
  std::string bad_version = header;
  bad_version[4] = 9;
  auto version_result = DecodeFrameHeader(bad_version, true);
  ASSERT_FALSE(version_result.ok());
  EXPECT_NE(version_result.status().message().find("version"),
            std::string::npos);

  // Hostile body length: rejected from the 16-byte prefix alone, before
  // anything would be allocated or read.
  std::string oversized;
  oversized += kRequestMagic;
  graphio::AppendU32(&oversized, kProtocolVersion);
  graphio::AppendU64(&oversized, kMaxFrameBodyBytes + 1);
  auto oversized_result = DecodeFrameHeader(oversized, true);
  ASSERT_FALSE(oversized_result.ok());
  EXPECT_EQ(oversized_result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, BadEnumValuesUnderValidCrcAreRejected) {
  // Corrupt semantic bytes and re-seal the CRC, so the *field*
  // validators (not the checksum) must catch each one.
  std::string frame = EncodeRequest(MakeSearchRequest());

  std::string bad_type = frame;
  bad_type[kFrameHeaderBytes] = 0x77;  // request type
  EXPECT_FALSE(DecodeRequest(Reseal(bad_type)).ok());

  // First body byte after type(1) + id(8) + deadline(8): search source.
  std::string bad_source = frame;
  bad_source[kFrameHeaderBytes + 17] = 0x09;
  EXPECT_FALSE(DecodeRequest(Reseal(bad_source)).ok());

  Response response;
  response.request_id = 6;
  response.type = RequestType::kStats;
  std::string response_frame = EncodeResponse(response);
  std::string bad_status = response_frame;
  bad_status[kFrameHeaderBytes + 8] = 0x7F;  // wire status after id echo
  EXPECT_FALSE(DecodeResponse(Reseal(bad_status)).ok());
}

TEST(ProtocolTest, HostileGraphNodeCountUnderValidCrcsIsRejected) {
  // An insert's graph payload whose DMG1 blob, under a valid blob CRC
  // and a valid frame CRC, declares 4,097 zero-length names and no
  // matrix cells. Decoding must fail on the count, before the 4097x4097
  // matrix it declares (134 MB) is allocated.
  Request request;
  request.type = RequestType::kInsert;
  request.request_id = 9;
  request.insert.name = "hostile";
  request.insert.payload = InsertPayload::kGraphBlob;
  request.insert.graph = MakeWireGraph();
  std::string frame = EncodeRequest(request);

  // The graph blob is the body's last field: a u64 length, then the blob.
  std::string blob = SerializeGraphBinary(request.insert.graph);
  size_t blob_start = frame.size() - kFrameTrailerBytes - blob.size();
  ASSERT_EQ(frame.substr(blob_start, blob.size()), blob);

  constexpr uint64_t kNodes = 4097;
  std::string hostile = "DMG1";
  graphio::AppendU32(&hostile, 1);
  graphio::AppendU64(&hostile, kNodes);
  for (uint64_t i = 0; i < kNodes; ++i) graphio::AppendU64(&hostile, 0);
  graphio::AppendU32(&hostile, graphio::Crc32(hostile));

  std::string edited = frame.substr(0, blob_start - 8);
  graphio::AppendU64(&edited, hostile.size());
  edited += hostile;
  edited.append(kFrameTrailerBytes, '\0');  // replaced by Reseal
  auto decoded = DecodeRequest(Reseal(edited));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("declares 4097 nodes"),
            std::string::npos)
      << decoded.status();
}

TEST(ProtocolTest, TableCodecRoundTripsAndBoundsChecks) {
  Table table = MakeWireTable();
  std::string bytes;
  AppendTable(&bytes, table);
  size_t cursor = 0;
  auto parsed = ParseTable(bytes, &cursor);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(cursor, bytes.size());
  ExpectBitIdenticalTables(table, *parsed);

  // A hostile attribute count cannot force a huge allocation: the
  // count is checked against the remaining bytes first.
  std::string hostile;
  graphio::AppendU64(&hostile, ~0ull);
  size_t hostile_cursor = 0;
  EXPECT_FALSE(ParseTable(hostile, &hostile_cursor).ok());
}

TEST(ProtocolTest, WireStatusMapsStatusCodes) {
  EXPECT_EQ(WireStatusFromStatusCode(StatusCode::kInvalidArgument),
            WireStatus::kInvalidArgument);
  EXPECT_EQ(WireStatusFromStatusCode(StatusCode::kNotFound),
            WireStatus::kNotFound);
  EXPECT_EQ(WireStatusFromStatusCode(StatusCode::kAlreadyExists),
            WireStatus::kAlreadyExists);
  EXPECT_EQ(WireStatusToString(WireStatus::kOverloaded), "overloaded");
}

}  // namespace
}  // namespace service
}  // namespace depmatch
