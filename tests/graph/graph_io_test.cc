#include "depmatch/graph/graph_io.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "depmatch/common/rng.h"
#include "depmatch/graph/dependency_graph.h"

namespace depmatch {
namespace {

DependencyGraph RandomGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> names;
  std::vector<std::vector<double>> m(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    names.push_back("col_" + std::to_string(seed) + "_" + std::to_string(i));
    m[i][i] = rng.NextDouble() * 8.0;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double v = rng.NextDouble() * std::min(m[i][i], m[j][j]);
      m[i][j] = v;
      m[j][i] = v;
    }
  }
  auto g = DependencyGraph::Create(std::move(names), std::move(m));
  EXPECT_TRUE(g.ok());
  return g.value();
}

// The classic bytewise table loop: the reference Crc32 must match bit
// for bit, whatever kernel it uses.
uint32_t ReferenceCrc32(std::string_view bytes) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    table[i] = crc;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (char c : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(c)) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

std::string RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(size, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Next() & 0xFFu);
  return bytes;
}

// Bitwise equality: the round trip must preserve the exact IEEE-754
// payload of every cell, not merely be approximately equal.
void ExpectBitIdentical(const DependencyGraph& a, const DependencyGraph& b) {
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

TEST(GraphIoTest, RoundTripIsBitIdentical) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    DependencyGraph graph = RandomGraph(7, seed);
    std::string blob = SerializeGraphBinary(graph);
    auto loaded = DeserializeGraphBinary(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ExpectBitIdentical(graph, loaded.value());
  }
}

TEST(GraphIoTest, RoundTripEmptyAndSingleNode) {
  auto empty = DependencyGraph::Create({}, {});
  ASSERT_TRUE(empty.ok());
  auto empty_loaded = DeserializeGraphBinary(SerializeGraphBinary(*empty));
  ASSERT_TRUE(empty_loaded.ok()) << empty_loaded.status();
  EXPECT_EQ(empty_loaded->size(), 0u);

  auto single = DependencyGraph::Create({"only"}, {{2.5}});
  ASSERT_TRUE(single.ok());
  auto single_loaded = DeserializeGraphBinary(SerializeGraphBinary(*single));
  ASSERT_TRUE(single_loaded.ok()) << single_loaded.status();
  ExpectBitIdentical(*single, *single_loaded);
}

TEST(GraphIoTest, SerializationIsDeterministic) {
  DependencyGraph graph = RandomGraph(5, 21);
  EXPECT_EQ(SerializeGraphBinary(graph), SerializeGraphBinary(graph));
}

TEST(GraphIoTest, EverySingleByteCorruptionIsDetected) {
  DependencyGraph graph = RandomGraph(4, 31);
  std::string blob = SerializeGraphBinary(graph);
  for (size_t i = 0; i < blob.size(); ++i) {
    std::string corrupted = blob;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
    auto result = DeserializeGraphBinary(corrupted);
    EXPECT_FALSE(result.ok()) << "flip at byte " << i << " went undetected";
  }
}

TEST(GraphIoTest, EveryTruncationIsDetected) {
  DependencyGraph graph = RandomGraph(4, 41);
  std::string blob = SerializeGraphBinary(graph);
  for (size_t keep = 0; keep < blob.size(); ++keep) {
    auto result = DeserializeGraphBinary(blob.substr(0, keep));
    EXPECT_FALSE(result.ok()) << "truncation to " << keep << " bytes accepted";
  }
}

TEST(GraphIoTest, RejectsBadMagicAndVersion) {
  DependencyGraph graph = RandomGraph(3, 51);
  std::string blob = SerializeGraphBinary(graph);

  // Wrong magic with a recomputed (valid) checksum.
  std::string bad_magic = blob;
  bad_magic[0] = 'X';
  bad_magic.resize(bad_magic.size() - 4);
  graphio::AppendU32(&bad_magic, graphio::Crc32(bad_magic));
  EXPECT_FALSE(DeserializeGraphBinary(bad_magic).ok());

  // Future version with a recomputed checksum.
  std::string bad_version = blob;
  bad_version[4] = 9;
  bad_version.resize(bad_version.size() - 4);
  graphio::AppendU32(&bad_version, graphio::Crc32(bad_version));
  auto result = DeserializeGraphBinary(bad_version);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST(GraphIoTest, FileRoundTripAndMissingFile) {
  DependencyGraph graph = RandomGraph(6, 61);
  std::string path = testing::TempDir() + "/graph_io_test.dmg";
  ASSERT_TRUE(WriteGraphFile(path, graph).ok());
  auto loaded = ReadGraphFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectBitIdentical(graph, loaded.value());

  auto missing = ReadGraphFile(testing::TempDir() + "/does_not_exist.dmg");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(GraphIoTest, EndianPrimitivesRoundTrip) {
  std::string buffer;
  graphio::AppendU32(&buffer, 0xDEADBEEFu);
  graphio::AppendU64(&buffer, 0x0123456789ABCDEFull);
  graphio::AppendF64(&buffer, -0.0);
  size_t cursor = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 1.0;
  ASSERT_TRUE(graphio::ReadU32(buffer, &cursor, &u32));
  ASSERT_TRUE(graphio::ReadU64(buffer, &cursor, &u64));
  ASSERT_TRUE(graphio::ReadF64(buffer, &cursor, &f64));
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(std::bit_cast<uint64_t>(f64), std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(cursor, buffer.size());
  // Exhausted buffer: reads fail and leave the cursor in place.
  EXPECT_FALSE(graphio::ReadU32(buffer, &cursor, &u32));
  EXPECT_EQ(cursor, buffer.size());
}

TEST(GraphIoTest, Crc32MatchesKnownVector) {
  // The standard zlib/PNG CRC-32 check value.
  EXPECT_EQ(graphio::Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(graphio::Crc32(""), 0x00000000u);
}

TEST(GraphIoTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  // Every length 0-300 covers the 16-byte main loop, its tail, and the
  // seam between them; every start offset 0-15 covers each alignment.
  std::string buffer = RandomBytes(300 + 16, 71);
  std::string_view view = buffer;
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t length = 0; length <= 300; ++length) {
      std::string_view slice = view.substr(offset, length);
      ASSERT_EQ(graphio::Crc32(slice), ReferenceCrc32(slice))
          << "offset " << offset << ", length " << length;
    }
  }
  std::string large = RandomBytes(size_t{1} << 20, 72);
  EXPECT_EQ(graphio::Crc32(large), ReferenceCrc32(large));
}

TEST(GraphIoTest, NodeCountBeyondTheMatrixBytesIsRejectedBeforeAllocating) {
  // A valid envelope with 4,097 zero-length names and no matrix cells:
  // 8 bytes per node fit the 32,796-byte blob, but the 4097x4097 matrix
  // (134 MB) cannot, so the count must be rejected before allocating.
  constexpr uint64_t kNodes = 4097;
  std::string blob = "DMG1";
  graphio::AppendU32(&blob, 1);
  graphio::AppendU64(&blob, kNodes);
  for (uint64_t i = 0; i < kNodes; ++i) graphio::AppendU64(&blob, 0);
  graphio::AppendU32(&blob, graphio::Crc32(blob));
  ASSERT_EQ(blob.size(), 32796u);

  auto result = DeserializeGraphBinary(blob);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("declares 4097 nodes"),
            std::string::npos)
      << result.status();
}

TEST(GraphIoTest, NoFieldIsReadFromTheChecksum) {
  // One node with an 8-byte name, then only 4 of its matrix cell's 8
  // bytes before a valid checksum: the cell must not borrow the CRC's 4.
  std::string blob = "DMG1";
  graphio::AppendU32(&blob, 1);
  graphio::AppendU64(&blob, 1);
  graphio::AppendU64(&blob, 8);
  blob.append("column_a");
  blob.append(4, '\0');
  graphio::AppendU32(&blob, graphio::Crc32(blob));
  ASSERT_EQ(blob.size(), 40u);

  auto result = DeserializeGraphBinary(blob);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message().rfind("truncated graph blob", 0), 0u)
      << result.status();
}

}  // namespace
}  // namespace depmatch
