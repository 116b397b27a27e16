// depmatch-lint: bit-identical-file
// Serialization is part of the bit-identical contract: a graph written
// and re-read must carry exactly the doubles of the original (raw
// IEEE-754 bit patterns, no text formatting). Keep the encoding
// byte-deterministic; do not introduce constructs that reorder double
// accumulation (std::reduce, atomic floating adds, OpenMP reductions).
#include "depmatch/graph/graph_io.h"

#include <array>
#include <bit>
#include <cstdio>

#include "depmatch/common/string_util.h"

namespace depmatch {
namespace graphio {
namespace {

// Slice-by-16 tables for the reflected polynomial, built at compile
// time. kCrcTables[0] is the classic bytewise table; kCrcTables[k][b]
// is the CRC of byte b followed by k zero bytes, so one step folds 16
// input bytes with 16 independent lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

// Little-endian 32-bit load assembled from bytes: no alignment or
// aliasing assumption, and compilers fold it into one load on
// little-endian targets.
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

void AppendU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFFu));
  }
}

void AppendF64(std::string* out, double value) {
  AppendU64(out, std::bit_cast<uint64_t>(value));
}

bool ReadU32(std::string_view bytes, size_t* cursor, uint32_t* value) {
  if (*cursor > bytes.size() || bytes.size() - *cursor < 4) return false;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[*cursor + static_cast<size_t>(i)]))
         << (8 * i);
  }
  *cursor += 4;
  *value = v;
  return true;
}

bool ReadU64(std::string_view bytes, size_t* cursor, uint64_t* value) {
  if (*cursor > bytes.size() || bytes.size() - *cursor < 8) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[*cursor + static_cast<size_t>(i)]))
         << (8 * i);
  }
  *cursor += 8;
  *value = v;
  return true;
}

bool ReadF64(std::string_view bytes, size_t* cursor, double* value) {
  uint64_t bits = 0;
  if (!ReadU64(bytes, cursor, &bits)) return false;
  *value = std::bit_cast<double>(bits);
  return true;
}

uint32_t Crc32(std::string_view bytes) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  size_t remaining = bytes.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; remaining >= 16; p += 16, remaining -= 16) {
    uint32_t a = LoadLe32(p) ^ crc;
    uint32_t b = LoadLe32(p + 4);
    uint32_t c = LoadLe32(p + 8);
    uint32_t d = LoadLe32(p + 12);
    crc = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^
          t[13][(a >> 16) & 0xFFu] ^ t[12][a >> 24] ^
          t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^
          t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^
          t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^
          t[5][(c >> 16) & 0xFFu] ^ t[4][c >> 24] ^
          t[3][d & 0xFFu] ^ t[2][(d >> 8) & 0xFFu] ^
          t[1][(d >> 16) & 0xFFu] ^ t[0][d >> 24];
  }
  for (; remaining > 0; ++p, --remaining) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return NotFoundError(StrFormat("cannot open %s", path.c_str()));
  }
  out->clear();
  char buffer[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, got);
  }
  bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) {
    return InternalError(StrFormat("read error on %s", path.c_str()));
  }
  return OkStatus();
}

Status WriteStringToFile(const std::string& path, std::string_view data) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return NotFoundError(StrFormat("cannot open %s for writing", path.c_str()));
  }
  size_t written = std::fwrite(data.data(), 1, data.size(), file);
  bool failed = std::fclose(file) != 0 || written != data.size();
  if (failed) {
    return InternalError(StrFormat("short write to %s", path.c_str()));
  }
  return OkStatus();
}

}  // namespace graphio

namespace {

constexpr char kGraphMagic[4] = {'D', 'M', 'G', '1'};
constexpr uint32_t kGraphFormatVersion = 1;
// Magic + version + checksum: the smallest well-formed blob envelope.
constexpr size_t kMinBlobSize = 4 + 4 + 4;

}  // namespace

std::string SerializeGraphBinary(const DependencyGraph& graph) {
  std::string out;
  size_t n = graph.size();
  // names + matrix dominate; 24 bytes/name is a comfortable overestimate.
  out.reserve(kMinBlobSize + n * 24 + n * n * 8 + 8);
  out.append(kGraphMagic, sizeof(kGraphMagic));
  graphio::AppendU32(&out, kGraphFormatVersion);
  graphio::AppendU64(&out, static_cast<uint64_t>(n));
  for (size_t i = 0; i < n; ++i) {
    const std::string& name = graph.name(i);
    graphio::AppendU64(&out, static_cast<uint64_t>(name.size()));
    out.append(name);
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      graphio::AppendF64(&out, graph.mi(i, j));
    }
  }
  graphio::AppendU32(&out, graphio::Crc32(out));
  return out;
}

Result<DependencyGraph> DeserializeGraphBinary(std::string_view bytes) {
  if (bytes.size() < kMinBlobSize) {
    return InvalidArgumentError(
        StrFormat("graph blob too short (%zu bytes)", bytes.size()));
  }
  // Verify the trailing checksum before trusting any field. Every field
  // is then read from the body before it, so none can reach into it.
  size_t crc_offset = bytes.size() - 4;
  const std::string_view body = bytes.substr(0, crc_offset);
  uint32_t stored_crc = 0;
  size_t crc_cursor = crc_offset;
  if (!graphio::ReadU32(bytes, &crc_cursor, &stored_crc)) {
    return InvalidArgumentError("graph blob checksum unreadable");
  }
  uint32_t actual_crc = graphio::Crc32(body);
  if (stored_crc != actual_crc) {
    return InvalidArgumentError(
        StrFormat("graph blob checksum mismatch (stored %08x, computed %08x):"
                  " data corrupted or truncated",
                  stored_crc, actual_crc));
  }
  size_t cursor = 0;
  if (body.substr(0, 4) != std::string_view(kGraphMagic, 4)) {
    return InvalidArgumentError("bad graph blob magic");
  }
  cursor = 4;
  uint32_t version = 0;
  if (!graphio::ReadU32(body, &cursor, &version)) {
    return InvalidArgumentError("truncated graph blob (version)");
  }
  if (version != kGraphFormatVersion) {
    return InvalidArgumentError(
        StrFormat("unsupported graph format version %u (expected %u)",
                  version, kGraphFormatVersion));
  }
  uint64_t n64 = 0;
  if (!graphio::ReadU64(body, &cursor, &n64)) {
    return InvalidArgumentError("truncated graph blob (node count)");
  }
  // Beyond magic, version, node count and checksum (20 bytes), each node
  // holds at least an 8-byte name length and a row of n 8-byte cells, so
  // 8·n·(n+1) <= size - 20. Reject any count that breaks this before
  // allocating anything proportional to n², in a form that cannot
  // overflow: n·(n+1) <= W  <=>  n <= W / (n+1).
  constexpr size_t kFixedBytes = kMinBlobSize + 8;
  uint64_t words = bytes.size() < kFixedBytes
                       ? 0
                       : (bytes.size() - kFixedBytes) / 8;
  if (bytes.size() < kFixedBytes || n64 > words ||
      n64 > words / (n64 + 1)) {
    return InvalidArgumentError(
        StrFormat("graph blob declares %llu nodes but holds %zu bytes",
                  static_cast<unsigned long long>(n64), bytes.size()));
  }
  size_t n = static_cast<size_t>(n64);
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t length = 0;
    if (!graphio::ReadU64(body, &cursor, &length)) {
      return InvalidArgumentError(
          StrFormat("truncated graph blob (name %zu length)", i));
    }
    if (length > body.size() - cursor) {
      return InvalidArgumentError(
          StrFormat("truncated graph blob (name %zu bytes)", i));
    }
    names.emplace_back(body.substr(cursor, static_cast<size_t>(length)));
    cursor += static_cast<size_t>(length);
  }
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (!graphio::ReadF64(body, &cursor, &matrix[i][j])) {
        return InvalidArgumentError(
            StrFormat("truncated graph blob (matrix cell %zu,%zu)", i, j));
      }
    }
  }
  if (cursor != body.size()) {
    return InvalidArgumentError(StrFormat("graph blob has %zu trailing bytes",
                                          body.size() - cursor));
  }
  return DependencyGraph::Create(std::move(names), std::move(matrix));
}

Status WriteGraphFile(const std::string& path, const DependencyGraph& graph) {
  return graphio::WriteStringToFile(path, SerializeGraphBinary(graph));
}

Result<DependencyGraph> ReadGraphFile(const std::string& path) {
  std::string bytes;
  DEPMATCH_RETURN_IF_ERROR(graphio::ReadFileToString(path, &bytes));
  return DeserializeGraphBinary(bytes);
}

}  // namespace depmatch
