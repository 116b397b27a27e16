// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// Versioned binary serialization for DependencyGraph, so catalogs of
// precomputed graphs load from disk instead of re-running
// Table2DepGraph on every process start.
//
// Blob layout (all integers little-endian, all doubles raw IEEE-754
// bit patterns, so the round trip is bit-identical by construction):
//
//   bytes 0..3   magic "DMG1"
//   u32          format version (currently 1)
//   u64          n (node count)
//   n times      u64 name length + raw name bytes
//   n*n times    f64 MI matrix entry, row-major
//   u32          CRC-32 (polynomial 0xEDB88320) of every preceding byte
//
// Deserialization verifies the trailing checksum before interpreting
// any field, then bounds-checks every read; corruption and truncation
// surface as InvalidArgument Status values, never as crashes or
// silently wrong graphs. The version field gates future layout changes:
// an unknown version is rejected with a message naming both versions.
//
// The low-level primitives (little-endian append/read, CRC-32) are
// exported under graphio:: so the sharded catalog store
// (core/sharded_store.h) frames its manifest and segment files with the
// same encoding and checksum.

#ifndef DEPMATCH_GRAPH_GRAPH_IO_H_
#define DEPMATCH_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "depmatch/common/status.h"
#include "depmatch/graph/dependency_graph.h"

namespace depmatch {

// Serializes `graph` to the versioned, checksummed binary blob above.
std::string SerializeGraphBinary(const DependencyGraph& graph);

// Parses a blob produced by SerializeGraphBinary. Fails with
// InvalidArgument on bad magic, unknown version, checksum mismatch,
// truncation, or trailing garbage.
Result<DependencyGraph> DeserializeGraphBinary(std::string_view bytes);

// Whole-file convenience wrappers around the blob form.
Status WriteGraphFile(const std::string& path, const DependencyGraph& graph);
Result<DependencyGraph> ReadGraphFile(const std::string& path);

namespace graphio {

// Little-endian primitives. The Read* forms return false when fewer
// than the needed bytes remain past *cursor (cursor is advanced only on
// success).
void AppendU32(std::string* out, uint32_t value);
void AppendU64(std::string* out, uint64_t value);
void AppendF64(std::string* out, double value);
bool ReadU32(std::string_view bytes, size_t* cursor, uint32_t* value);
bool ReadU64(std::string_view bytes, size_t* cursor, uint64_t* value);
bool ReadF64(std::string_view bytes, size_t* cursor, double* value);

// CRC-32 with the zlib/PNG parameters: reflected polynomial 0xEDB88320,
// initial value 0xFFFFFFFF, final XOR 0xFFFFFFFF (equal to zlib's
// crc32(0, data, size)), check value 0xCBF43926 for "123456789". It
// detects any error burst of up to 32 bits, so every single-byte
// corruption of a blob is caught. The bytes of DMG1 blobs, DMS1
// manifests and segments, and DMR1/DMP1 service frames depend on these
// parameters; changing them changes every format. A
// slice-by-16 table kernel (16 bytes per step, no alignment needed)
// computes it; tests compare it with the bytewise table loop.
uint32_t Crc32(std::string_view bytes);

// Binary whole-file I/O with Status-based error reporting (NotFound for
// an unopenable path, Internal for short writes/reads).
Status ReadFileToString(const std::string& path, std::string* out);
Status WriteStringToFile(const std::string& path, std::string_view data);

}  // namespace graphio
}  // namespace depmatch

#endif  // DEPMATCH_GRAPH_GRAPH_IO_H_
