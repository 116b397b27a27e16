// depmatch-lint: bit-identical-file
// The sharded store feeds the bit-identical catalog-search contract:
// signatures, graphs, and the tiered index must round-trip through this
// file bit-exactly (raw IEEE-754 bit patterns, fixed-width
// little-endian framing), and the lazy materialization below must hand
// the shared search core the same doubles the written catalog holds. Do
// not introduce constructs that reorder double accumulation
// (std::reduce, atomic floating adds, OpenMP reductions).
#include "depmatch/core/sharded_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "depmatch/common/string_util.h"
#include "depmatch/common/thread_annotations.h"
#include "depmatch/graph/graph_io.h"

namespace depmatch {
namespace {

constexpr char kManifestMagic[4] = {'D', 'M', 'S', '1'};
constexpr uint32_t kShardedFormatVersion = 2;

// Fixed manifest header: magic + version + entry count + segment count
// + kNumSections section descriptors (offset, length, crc) + header
// CRC. Everything after it is section bodies, back to back with no
// padding, so the total length is fully determined by the header. Every
// manifest byte is covered by exactly one checksum: the header and four
// sections by their own CRCs, the signature heap by the per-entry
// signature CRCs in the entry table (its descriptor's CRC field is 0 and
// unread), since the entries' signatures tile the heap exactly.
enum SectionId : size_t {
  kEntryTable = 0,
  kNameHeap = 1,
  kSigHeap = 2,
  kIndexSection = 3,
  kSegmentTable = 4,
  kNumSections = 5,
};
constexpr size_t kSectionDescriptorSize = 8 + 8 + 4;
constexpr size_t kManifestHeaderSize =
    4 + 4 + 8 + 8 + kNumSections * kSectionDescriptorSize + 4;
static_assert(kManifestHeaderSize == 128, "header layout drifted");

// Entry table record: seven u64 fields in EntryField order, then
// sig_crc (u32), the CRC-32 of the entry's SignatureBytes(width)
// signature bytes at sig_off.
enum EntryField : size_t {
  kNameOff = 0,
  kNameLen = 1,
  kWidth = 2,
  kSegment = 3,
  kSegOffset = 4,
  kBlobLen = 5,
  kSigOff = 6,
  kNumEntryFields = 7,
};
constexpr size_t kEntryRecordSize = kNumEntryFields * 8 + 4;
// Segment table record: file size (u64) + whole-file CRC-32 (u32).
constexpr size_t kSegmentRecordSize = 8 + 4;

// Reject absurd widths before computing width-derived byte counts, so
// a corrupt (but CRC-colliding) entry table cannot overflow size_t.
constexpr size_t kMaxEntryWidth = size_t{1} << 20;

constexpr const char* kSectionNames[kNumSections] = {
    "entry table", "name heap", "signature heap", "index", "segment table"};

std::string ManifestPath(const std::string& dir) {
  return dir + "/MANIFEST.dms";
}

std::string SegmentPath(const std::string& dir, size_t segment) {
  return dir + StrFormat("/segment-%05zu.seg", segment);
}

// Little-endian decodes of bytes already known to be in bounds (the
// entry table's length is checked at Open); GCC folds each into one load.
uint64_t LoadU64(const char* p) {
  uint64_t value = 0;
  for (size_t i = 0; i < 8; ++i) {
    value |= uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return value;
}

uint32_t LoadU32(const char* p) {
  uint32_t value = 0;
  for (size_t i = 0; i < 4; ++i) {
    value |= uint32_t{static_cast<unsigned char>(p[i])} << (8 * i);
  }
  return value;
}

size_t SignatureBytes(size_t width) {
  // width entropies + width rows of (width - 1) profile values.
  size_t profile = width > 0 ? width - 1 : 0;
  return width * 8 + width * profile * 8;
}

// Read-only file bytes: mmap'd when possible, with a heap-buffer
// fallback (held behind a unique_ptr so views stay valid across moves).
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { Reset(); }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept {
    if (this != &other) {
      Reset();
      data_ = other.data_;
      size_ = other.size_;
      owned_ = std::move(other.owned_);
      other.data_ = nullptr;
      other.size_ = 0;
    }
    return *this;
  }

  static Result<MappedFile> Map(const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return NotFoundError(
          StrFormat("cannot open %s: %s", path.c_str(), std::strerror(errno)));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      Status error = InternalError(
          StrFormat("cannot stat %s: %s", path.c_str(), std::strerror(errno)));
      ::close(fd);
      return error;
    }
    MappedFile file;
    file.size_ = static_cast<size_t>(st.st_size);
    if (file.size_ > 0) {
      void* mapping =
          ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
      if (mapping != MAP_FAILED) {
        file.data_ = static_cast<const char*>(mapping);
      }
    }
    ::close(fd);
    if (file.size_ > 0 && file.data_ == nullptr) {
      // Filesystem without mmap support: fall back to a plain read.
      file.owned_ = std::make_unique<std::string>();
      DEPMATCH_RETURN_IF_ERROR(
          graphio::ReadFileToString(path, file.owned_.get()));
      file.size_ = file.owned_->size();
      file.data_ = file.owned_->data();
    }
    return file;
  }

  std::string_view view() const { return std::string_view(data_, size_); }

 private:
  void Reset() {
    if (data_ != nullptr && owned_ == nullptr) {
      ::munmap(const_cast<char*>(data_), size_);
    }
    data_ = nullptr;
    size_ = 0;
    owned_.reset();
  }

  const char* data_ = nullptr;
  size_t size_ = 0;
  std::unique_ptr<std::string> owned_;
};

// A value materialized at most once, by whichever thread asks first:
// that caller runs `make` under the flag, and every caller then gets the
// same result, the value or the error. A flag and a pointer, zero until
// first use, so per-entry arrays of cells stay small.
template <typename T>
class OnceCell {
 public:
  template <typename Make>
  const Result<T>& GetOrInit(const Make& make) const {
    std::call_once(once_, [&] {
      result_ = std::make_unique<const Result<T>>(make());
    });
    return *result_;
  }

 private:
  mutable std::once_flag once_;
  mutable std::unique_ptr<const Result<T>> result_
      DEPMATCH_GUARDED_BY_ONCE(once_);
};

void SerializeIndex(const CatalogTieredIndex& index, std::string* out) {
  graphio::AppendU64(out, static_cast<uint64_t>(index.num_entries()));
  graphio::AppendU64(out, static_cast<uint64_t>(index.num_nodes()));
  for (size_t entry : index.entry_order()) {
    graphio::AppendU64(out, static_cast<uint64_t>(entry));
  }
  for (size_t id = 0; id < index.num_nodes(); ++id) {
    const TieredIndexNode& node = index.node(id);
    graphio::AppendU64(out, static_cast<uint64_t>(node.begin));
    graphio::AppendU64(out, static_cast<uint64_t>(node.end));
    graphio::AppendU64(out, static_cast<uint64_t>(node.left));
    graphio::AppendU64(out, static_cast<uint64_t>(node.right));
    uint32_t flags = 0;
    if (node.envelope.any_empty_profile) flags |= 1u;
    if (node.envelope.any_empty_graph) flags |= 2u;
    graphio::AppendU32(out, flags);
    graphio::AppendU64(out, static_cast<uint64_t>(node.envelope.min_width));
    graphio::AppendU64(out, static_cast<uint64_t>(node.envelope.max_width));
    graphio::AppendU64(
        out, static_cast<uint64_t>(node.envelope.entropy_bounds.size()));
    for (double bound : node.envelope.entropy_bounds) {
      graphio::AppendF64(out, bound);
    }
    graphio::AppendU64(
        out, static_cast<uint64_t>(node.envelope.profile_bounds.size()));
    for (double bound : node.envelope.profile_bounds) {
      graphio::AppendF64(out, bound);
    }
  }
}

Status ParseIndexSection(std::string_view bytes, size_t entry_count,
                         CatalogTieredIndex* out) {
  size_t cursor = 0;
  uint64_t num_entries = 0;
  uint64_t num_nodes = 0;
  if (!graphio::ReadU64(bytes, &cursor, &num_entries) ||
      !graphio::ReadU64(bytes, &cursor, &num_nodes)) {
    return InvalidArgumentError("sharded store index section truncated");
  }
  if (num_entries != entry_count) {
    return InvalidArgumentError(
        StrFormat("sharded store index covers %llu entries, catalog has %zu",
                  static_cast<unsigned long long>(num_entries), entry_count));
  }
  // Each node record is at least 68 bytes; reject counts the section
  // cannot hold before reserving anything.
  if (num_nodes > bytes.size() / 68 + 1) {
    return InvalidArgumentError("sharded store index node count implausible");
  }
  std::vector<size_t> entry_order;
  entry_order.reserve(static_cast<size_t>(num_entries));
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint64_t entry = 0;
    if (!graphio::ReadU64(bytes, &cursor, &entry)) {
      return InvalidArgumentError("sharded store index section truncated");
    }
    entry_order.push_back(static_cast<size_t>(entry));
  }
  std::vector<TieredIndexNode> nodes(static_cast<size_t>(num_nodes));
  for (TieredIndexNode& node : nodes) {
    uint64_t begin = 0, end = 0, left = 0, right = 0;
    uint32_t flags = 0;
    uint64_t min_width = 0, max_width = 0;
    if (!graphio::ReadU64(bytes, &cursor, &begin) ||
        !graphio::ReadU64(bytes, &cursor, &end) ||
        !graphio::ReadU64(bytes, &cursor, &left) ||
        !graphio::ReadU64(bytes, &cursor, &right) ||
        !graphio::ReadU32(bytes, &cursor, &flags) ||
        !graphio::ReadU64(bytes, &cursor, &min_width) ||
        !graphio::ReadU64(bytes, &cursor, &max_width)) {
      return InvalidArgumentError("sharded store index section truncated");
    }
    node.begin = static_cast<size_t>(begin);
    node.end = static_cast<size_t>(end);
    node.left = static_cast<int64_t>(left);
    node.right = static_cast<int64_t>(right);
    node.envelope.any_empty_profile = (flags & 1u) != 0;
    node.envelope.any_empty_graph = (flags & 2u) != 0;
    node.envelope.min_width = static_cast<size_t>(min_width);
    node.envelope.max_width = static_cast<size_t>(max_width);
    for (std::vector<double>* bounds :
         {&node.envelope.entropy_bounds, &node.envelope.profile_bounds}) {
      uint64_t bound_count = 0;
      if (!graphio::ReadU64(bytes, &cursor, &bound_count) ||
          bound_count > (bytes.size() - cursor) / 8) {
        return InvalidArgumentError("sharded store index section truncated");
      }
      bounds->resize(static_cast<size_t>(bound_count));
      for (double& bound : *bounds) {
        graphio::ReadF64(bytes, &cursor, &bound);
      }
    }
  }
  if (cursor != bytes.size()) {
    return InvalidArgumentError(
        "sharded store index section has trailing bytes");
  }
  *out = CatalogTieredIndex::FromParts(std::move(entry_order),
                                       std::move(nodes));
  if (out->empty() && entry_count > 0) {
    return InvalidArgumentError(
        "sharded store index section failed structural validation");
  }
  return OkStatus();
}

}  // namespace

Status WriteShardedCatalog(const GraphCatalog& catalog, const std::string& dir,
                           const ShardedStoreWriteOptions& options) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return InternalError(StrFormat("cannot create directory %s: %s",
                                   dir.c_str(), std::strerror(errno)));
  }
  const size_t count = catalog.size();
  const size_t per_segment = std::max<size_t>(1, options.entries_per_segment);

  std::string entry_table;
  std::string name_heap;
  std::string sig_heap;
  std::string index_section;
  std::string segment_table;
  std::string segment;
  size_t num_segments = 0;

  auto flush_segment = [&]() -> Status {
    graphio::AppendU64(&segment_table, static_cast<uint64_t>(segment.size()));
    graphio::AppendU32(&segment_table, graphio::Crc32(segment));
    DEPMATCH_RETURN_IF_ERROR(graphio::WriteStringToFile(
        SegmentPath(dir, num_segments), segment));
    ++num_segments;
    segment.clear();
    return OkStatus();
  };

  for (size_t e = 0; e < count; ++e) {
    if (e > 0 && e % per_segment == 0) {
      DEPMATCH_RETURN_IF_ERROR(flush_segment());
    }
    const std::string& name = catalog.name(e);
    const GraphSignature& signature = catalog.signature(e);
    std::string blob = SerializeGraphBinary(catalog.graph(e));

    const size_t sig_off = sig_heap.size();
    for (size_t i = 0; i < signature.size(); ++i) {
      graphio::AppendF64(&sig_heap, signature.entropy(i));
    }
    size_t profile = signature.profile_length();
    for (size_t i = 0; i < signature.size(); ++i) {
      const double* row = signature.ProfileDesc(i);
      for (size_t j = 0; j < profile; ++j) {
        graphio::AppendF64(&sig_heap, row[j]);
      }
    }

    graphio::AppendU64(&entry_table, static_cast<uint64_t>(name_heap.size()));
    graphio::AppendU64(&entry_table, static_cast<uint64_t>(name.size()));
    graphio::AppendU64(&entry_table, static_cast<uint64_t>(signature.size()));
    graphio::AppendU64(&entry_table, static_cast<uint64_t>(num_segments));
    graphio::AppendU64(&entry_table, static_cast<uint64_t>(segment.size()));
    graphio::AppendU64(&entry_table, static_cast<uint64_t>(blob.size()));
    graphio::AppendU64(&entry_table, static_cast<uint64_t>(sig_off));
    const std::string_view sig_bytes =
        std::string_view(sig_heap).substr(sig_off);
    graphio::AppendU32(&entry_table, graphio::Crc32(sig_bytes));

    name_heap.append(name);
    segment.append(blob);
  }
  if (count > 0) {
    DEPMATCH_RETURN_IF_ERROR(flush_segment());
  }

  const CatalogTieredIndex* index = catalog.index();
  if (index != nullptr && !index->empty() && index->num_entries() == count) {
    SerializeIndex(*index, &index_section);
  }

  std::string manifest;
  manifest.append(kManifestMagic, sizeof(kManifestMagic));
  graphio::AppendU32(&manifest, kShardedFormatVersion);
  graphio::AppendU64(&manifest, static_cast<uint64_t>(count));
  graphio::AppendU64(&manifest, static_cast<uint64_t>(num_segments));
  const std::string* sections[kNumSections] = {
      &entry_table, &name_heap, &sig_heap, &index_section, &segment_table};
  uint64_t offset = kManifestHeaderSize;
  for (size_t s = 0; s < kNumSections; ++s) {
    graphio::AppendU64(&manifest, offset);
    graphio::AppendU64(&manifest, static_cast<uint64_t>(sections[s]->size()));
    // The per-entry CRCs cover the signature heap (see kEntryRecordSize).
    graphio::AppendU32(&manifest,
                       s == kSigHeap ? 0 : graphio::Crc32(*sections[s]));
    offset += sections[s]->size();
  }
  // Header CRC over everything above — the descriptors are themselves
  // protected, so a flipped descriptor byte is caught at Open, before
  // any section is trusted.
  graphio::AppendU32(&manifest, graphio::Crc32(manifest));
  for (const std::string* section : sections) {
    manifest.append(*section);
  }
  return graphio::WriteStringToFile(ManifestPath(dir), manifest);
}

struct ShardedCatalogStore::Impl {
  struct Section {
    size_t offset = 0;
    size_t length = 0;
    uint32_t crc = 0;
  };
  struct SegmentMeta {
    size_t file_size = 0;
    uint32_t crc = 0;
  };
  // One entry's lazy state: its signature, checksummed against sig_crc
  // and then decoded, and its graph.
  struct EntrySlot {
    OnceCell<GraphSignature> signature;
    OnceCell<DependencyGraph> graph;
  };

  std::string dir;
  MappedFile manifest;
  size_t entry_count = 0;
  size_t segment_count = 0;
  Section section[kNumSections];

  mutable std::once_flag meta_once;
  mutable Status meta_status DEPMATCH_GUARDED_BY_ONCE(meta_once);
  mutable std::vector<SegmentMeta> segments
      DEPMATCH_GUARDED_BY_ONCE(meta_once);
  mutable CatalogTieredIndex tiered DEPMATCH_GUARDED_BY_ONCE(meta_once);
  mutable bool has_tiered DEPMATCH_GUARDED_BY_ONCE(meta_once) = false;
  // Allocated under meta_once, before any accessor can reach a cell.
  mutable std::unique_ptr<EntrySlot[]> entry_slots
      DEPMATCH_GUARDED_BY_ONCE(meta_once);
  // Each segment file, mapped and checksummed on first touch.
  mutable std::unique_ptr<OnceCell<MappedFile>[]> segment_maps
      DEPMATCH_GUARDED_BY_ONCE(meta_once);

  std::string_view SectionView(size_t s) const {
    return manifest.view().substr(section[s].offset, section[s].length);
  }
  // Fields of entry e's record, decoded from the mapped entry table on
  // each call; ParseMetadata validated every record once.
  const char* Record(size_t e) const {
    return manifest.view().data() + section[kEntryTable].offset +
           e * kEntryRecordSize;
  }
  size_t Field(size_t e, EntryField field) const {
    return static_cast<size_t>(LoadU64(Record(e) + 8 * field));
  }
  uint32_t SignatureCrc(size_t e) const {
    return LoadU32(Record(e) + 8 * kNumEntryFields);
  }

  Status ParseMetadata() const DEPMATCH_REQUIRES_ONCE(meta_once);
  const Result<MappedFile>& MapSegment(size_t s) const;
};

Status ShardedCatalogStore::Impl::ParseMetadata() const {
  for (size_t s = 0; s < kNumSections; ++s) {
    // The signature heap is checked one entry at a time, on first use
    // (ShardedCatalogStore::signature), so a query pays only for the
    // signatures it reads.
    if (s == kSigHeap) continue;
    uint32_t actual = graphio::Crc32(SectionView(s));
    if (actual != section[s].crc) {
      return InvalidArgumentError(StrFormat(
          "sharded store %s section checksum mismatch (stored %08x, computed"
          " %08x): data corrupted",
          kSectionNames[s], section[s].crc, actual));
    }
  }

  std::string_view segment_bytes = SectionView(kSegmentTable);
  size_t cursor = 0;
  segments.reserve(segment_count);
  for (size_t s = 0; s < segment_count; ++s) {
    uint64_t file_size = 0;
    uint32_t crc = 0;
    if (!graphio::ReadU64(segment_bytes, &cursor, &file_size) ||
        !graphio::ReadU32(segment_bytes, &cursor, &crc)) {
      return InvalidArgumentError("sharded store segment table truncated");
    }
    segments.push_back({static_cast<size_t>(file_size), crc});
  }

  const size_t heap_size = section[kNameHeap].length;
  const size_t sig_length = section[kSigHeap].length;
  // The signatures must tile the heap in entry order, so that every heap
  // byte lies under exactly one entry's sig_crc.
  size_t sig_end = 0;
  for (size_t e = 0; e < entry_count; ++e) {
    const size_t name_off = Field(e, kNameOff);
    const size_t name_len = Field(e, kNameLen);
    if (name_len > heap_size || name_off > heap_size - name_len) {
      return InvalidArgumentError(
          StrFormat("sharded store entry %zu name outside the name heap", e));
    }
    const size_t width = Field(e, kWidth);
    if (width > kMaxEntryWidth) {
      return InvalidArgumentError(
          StrFormat("sharded store entry %zu width implausible", e));
    }
    const size_t sig_off = Field(e, kSigOff);
    const size_t sig_bytes = SignatureBytes(width);
    if (sig_off != sig_end || sig_bytes > sig_length - sig_end) {
      return InvalidArgumentError(StrFormat(
          "sharded store entry %zu signature does not tile the signature"
          " heap (offset %zu, expected %zu)",
          e, sig_off, sig_end));
    }
    sig_end += sig_bytes;
    const size_t segment = Field(e, kSegment);
    if (segment >= segment_count) {
      return InvalidArgumentError(
          StrFormat("sharded store entry %zu references segment %zu of %zu",
                    e, segment, segment_count));
    }
    const size_t file_size = segments[segment].file_size;
    const size_t seg_offset = Field(e, kSegOffset);
    const size_t blob_len = Field(e, kBlobLen);
    if (blob_len > file_size || seg_offset > file_size - blob_len) {
      return InvalidArgumentError(
          StrFormat("sharded store entry %zu blob outside its segment", e));
    }
  }
  if (sig_end != sig_length) {
    return InvalidArgumentError(
        StrFormat("sharded store signature heap has %zu bytes past the last"
                  " signature",
                  sig_length - sig_end));
  }

  std::string_view index_bytes = SectionView(kIndexSection);
  if (!index_bytes.empty()) {
    DEPMATCH_RETURN_IF_ERROR(
        ParseIndexSection(index_bytes, entry_count, &tiered));
    has_tiered = true;
  }

  entry_slots = std::make_unique<EntrySlot[]>(entry_count);
  segment_maps = std::make_unique<OnceCell<MappedFile>[]>(segment_count);
  return OkStatus();
}

const Result<MappedFile>& ShardedCatalogStore::Impl::MapSegment(
    size_t s) const {
  return segment_maps[s].GetOrInit([&]() -> Result<MappedFile> {
    std::string path = SegmentPath(dir, s);
    Result<MappedFile> mapped = MappedFile::Map(path);
    if (!mapped.ok()) return mapped.status();
    if (mapped->view().size() != segments[s].file_size) {
      return InvalidArgumentError(StrFormat(
          "sharded store segment %s holds %zu bytes, manifest records %zu:"
          " data truncated",
          path.c_str(), mapped->view().size(), segments[s].file_size));
    }
    uint32_t actual = graphio::Crc32(mapped->view());
    if (actual != segments[s].crc) {
      return InvalidArgumentError(StrFormat(
          "sharded store segment %s checksum mismatch (stored %08x, computed"
          " %08x): data corrupted",
          path.c_str(), segments[s].crc, actual));
    }
    return mapped;
  });
}

ShardedCatalogStore::ShardedCatalogStore(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ShardedCatalogStore::ShardedCatalogStore(ShardedCatalogStore&&) noexcept =
    default;
ShardedCatalogStore& ShardedCatalogStore::operator=(
    ShardedCatalogStore&&) noexcept = default;
ShardedCatalogStore::~ShardedCatalogStore() = default;

Result<ShardedCatalogStore> ShardedCatalogStore::Open(const std::string& dir) {
  auto impl = std::make_unique<Impl>();
  impl->dir = dir;
  Result<MappedFile> mapped = MappedFile::Map(ManifestPath(dir));
  if (!mapped.ok()) return mapped.status();
  impl->manifest = std::move(mapped).value();
  std::string_view bytes = impl->manifest.view();
  if (bytes.size() < kManifestHeaderSize) {
    return InvalidArgumentError(
        StrFormat("sharded store manifest in %s too short (%zu bytes)",
                  dir.c_str(), bytes.size()));
  }
  size_t cursor = kManifestHeaderSize - 4;
  uint32_t stored_crc = 0;
  graphio::ReadU32(bytes, &cursor, &stored_crc);
  uint32_t actual_crc =
      graphio::Crc32(bytes.substr(0, kManifestHeaderSize - 4));
  if (stored_crc != actual_crc) {
    return InvalidArgumentError(StrFormat(
        "sharded store manifest in %s header checksum mismatch (stored %08x,"
        " computed %08x): data corrupted or truncated",
        dir.c_str(), stored_crc, actual_crc));
  }
  if (bytes.substr(0, 4) != std::string_view(kManifestMagic, 4)) {
    return InvalidArgumentError(StrFormat(
        "%s is not a sharded store manifest (bad magic)", dir.c_str()));
  }
  cursor = 4;
  uint32_t version = 0;
  graphio::ReadU32(bytes, &cursor, &version);
  if (version != kShardedFormatVersion) {
    return InvalidArgumentError(
        StrFormat("unsupported sharded store format version %u (expected %u)",
                  version, kShardedFormatVersion));
  }
  uint64_t entry_count = 0;
  uint64_t segment_count = 0;
  graphio::ReadU64(bytes, &cursor, &entry_count);
  graphio::ReadU64(bytes, &cursor, &segment_count);
  impl->entry_count = static_cast<size_t>(entry_count);
  impl->segment_count = static_cast<size_t>(segment_count);
  uint64_t expected_offset = kManifestHeaderSize;
  for (size_t s = 0; s < kNumSections; ++s) {
    uint64_t offset = 0;
    uint64_t length = 0;
    uint32_t crc = 0;
    graphio::ReadU64(bytes, &cursor, &offset);
    graphio::ReadU64(bytes, &cursor, &length);
    graphio::ReadU32(bytes, &cursor, &crc);
    if (offset != expected_offset ||
        length > bytes.size() - static_cast<size_t>(expected_offset)) {
      return InvalidArgumentError(StrFormat(
          "sharded store manifest %s section descriptor out of bounds",
          kSectionNames[s]));
    }
    impl->section[s] = {static_cast<size_t>(offset),
                        static_cast<size_t>(length), crc};
    expected_offset += length;
  }
  if (expected_offset != bytes.size()) {
    return InvalidArgumentError(
        StrFormat("sharded store manifest has %zu trailing bytes",
                  bytes.size() - static_cast<size_t>(expected_offset)));
  }
  if (impl->section[kEntryTable].length % kEntryRecordSize != 0 ||
      impl->section[kEntryTable].length / kEntryRecordSize !=
          impl->entry_count) {
    return InvalidArgumentError(
        "sharded store entry table length disagrees with entry count");
  }
  if (impl->section[kSegmentTable].length % kSegmentRecordSize != 0 ||
      impl->section[kSegmentTable].length / kSegmentRecordSize !=
          impl->segment_count) {
    return InvalidArgumentError(
        "sharded store segment table length disagrees with segment count");
  }
  return ShardedCatalogStore(std::move(impl));
}

size_t ShardedCatalogStore::size() const { return impl_->entry_count; }
size_t ShardedCatalogStore::num_segments() const {
  return impl_->segment_count;
}

Status ShardedCatalogStore::EnsureMetadata() const {
  std::call_once(impl_->meta_once,
                 [&] { impl_->meta_status = impl_->ParseMetadata(); });
  return impl_->meta_status;
}

std::string_view ShardedCatalogStore::name(size_t entry) const {
  return impl_->SectionView(kNameHeap).substr(impl_->Field(entry, kNameOff),
                                              impl_->Field(entry, kNameLen));
}

size_t ShardedCatalogStore::width(size_t entry) const {
  return impl_->Field(entry, kWidth);
}

Result<const GraphSignature*> ShardedCatalogStore::signature(
    size_t entry) const {
  DEPMATCH_RETURN_IF_ERROR(EnsureMetadata());
  const Impl::EntrySlot& slot = impl_->entry_slots[entry];
  const Result<GraphSignature>& cell =
      slot.signature.GetOrInit([&]() -> Result<GraphSignature> {
        const size_t width = impl_->Field(entry, kWidth);
        // In bounds: ParseMetadata checked that the signatures tile the
        // heap.
        std::string_view bytes = impl_->SectionView(kSigHeap).substr(
            impl_->Field(entry, kSigOff), SignatureBytes(width));
        const uint32_t stored = impl_->SignatureCrc(entry);
        uint32_t actual = graphio::Crc32(bytes);
        if (actual != stored) {
          std::string_view entry_name = name(entry);
          return InvalidArgumentError(StrFormat(
              "sharded store entry %zu ('%.*s') signature checksum mismatch"
              " (stored %08x, computed %08x): data corrupted",
              entry, static_cast<int>(entry_name.size()), entry_name.data(),
              stored, actual));
        }
        size_t cursor = 0;
        std::vector<double> entropies(width);
        for (double& value : entropies) {
          graphio::ReadF64(bytes, &cursor, &value);
        }
        size_t profile = width > 0 ? width - 1 : 0;
        std::vector<double> desc(width * profile);
        for (double& value : desc) {
          graphio::ReadF64(bytes, &cursor, &value);
        }
        return GraphSignature::FromParts(std::move(entropies),
                                         std::move(desc));
      });
  if (!cell.ok()) return cell.status();
  return &*cell;
}

const CatalogTieredIndex* ShardedCatalogStore::index() const {
  return impl_->has_tiered ? &impl_->tiered : nullptr;
}

Result<const DependencyGraph*> ShardedCatalogStore::graph(size_t entry) const {
  DEPMATCH_RETURN_IF_ERROR(EnsureMetadata());
  const Impl::EntrySlot& slot = impl_->entry_slots[entry];
  const Result<DependencyGraph>& cell =
      slot.graph.GetOrInit([&]() -> Result<DependencyGraph> {
        const Result<MappedFile>& segment =
            impl_->MapSegment(impl_->Field(entry, kSegment));
        if (!segment.ok()) return segment.status();
        Result<DependencyGraph> graph = DeserializeGraphBinary(
            segment->view().substr(impl_->Field(entry, kSegOffset),
                                   impl_->Field(entry, kBlobLen)));
        if (graph.ok()) return graph;
        std::string_view entry_name = name(entry);
        return Status(
            graph.status().code(),
            StrFormat("sharded store entry %zu ('%.*s'): %s", entry,
                      static_cast<int>(entry_name.size()), entry_name.data(),
                      graph.status().message().c_str()));
      });
  if (!cell.ok()) return cell.status();
  return &*cell;
}

Result<GraphCatalog> ReadShardedCatalog(const std::string& dir) {
  Result<ShardedCatalogStore> store = ShardedCatalogStore::Open(dir);
  if (!store.ok()) return store.status();
  DEPMATCH_RETURN_IF_ERROR(store->EnsureMetadata());
  GraphCatalog catalog;
  for (size_t e = 0; e < store->size(); ++e) {
    // Read only to check the entry's signature CRC; Insert recomputes
    // the signature from the graph.
    DEPMATCH_RETURN_IF_ERROR(store->signature(e).status());
    Result<const DependencyGraph*> graph = store->graph(e);
    if (!graph.ok()) return graph.status();
    DEPMATCH_RETURN_IF_ERROR(
        catalog.Insert(std::string(store->name(e)), **graph));
  }
  return catalog;
}

namespace {

class ShardedStoreEntryView final : public CatalogEntryView {
 public:
  explicit ShardedStoreEntryView(const ShardedCatalogStore& store)
      : store_(store) {}
  size_t count() const override { return store_.size(); }
  size_t width(size_t entry) const override { return store_.width(entry); }
  std::string_view name(size_t entry) const override {
    return store_.name(entry);
  }
  Result<const GraphSignature*> signature(size_t entry) const override {
    return store_.signature(entry);
  }
  Result<const DependencyGraph*> graph(size_t entry) const override {
    return store_.graph(entry);
  }

 private:
  const ShardedCatalogStore& store_;
};

}  // namespace

Result<CatalogSearchResult> SearchShardedCatalog(
    const DependencyGraph& query, const ShardedCatalogStore& store,
    const CatalogSearchOptions& options) {
  DEPMATCH_RETURN_IF_ERROR(store.EnsureMetadata());
  ShardedStoreEntryView view(store);
  return SearchCatalogView(query, view, store.index(), options);
}

}  // namespace depmatch
