// On-disk format of the persistent capacity index (see DESIGN.md,
// "Persistent capacity index").
//
// The file is a header followed by self-checksummed sections, every
// multi-byte integer little-endian at a fixed offset, so a reader can
// mmap the file and answer lookups by binary search with zero parsing.
// Layout:
//
//   [ 0,  8)  magic "VCAPIDX1"
//   [ 8, 12)  endianness word 0x01020304 (rejects byte-swapped writers)
//   [12, 16)  format version (kIndexFormatVersion)
//   [16, 20)  engine fingerprint-scheme version (kFingerprintSchemeVersion)
//   [20, 24)  section count
//   [24, 32)  total file size in bytes
//   [32, 40)  header size in bytes (end of the section table)
//   [40, 48)  header checksum: FNV-1a over [0,40) ++ [48, header size)
//   [48, ..)  catalog fingerprint (u32 length + bytes)
//             section table: per section u32 id, u64 offset/size/checksum
//
// Sections follow back to back; each entry's checksum is FNV-1a over the
// section's bytes. Offsets are absolute. Validation order (every failure
// a structured IllFormed, never UB): minimum size -> magic -> endianness
// -> versions -> file size -> header checksum -> catalog fingerprint ->
// section bounds -> section checksums -> structural decode.
#ifndef VIEWCAP_INDEX_FORMAT_H_
#define VIEWCAP_INDEX_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "relation/catalog.h"

namespace viewcap {

inline constexpr char kIndexMagic[8] = {'V', 'C', 'A', 'P',
                                        'I', 'D', 'X', '1'};
inline constexpr std::uint32_t kIndexEndianWord = 0x01020304u;
inline constexpr std::uint32_t kIndexFormatVersion = 2;

/// Section ids (the table may list them in any order; each at most once).
/// Id 2 held format 1's class templates, which format 2 dropped: exact
/// keys need no confirming templates.
enum IndexSectionId : std::uint32_t {
  kSectionMeta = 1,      ///< Build limits, saturation budget, entity counts.
  kSectionKeys = 3,      ///< Sorted exact canonical key -> class ordinal.
  kSectionSets = 4,      ///< Query sets as (handle, class ordinal) members.
  kSectionVerdicts = 5,  ///< Membership verdicts per (set, query class).
  kSectionDominance = 6, ///< Dominance verdicts keyed by DominanceKeyFor.
};

struct IndexSection {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

/// The decoded, validated header of an index file.
struct IndexHeader {
  std::uint32_t format_version = 0;
  std::uint32_t fingerprint_scheme_version = 0;
  std::uint64_t file_size = 0;
  std::uint64_t header_size = 0;
  std::string catalog_fingerprint;
  std::vector<IndexSection> sections;
};

/// Versioned fingerprint of a catalog's name assignment: every attribute
/// name in id order plus every relation name with its scheme (as attribute
/// ids) in id order. Two catalogs share a fingerprint iff loading replays
/// produced the identical id assignment — exactly the condition under
/// which persisted ids, ordinals and witness texts decode to the same
/// objects. The index stamps the builder's fingerprint into its header;
/// a reader attaching over a different catalog rejects the file.
std::string CatalogFingerprint(const Catalog& catalog);

// --- Little-endian serialization helpers (writer side) -------------------

void AppendU8(std::string& out, std::uint8_t v);
void AppendU32(std::string& out, std::uint32_t v);
void AppendU64(std::string& out, std::uint64_t v);
/// u32 byte length + raw bytes.
void AppendString(std::string& out, std::string_view s);

// --- Bounds-checked deserialization (reader side) ------------------------

/// A read head over a byte range. Every Read* fails with IllFormed instead
/// of reading past the end, so corrupt or truncated files surface as clean
/// Status values (the corruption tests run the whole suite under ASan and
/// UBSan to hold the no-UB line).
class Cursor {
 public:
  Cursor(std::string_view bytes, std::string_view what)
      : bytes_(bytes), what_(what) {}

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return bytes_.size() - offset_; }
  bool AtEnd() const { return offset_ == bytes_.size(); }

  Result<std::uint8_t> ReadU8();
  Result<std::uint32_t> ReadU32();
  Result<std::uint64_t> ReadU64();
  /// u32 length + bytes; the view aliases the underlying buffer.
  Result<std::string_view> ReadString();
  Status Seek(std::size_t offset);

 private:
  Status Truncated(std::size_t need) const;

  std::string_view bytes_;
  std::string_view what_;  // For error messages ("meta section", ...).
  std::size_t offset_ = 0;
};

/// Parses and validates an index header out of the full file image, in the
/// documented order. On success every section's [offset, offset+size) is
/// known to lie inside the file and past the header; checksums of the
/// sections themselves are verified separately (FindSection).
Result<IndexHeader> ParseIndexHeader(std::string_view file);

/// The bytes of section `id`, with its checksum verified. NotFound when
/// the table has no such section.
Result<std::string_view> FindSection(const IndexHeader& header,
                                     std::string_view file, std::uint32_t id);

/// Assembles a complete index file image from the section payloads
/// (writer side): header, fingerprint, table and checksums.
std::string AssembleIndexFile(
    std::string_view catalog_fingerprint,
    const std::vector<std::pair<std::uint32_t, std::string>>& sections);

}  // namespace viewcap

#endif  // VIEWCAP_INDEX_FORMAT_H_
