#include "index/index_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>

#include "algebra/parser.h"
#include "base/hash.h"
#include "base/strings.h"

namespace viewcap {

namespace {

/// Fills an IndexInfo from a parsed header plus the meta section.
Result<IndexInfo> DecodeInfo(const IndexHeader& header,
                             std::string_view file) {
  IndexInfo info;
  info.format_version = header.format_version;
  info.fingerprint_scheme_version = header.fingerprint_scheme_version;
  info.file_size = header.file_size;
  info.catalog_fingerprint = header.catalog_fingerprint;
  VIEWCAP_ASSIGN_OR_RETURN(std::string_view meta,
                           FindSection(header, file, kSectionMeta));
  Cursor cursor(meta, "meta section");
  VIEWCAP_ASSIGN_OR_RETURN(info.extra_leaves, cursor.ReadU64());
  VIEWCAP_ASSIGN_OR_RETURN(info.max_leaves, cursor.ReadU64());
  VIEWCAP_ASSIGN_OR_RETURN(info.max_candidates, cursor.ReadU64());
  VIEWCAP_ASSIGN_OR_RETURN(info.build_max_leaves, cursor.ReadU64());
  VIEWCAP_ASSIGN_OR_RETURN(info.build_max_entries, cursor.ReadU64());
  VIEWCAP_ASSIGN_OR_RETURN(info.classes, cursor.ReadU64());
  VIEWCAP_ASSIGN_OR_RETURN(info.sets, cursor.ReadU64());
  VIEWCAP_ASSIGN_OR_RETURN(info.verdicts, cursor.ReadU64());
  VIEWCAP_ASSIGN_OR_RETURN(info.dominance_entries, cursor.ReadU64());
  if (!cursor.AtEnd()) {
    return Status::IllFormed(
        "capacity index: meta section has trailing bytes");
  }
  return info;
}

std::string SetSignature(RelId handle, std::uint32_t ordinal) {
  return StrCat(handle, ":", ordinal, ";");
}

}  // namespace

Result<std::unique_ptr<IndexReader>> IndexReader::Open(
    const std::string& path, const Catalog* catalog) {
  std::unique_ptr<IndexReader> reader(new IndexReader());
  VIEWCAP_RETURN_NOT_OK(reader->Load(path, catalog));
  return reader;
}

Result<IndexInfo> IndexReader::Inspect(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(
        StrCat("capacity index: cannot open '", path, "'"));
  }
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  VIEWCAP_ASSIGN_OR_RETURN(IndexHeader header, ParseIndexHeader(bytes));
  return DecodeInfo(header, bytes);
}

IndexReader::~IndexReader() {
  if (data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

Status IndexReader::Load(const std::string& path, const Catalog* catalog) {
  path_ = path;
  catalog_ = catalog;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound(StrCat("capacity index: cannot open '", path,
                                   "': ", std::strerror(errno)));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::Internal(StrCat("capacity index: cannot stat '", path,
                                   "': ", std::strerror(errno)));
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return Status::IllFormed(
        "capacity index: file too small to hold a header (0 bytes)");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::Internal(StrCat("capacity index: cannot mmap '", path,
                                   "': ", std::strerror(errno)));
  }
  data_ = static_cast<const char*>(map);
  size_ = size;
  const std::string_view file(data_, size_);

  VIEWCAP_ASSIGN_OR_RETURN(IndexHeader header, ParseIndexHeader(file));
  if (header.fingerprint_scheme_version != kFingerprintSchemeVersion) {
    return Status::IllFormed(StrCat(
        "capacity index: fingerprint scheme version ",
        header.fingerprint_scheme_version, " does not match this build (",
        kFingerprintSchemeVersion,
        "); rebuild the index with 'viewcap_cli index build'"));
  }
  if (header.catalog_fingerprint != CatalogFingerprint(*catalog)) {
    return Status::IllFormed(
        "capacity index: catalog fingerprint mismatch — the index was "
        "built over a different program; rebuild it with 'viewcap_cli "
        "index build'");
  }
  VIEWCAP_ASSIGN_OR_RETURN(info_, DecodeInfo(header, file));

  VIEWCAP_ASSIGN_OR_RETURN(keys_, FindSection(header, file, kSectionKeys));
  VIEWCAP_ASSIGN_OR_RETURN(std::string_view sets,
                           FindSection(header, file, kSectionSets));
  VIEWCAP_ASSIGN_OR_RETURN(verdicts_,
                           FindSection(header, file, kSectionVerdicts));
  VIEWCAP_ASSIGN_OR_RETURN(dominance_,
                           FindSection(header, file, kSectionDominance));

  VIEWCAP_RETURN_NOT_OK(ValidateKeys());

  {
    Cursor cursor(sets, "sets section");
    VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t count, cursor.ReadU32());
    if (count != info_.sets) {
      return Status::IllFormed(StrCat("capacity index: sets section holds ",
                                      count, " sets but meta claims ",
                                      info_.sets));
    }
    for (std::uint32_t s = 0; s < count; ++s) {
      VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t member_count, cursor.ReadU32());
      std::string signature;
      for (std::uint32_t m = 0; m < member_count; ++m) {
        VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t handle, cursor.ReadU32());
        VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t ordinal, cursor.ReadU32());
        if (!catalog->HasRelation(handle)) {
          return Status::IllFormed(StrCat("capacity index: set ", s,
                                          " references unknown handle id ",
                                          handle));
        }
        if (ordinal >= info_.classes) {
          return Status::IllFormed(StrCat("capacity index: set ", s,
                                          " references class ordinal ",
                                          ordinal, " out of range"));
        }
        signature += SetSignature(handle, ordinal);
      }
      if (!set_index_.emplace(std::move(signature), s).second) {
        return Status::IllFormed(
            StrCat("capacity index: duplicate set record at ordinal ", s));
      }
    }
    if (!cursor.AtEnd()) {
      return Status::IllFormed(
          "capacity index: sets section has trailing bytes");
    }
  }

  VIEWCAP_RETURN_NOT_OK(ValidateVerdicts());
  VIEWCAP_RETURN_NOT_OK(ValidateDominance());
  return Status::OK();
}

Status IndexReader::ValidateKeys() {
  Cursor cursor(keys_, "key section");
  VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t count, cursor.ReadU32());
  key_count_ = count;
  if (count != info_.classes) {
    return Status::IllFormed(StrCat("capacity index: key section holds ",
                                    count, " keys but meta claims ",
                                    info_.classes, " classes"));
  }
  std::vector<std::uint64_t> offsets;
  offsets.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    VIEWCAP_ASSIGN_OR_RETURN(std::uint64_t offset, cursor.ReadU64());
    offsets.push_back(offset);
  }
  const std::size_t blob_pos = cursor.offset();
  std::string_view previous;
  std::vector<bool> keyed(count, false);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (offsets[i] > keys_.size() - blob_pos) {
      return Status::IllFormed(
          StrCat("capacity index: key entry ", i, " offset out of range"));
    }
    VIEWCAP_RETURN_NOT_OK(
        cursor.Seek(blob_pos + static_cast<std::size_t>(offsets[i])));
    VIEWCAP_ASSIGN_OR_RETURN(std::string_view key, cursor.ReadString());
    if (i > 0 && key <= previous) {
      return Status::IllFormed(
          "capacity index: key table is not strictly sorted");
    }
    previous = key;
    // Keys are exact, so each names exactly one class and each class has
    // exactly one key.
    VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t ordinal, cursor.ReadU32());
    if (ordinal >= count || keyed[ordinal]) {
      return Status::IllFormed(StrCat("capacity index: key entry ", i,
                                      " references class ordinal ", ordinal,
                                      ordinal >= count ? " out of range"
                                                       : " twice"));
    }
    keyed[ordinal] = true;
  }
  return Status::OK();
}

Status IndexReader::ValidateVerdicts() {
  Cursor cursor(verdicts_, "verdict section");
  VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t count, cursor.ReadU32());
  verdict_count_ = count;
  if (count != info_.verdicts) {
    return Status::IllFormed(StrCat("capacity index: verdict section holds ",
                                    count, " verdicts but meta claims ",
                                    info_.verdicts));
  }
  std::vector<std::uint64_t> offsets;
  offsets.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    VIEWCAP_ASSIGN_OR_RETURN(std::uint64_t offset, cursor.ReadU64());
    offsets.push_back(offset);
  }
  const std::size_t blob_pos = cursor.offset();
  std::pair<std::uint32_t, std::uint32_t> previous{0, 0};
  for (std::uint32_t i = 0; i < count; ++i) {
    if (offsets[i] > verdicts_.size() - blob_pos) {
      return Status::IllFormed(StrCat("capacity index: verdict entry ", i,
                                      " offset out of range"));
    }
    VIEWCAP_RETURN_NOT_OK(
        cursor.Seek(blob_pos + static_cast<std::size_t>(offsets[i])));
    VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t set_ordinal, cursor.ReadU32());
    VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t query_ordinal, cursor.ReadU32());
    if (set_ordinal >= info_.sets || query_ordinal >= info_.classes) {
      return Status::IllFormed(StrCat("capacity index: verdict entry ", i,
                                      " references out-of-range ordinals"));
    }
    const auto key = std::make_pair(set_ordinal, query_ordinal);
    if (i > 0 && key <= previous) {
      return Status::IllFormed(
          "capacity index: verdict section is not strictly sorted");
    }
    previous = key;
    VIEWCAP_RETURN_NOT_OK(cursor.ReadU8().status());   // member
    VIEWCAP_RETURN_NOT_OK(cursor.ReadU8().status());   // budget_exhausted
    VIEWCAP_RETURN_NOT_OK(cursor.ReadU64().status());  // candidates_tried
    VIEWCAP_RETURN_NOT_OK(cursor.ReadU64().status());  // leaf_budget
    VIEWCAP_RETURN_NOT_OK(cursor.ReadString().status());
  }
  return Status::OK();
}

Status IndexReader::ValidateDominance() {
  Cursor cursor(dominance_, "dominance section");
  VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t count, cursor.ReadU32());
  dominance_count_ = count;
  if (count != info_.dominance_entries) {
    return Status::IllFormed(
        StrCat("capacity index: dominance section holds ", count,
               " entries but meta claims ", info_.dominance_entries));
  }
  std::uint64_t previous_hash = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    VIEWCAP_ASSIGN_OR_RETURN(std::uint64_t hash, cursor.ReadU64());
    if (i > 0 && hash < previous_hash) {
      return Status::IllFormed(
          "capacity index: dominance hashes are not sorted");
    }
    previous_hash = hash;
  }
  std::vector<std::uint64_t> offsets;
  offsets.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    VIEWCAP_ASSIGN_OR_RETURN(std::uint64_t offset, cursor.ReadU64());
    offsets.push_back(offset);
  }
  const std::size_t blob_pos = cursor.offset();
  for (std::uint32_t i = 0; i < count; ++i) {
    if (offsets[i] > dominance_.size() - blob_pos) {
      return Status::IllFormed(StrCat("capacity index: dominance entry ", i,
                                      " offset out of range"));
    }
    VIEWCAP_RETURN_NOT_OK(
        cursor.Seek(blob_pos + static_cast<std::size_t>(offsets[i])));
    VIEWCAP_ASSIGN_OR_RETURN(std::string_view key, cursor.ReadString());
    if (key.empty()) {
      return Status::IllFormed(
          StrCat("capacity index: dominance entry ", i, " has an empty key"));
    }
    VIEWCAP_RETURN_NOT_OK(cursor.ReadU8().status());  // dominates
    VIEWCAP_RETURN_NOT_OK(cursor.ReadU8().status());  // inconclusive
    VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t witness_count, cursor.ReadU32());
    for (std::uint32_t w = 0; w < witness_count; ++w) {
      VIEWCAP_RETURN_NOT_OK(cursor.ReadU8().status());
      VIEWCAP_RETURN_NOT_OK(cursor.ReadString().status());
    }
    VIEWCAP_ASSIGN_OR_RETURN(std::uint32_t missing_count, cursor.ReadU32());
    for (std::uint32_t m = 0; m < missing_count; ++m) {
      VIEWCAP_RETURN_NOT_OK(cursor.ReadU64().status());
    }
  }
  return Status::OK();
}

std::uint32_t IndexReader::U32At(std::string_view s, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(s[pos + i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t IndexReader::U64At(std::string_view s, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[pos + i]))
         << (8 * i);
  }
  return v;
}

IndexReader::KeyEntry IndexReader::KeyEntryAt(std::size_t i) const {
  const std::size_t blob_pos = 4 + 8 * key_count_;
  const std::size_t pos =
      blob_pos + static_cast<std::size_t>(U64At(keys_, 4 + 8 * i));
  const std::uint32_t length = U32At(keys_, pos);
  return {keys_.substr(pos + 4, length), U32At(keys_, pos + 4 + length)};
}

std::optional<std::uint32_t> IndexReader::ResolveClass(Engine& engine,
                                                       TableauId id) {
  {
    std::lock_guard<std::mutex> lock(resolve_mu_);
    auto it = class_resolution_.find(id);
    if (it != class_resolution_.end()) return it->second;
  }
  // The search runs outside the resolution lock; racing resolvers of one
  // id compute the same answer.
  const std::string& key = engine.ClassKey(id);
  std::optional<std::uint32_t> resolved;
  std::size_t lo = 0, hi = key_count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (KeyEntryAt(mid).key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < key_count_) {
    // Equal exact keys mean one class.
    const KeyEntry entry = KeyEntryAt(lo);
    if (entry.key == key) resolved = entry.ordinal;
  }
  std::lock_guard<std::mutex> lock(resolve_mu_);
  return class_resolution_.try_emplace(id, resolved).first->second;
}

std::optional<std::uint32_t> IndexReader::ResolveSet(
    Engine& engine, const MembershipProbe& probe) {
  {
    std::lock_guard<std::mutex> lock(resolve_mu_);
    auto it = set_resolution_.find(*probe.set_fingerprint);
    if (it != set_resolution_.end()) return it->second;
  }
  std::optional<std::uint32_t> resolved;
  std::string signature;
  bool complete = true;
  for (std::size_t i = 0; i < probe.member_ids->size(); ++i) {
    const std::optional<std::uint32_t> ordinal =
        ResolveClass(engine, (*probe.member_ids)[i]);
    if (!ordinal) {
      complete = false;
      break;
    }
    signature += SetSignature((*probe.handles)[i], *ordinal);
  }
  if (complete) {
    auto it = set_index_.find(signature);
    if (it != set_index_.end()) resolved = it->second;
  }
  std::lock_guard<std::mutex> lock(resolve_mu_);
  return set_resolution_.try_emplace(*probe.set_fingerprint, resolved)
      .first->second;
}

std::optional<MembershipResult> IndexReader::LookupMembership(
    Engine& engine, const MembershipProbe& probe) {
  membership_lookups_.fetch_add(1, std::memory_order_relaxed);
  if (probe.extra_leaves != info_.extra_leaves ||
      probe.max_leaves != info_.max_leaves ||
      probe.max_candidates != info_.max_candidates) {
    // Verdicts are only exact under the limits they were computed with;
    // any other limits fall back to the live search.
    limit_mismatches_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const std::optional<std::uint32_t> set_ordinal = ResolveSet(engine, probe);
  if (!set_ordinal) return std::nullopt;
  const std::optional<std::uint32_t> query_ordinal =
      ResolveClass(engine, probe.query_id);
  if (!query_ordinal) return std::nullopt;

  const auto target = std::make_pair(*set_ordinal, *query_ordinal);
  const std::size_t blob_pos = 4 + 8 * verdict_count_;
  const auto entry_pos = [&](std::size_t i) {
    return blob_pos + static_cast<std::size_t>(U64At(verdicts_, 4 + 8 * i));
  };
  const auto entry_key = [&](std::size_t i) {
    const std::size_t pos = entry_pos(i);
    return std::make_pair(U32At(verdicts_, pos), U32At(verdicts_, pos + 4));
  };
  std::size_t lo = 0, hi = verdict_count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (entry_key(mid) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == verdict_count_ || entry_key(lo) != target) return std::nullopt;

  const std::size_t pos = entry_pos(lo);
  MembershipResult result;
  result.member = verdicts_[pos + 8] != 0;
  result.budget_exhausted = verdicts_[pos + 9] != 0;
  result.candidates_tried =
      static_cast<std::size_t>(U64At(verdicts_, pos + 10));
  result.leaf_budget = static_cast<std::size_t>(U64At(verdicts_, pos + 18));
  const std::uint32_t witness_length = U32At(verdicts_, pos + 26);
  if (witness_length > 0) {
    const std::string_view text = verdicts_.substr(pos + 30, witness_length);
    Result<ExprPtr> witness = ParseExpr(*catalog_, text);
    // A decode failure is treated as a miss: the caller re-runs the live
    // search and gets a correct (just slower) answer.
    if (!witness.ok()) return std::nullopt;
    result.witness = *std::move(witness);
  }
  membership_hits_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

std::optional<DominanceResult> IndexReader::LookupDominance(
    Engine& engine, const std::string& key) {
  (void)engine;
  dominance_lookups_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t hash = Fnv1a64(key);
  const std::size_t hashes_pos = 4;
  const std::size_t offsets_pos = 4 + 8 * dominance_count_;
  const std::size_t blob_pos = 4 + 16 * dominance_count_;
  const auto hash_at = [&](std::size_t i) {
    return U64At(dominance_, hashes_pos + 8 * i);
  };
  std::size_t lo = 0, hi = dominance_count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (hash_at(mid) < hash) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  for (std::size_t i = lo; i < dominance_count_ && hash_at(i) == hash; ++i) {
    const std::size_t pos =
        blob_pos + static_cast<std::size_t>(U64At(dominance_, offsets_pos + 8 * i));
    const std::uint32_t key_length = U32At(dominance_, pos);
    if (dominance_.substr(pos + 4, key_length) != key) continue;
    Cursor cursor(dominance_, "dominance section");
    if (!cursor.Seek(pos + 4 + key_length).ok()) return std::nullopt;
    DominanceResult result;
    // The section was structurally validated at Open, so these reads
    // cannot fail; the guards keep the no-UB promise anyway.
    Result<std::uint8_t> dominates = cursor.ReadU8();
    Result<std::uint8_t> inconclusive = cursor.ReadU8();
    if (!dominates.ok() || !inconclusive.ok()) return std::nullopt;
    result.dominates = *dominates != 0;
    result.inconclusive = *inconclusive != 0;
    Result<std::uint32_t> witness_count = cursor.ReadU32();
    if (!witness_count.ok()) return std::nullopt;
    result.witnesses.reserve(*witness_count);
    for (std::uint32_t w = 0; w < *witness_count; ++w) {
      Result<std::uint8_t> present = cursor.ReadU8();
      if (!present.ok()) return std::nullopt;
      Result<std::string_view> text = cursor.ReadString();
      if (!text.ok()) return std::nullopt;
      if (*present == 0) {
        result.witnesses.push_back(nullptr);
        continue;
      }
      Result<ExprPtr> witness = ParseExpr(*catalog_, *text);
      if (!witness.ok()) return std::nullopt;
      result.witnesses.push_back(*std::move(witness));
    }
    Result<std::uint32_t> missing_count = cursor.ReadU32();
    if (!missing_count.ok()) return std::nullopt;
    result.missing.reserve(*missing_count);
    for (std::uint32_t m = 0; m < *missing_count; ++m) {
      Result<std::uint64_t> index = cursor.ReadU64();
      if (!index.ok()) return std::nullopt;
      result.missing.push_back(static_cast<std::size_t>(*index));
    }
    dominance_hits_.fetch_add(1, std::memory_order_relaxed);
    return result;
  }
  return std::nullopt;
}

IndexStats IndexReader::StatsSnapshot() const {
  IndexStats stats;
  stats.membership_lookups =
      membership_lookups_.load(std::memory_order_relaxed);
  stats.membership_hits = membership_hits_.load(std::memory_order_relaxed);
  stats.dominance_lookups =
      dominance_lookups_.load(std::memory_order_relaxed);
  stats.dominance_hits = dominance_hits_.load(std::memory_order_relaxed);
  stats.limit_mismatches = limit_mismatches_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace viewcap
