// Persistent capacity index: build/query round trips, bit-identity with
// the live engine, and corruption rejection (every failure a structured
// Status, never UB — the whole file runs under the asan/ubsan presets).
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/viewcap.h"
#include "index/format.h"
#include "index/index_reader.h"
#include "index/index_writer.h"
#include "test_util.h"

namespace viewcap {
namespace testing {
namespace {

constexpr char kProgram[] = R"(
schema {
  emp(Name, Dept, Salary);
  dept(Dept, Location);
}
view Public {
  emp_pub  := pi{Name, Dept}(emp);
  dept_pub := dept;
}
view Banded {
  emp_pub2  := pi{Name, Dept}(emp);
  salaries  := pi{Dept, Salary}(emp);
  dept_pub2 := dept;
}
)";

constexpr char kTinyProgram[] = R"(
schema { r(A, B); }
view V { v1 := pi{A}(r); }
)";

constexpr char kOtherProgram[] = R"(
schema { s(X, Y); }
view U { u1 := pi{X}(s); }
)";

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string BuildOver(const char* program, const std::string& path,
                      IndexBuildStats* stats = nullptr) {
  Analyzer analyzer;
  VIEWCAP_EXPECT_OK(analyzer.Load(program));
  IndexBuildStats local;
  Result<IndexBuildStats> built =
      BuildIndexFile(analyzer, path, IndexBuildOptions{});
  local = Unwrap(std::move(built));
  if (stats != nullptr) *stats = local;
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

TEST(IndexBuildTest, BuildWritesInspectableFile) {
  const std::string path = TempPath("build_inspect.vcidx");
  IndexBuildStats stats;
  BuildOver(kProgram, path, &stats);
  EXPECT_GT(stats.classes, 0u);
  EXPECT_EQ(stats.sets, 2u);
  EXPECT_GT(stats.verdicts, 0u);
  EXPECT_EQ(stats.dominance_entries, 2u);

  IndexInfo info = Unwrap(IndexReader::Inspect(path));
  EXPECT_EQ(info.format_version, kIndexFormatVersion);
  EXPECT_EQ(info.fingerprint_scheme_version, kFingerprintSchemeVersion);
  EXPECT_EQ(info.classes, stats.classes);
  EXPECT_EQ(info.sets, stats.sets);
  EXPECT_EQ(info.verdicts, stats.verdicts);
  EXPECT_EQ(info.dominance_entries, stats.dominance_entries);
  EXPECT_EQ(info.file_size, stats.bytes);
}

TEST(IndexBuildTest, BuildIsByteDeterministic) {
  // Two builds in two fresh processes-worth of state must produce the
  // same bytes — the index is a pure function of the program.
  std::string first, second;
  {
    Analyzer analyzer;
    VIEWCAP_EXPECT_OK(analyzer.Load(kProgram));
    first = Unwrap(BuildIndexBytes(analyzer, IndexBuildOptions{}));
  }
  {
    Analyzer analyzer;
    VIEWCAP_EXPECT_OK(analyzer.Load(kProgram));
    second = Unwrap(BuildIndexBytes(analyzer, IndexBuildOptions{}));
  }
  EXPECT_EQ(first, second);
}

TEST(IndexBuildTest, BuildIsByteDeterministicAcrossThreadCounts) {
  // The per-view saturation and cross-view sweeps run in parallel over
  // views when the serving limits allow; the output bytes must not
  // depend on the thread count (ordinals, dedup, and exemplar
  // serialization happen in a serial phase — see BuildIndexBytes). Each
  // view's questions run serially on one thread, so a parallel build does
  // exactly the serial build's work: no membership search evaluates a
  // candidate the serial search would not. Build leaves 3 still store
  // verdicts the enumeration alone decides.
  std::string serial;
  EngineStats serial_stats;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    Analyzer analyzer;
    VIEWCAP_EXPECT_OK(analyzer.Load(kProgram));
    IndexBuildOptions options;
    options.max_leaves = 3;
    options.limits.threads = threads;
    const std::string bytes = Unwrap(BuildIndexBytes(analyzer, options));
    const EngineStats stats = analyzer.engine().StatsSnapshot();
    if (threads == 1u) {
      serial = bytes;
      serial_stats = stats;
      EXPECT_FALSE(serial.empty());
      EXPECT_GT(stats.membership.enumeration, 0u);
    } else {
      EXPECT_EQ(bytes, serial) << "threads=" << threads;
      EXPECT_EQ(stats.intern_requests, serial_stats.intern_requests)
          << "threads=" << threads;
      EXPECT_EQ(stats.interned_classes, serial_stats.interned_classes)
          << "threads=" << threads;
      EXPECT_EQ(stats.expansion.requests, serial_stats.expansion.requests)
          << "threads=" << threads;
      EXPECT_EQ(stats.row_embedding.requests,
                serial_stats.row_embedding.requests)
          << "threads=" << threads;
      EXPECT_EQ(stats.membership, serial_stats.membership)
          << "threads=" << threads;
    }
  }
}

TEST(IndexRoundTripTest, MembershipBitIdenticalToLiveEngine) {
  const std::string path = TempPath("roundtrip_membership.vcidx");
  BuildOver(kProgram, path);

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"Public", "pi{Name}(emp)"},
      {"Public", "emp"},
      {"Public", "pi{Salary}(emp)"},
      {"Public", "pi{Name, Dept}(emp) * dept"},
      {"Banded", "pi{Salary}(emp)"},
      {"Banded", "pi{Name}(emp) * pi{Dept, Salary}(emp)"},
  };

  // Fresh live-only analyzer.
  Analyzer live;
  VIEWCAP_EXPECT_OK(live.Load(kProgram));
  // Fresh analyzer serving from the index (simulates a new process).
  Analyzer indexed;
  VIEWCAP_EXPECT_OK(indexed.Load(kProgram));
  std::unique_ptr<IndexReader> reader =
      Unwrap(IndexReader::Open(path, &indexed.catalog()));
  indexed.engine().AttachIndex(reader.get());

  for (const auto& [view, query] : cases) {
    std::string live_report, indexed_report;
    MembershipResult a =
        Unwrap(live.CheckAnswerable(view, query, {}, &live_report));
    MembershipResult b =
        Unwrap(indexed.CheckAnswerable(view, query, {}, &indexed_report));
    EXPECT_EQ(a.member, b.member) << view << " / " << query;
    EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << query;
    EXPECT_EQ(a.candidates_tried, b.candidates_tried) << query;
    EXPECT_EQ(a.leaf_budget, b.leaf_budget) << query;
    EXPECT_EQ(live_report, indexed_report) << view << " / " << query;
  }
  // The probes above must actually have been served from the file, not
  // from a silent live fallback.
  EXPECT_GT(reader->StatsSnapshot().membership_hits, 0u);
  EXPECT_EQ(reader->StatsSnapshot().limit_mismatches, 0u);
}

TEST(IndexRoundTripTest, EquivalenceBitIdenticalToLiveEngine) {
  const std::string path = TempPath("roundtrip_equiv.vcidx");
  BuildOver(kProgram, path);

  Analyzer live;
  VIEWCAP_EXPECT_OK(live.Load(kProgram));
  Analyzer indexed;
  VIEWCAP_EXPECT_OK(indexed.Load(kProgram));
  std::unique_ptr<IndexReader> reader =
      Unwrap(IndexReader::Open(path, &indexed.catalog()));
  indexed.engine().AttachIndex(reader.get());

  std::string live_report, indexed_report;
  EquivalenceResult a =
      Unwrap(live.CheckEquivalence("Public", "Banded", {}, &live_report));
  EquivalenceResult b =
      Unwrap(indexed.CheckEquivalence("Public", "Banded", {},
                                      &indexed_report));
  EXPECT_EQ(a.equivalent, b.equivalent);
  EXPECT_EQ(a.inconclusive, b.inconclusive);
  EXPECT_EQ(live_report, indexed_report);
  EXPECT_GT(reader->StatsSnapshot().dominance_hits, 0u);
}

TEST(IndexRoundTripTest, LimitMismatchFallsBackToLiveSearch) {
  const std::string path = TempPath("limit_mismatch.vcidx");
  BuildOver(kProgram, path);

  Analyzer indexed;
  VIEWCAP_EXPECT_OK(indexed.Load(kProgram));
  std::unique_ptr<IndexReader> reader =
      Unwrap(IndexReader::Open(path, &indexed.catalog()));
  indexed.engine().AttachIndex(reader.get());

  // Probe under limits other than the ones the index was built for: the
  // verdict must still be correct (live fallback), and the reader must
  // record the mismatch rather than serve a wrong entry.
  SearchLimits other;
  other.max_candidates = 12345;
  MembershipResult r =
      Unwrap(indexed.CheckAnswerable("Public", "pi{Name}(emp)", other));
  EXPECT_TRUE(r.member);
  IndexStats stats = reader->StatsSnapshot();
  EXPECT_GT(stats.limit_mismatches, 0u);
  EXPECT_EQ(stats.membership_hits, 0u);
}

TEST(IndexInvalidationTest, CatalogFingerprintMismatchRejected) {
  const std::string path = TempPath("stale.vcidx");
  BuildOver(kTinyProgram, path);

  Analyzer other;
  VIEWCAP_EXPECT_OK(other.Load(kOtherProgram));
  Result<std::unique_ptr<IndexReader>> opened =
      IndexReader::Open(path, &other.catalog());
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("fingerprint mismatch"),
            std::string::npos)
      << opened.status().ToString();
}

TEST(IndexInvalidationTest, WrongFormatVersionRejected) {
  const std::string path = TempPath("wrong_version.vcidx");
  BuildOver(kTinyProgram, path);
  std::string bytes = ReadAll(path);
  ASSERT_GE(bytes.size(), 16u);
  bytes[12] = static_cast<char>(kIndexFormatVersion + 1);  // LE low byte.
  WriteAll(path, bytes);

  Analyzer analyzer;
  VIEWCAP_EXPECT_OK(analyzer.Load(kTinyProgram));
  Result<std::unique_ptr<IndexReader>> opened =
      IndexReader::Open(path, &analyzer.catalog());
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("format version"),
            std::string::npos)
      << opened.status().ToString();
}

TEST(IndexInvalidationTest, WrongEndiannessRejected) {
  const std::string path = TempPath("wrong_endian.vcidx");
  BuildOver(kTinyProgram, path);
  std::string bytes = ReadAll(path);
  ASSERT_GE(bytes.size(), 12u);
  // The endian word as a big-endian writer would have laid it out.
  bytes[8] = static_cast<char>(0x01);
  bytes[9] = static_cast<char>(0x02);
  bytes[10] = static_cast<char>(0x03);
  bytes[11] = static_cast<char>(0x04);
  WriteAll(path, bytes);

  Analyzer analyzer;
  VIEWCAP_EXPECT_OK(analyzer.Load(kTinyProgram));
  Result<std::unique_ptr<IndexReader>> opened =
      IndexReader::Open(path, &analyzer.catalog());
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("endian"), std::string::npos)
      << opened.status().ToString();
}

TEST(IndexInvalidationTest, TruncationsRejected) {
  const std::string path = TempPath("truncated.vcidx");
  BuildOver(kTinyProgram, path);
  const std::string bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 64u);

  Analyzer analyzer;
  VIEWCAP_EXPECT_OK(analyzer.Load(kTinyProgram));
  const std::string cut = TempPath("truncated_cut.vcidx");
  const std::size_t lengths[] = {0,  4,  12, 31, 47, bytes.size() / 4,
                                 bytes.size() / 2, bytes.size() - 1};
  for (std::size_t len : lengths) {
    WriteAll(cut, bytes.substr(0, len));
    Result<std::unique_ptr<IndexReader>> opened =
        IndexReader::Open(cut, &analyzer.catalog());
    EXPECT_FALSE(opened.ok()) << "truncation to " << len << " accepted";
  }
}

TEST(IndexInvalidationTest, EveryByteFlipRejected) {
  // Single-byte corruption anywhere in the file must be caught: the
  // header is checksummed and every section carries its own FNV checksum
  // (a one-byte change always perturbs FNV-1a).
  const std::string path = TempPath("flip.vcidx");
  BuildOver(kTinyProgram, path);
  const std::string bytes = ReadAll(path);

  Analyzer analyzer;
  VIEWCAP_EXPECT_OK(analyzer.Load(kTinyProgram));
  const std::string flipped = TempPath("flip_mut.vcidx");
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    WriteAll(flipped, mutated);
    Result<std::unique_ptr<IndexReader>> opened =
        IndexReader::Open(flipped, &analyzer.catalog());
    EXPECT_FALSE(opened.ok()) << "flip at byte " << i << " accepted";
  }
}

// Little-endian field access for hand-edited index bytes.
std::uint64_t GetLE(const std::string& s, std::size_t pos, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(s[pos + i]))
         << (8 * i);
  }
  return v;
}

void PutLE(std::string& s, std::size_t pos, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    s[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// The file `bytes` with its key section rewritten by `edit` and every
// checksum recomputed, so only the structural checks can object.
std::string WithEditedKeys(const std::string& bytes,
                           const std::function<void(std::string&)>& edit) {
  const IndexHeader header = Unwrap(ParseIndexHeader(bytes));
  std::vector<std::pair<std::uint32_t, std::string>> sections;
  for (const IndexSection& section : header.sections) {
    std::string payload(Unwrap(FindSection(header, bytes, section.id)));
    if (section.id == kSectionKeys) edit(payload);
    sections.emplace_back(section.id, std::move(payload));
  }
  return AssembleIndexFile(header.catalog_fingerprint, sections);
}

TEST(IndexInvalidationTest, MalformedKeyTableRejected) {
  // Two definitions, so the key table has at least two entries.
  constexpr char kProgramWithTwoClasses[] = R"(
schema { r(A, B); }
view V { v1 := pi{A}(r); v2 := pi{B}(r); }
)";
  const std::string path = TempPath("keys.vcidx");
  BuildOver(kProgramWithTwoClasses, path);
  const std::string bytes = ReadAll(path);
  Analyzer analyzer;
  VIEWCAP_EXPECT_OK(analyzer.Load(kProgramWithTwoClasses));
  const auto open = [&](const std::string& image) {
    const std::string edited = TempPath("keys_edited.vcidx");
    WriteAll(edited, image);
    return IndexReader::Open(edited, &analyzer.catalog());
  };
  // Key section: u32 count, one u64 blob offset per entry, then per entry
  // a u32 length, the key bytes and the u32 class ordinal.
  const auto ordinal_pos = [](const std::string& keys, std::size_t i) {
    const std::size_t pos =
        4 + 8 * GetLE(keys, 0, 4) + GetLE(keys, 4 + 8 * i, 8);
    return pos + 4 + GetLE(keys, pos, 4);
  };
  const IndexHeader header = Unwrap(ParseIndexHeader(bytes));
  const std::string keys(Unwrap(FindSection(header, bytes, kSectionKeys)));
  ASSERT_GE(GetLE(keys, 0, 4), 2u);
  // Re-assembled unchanged, the file still opens.
  VIEWCAP_EXPECT_OK(open(WithEditedKeys(bytes, [](std::string&) {})).status());

  const std::vector<std::pair<std::function<void(std::string&)>,
                              std::string>>
      cases = {
          {[&](std::string& keys) {
             PutLE(keys, ordinal_pos(keys, 1),
                   GetLE(keys, ordinal_pos(keys, 0), 4), 4);
           },
           "twice"},
          {[&](std::string& keys) {
             PutLE(keys, ordinal_pos(keys, 0), GetLE(keys, 0, 4), 4);
           },
           "out of range"},
          {[](std::string& keys) {
             const std::uint64_t first = GetLE(keys, 4, 8);
             PutLE(keys, 4, GetLE(keys, 12, 8), 8);
             PutLE(keys, 12, first, 8);
           },
           "not strictly sorted"},
      };
  for (const auto& [edit, message] : cases) {
    Result<std::unique_ptr<IndexReader>> opened =
        open(WithEditedKeys(bytes, edit));
    ASSERT_FALSE(opened.ok()) << message;
    EXPECT_NE(opened.status().message().find(message), std::string::npos)
        << opened.status().ToString();
  }
}

TEST(IndexInvalidationTest, GarbageAndEmptyFilesRejected) {
  Analyzer analyzer;
  VIEWCAP_EXPECT_OK(analyzer.Load(kTinyProgram));

  const std::string empty = TempPath("empty.vcidx");
  WriteAll(empty, "");
  EXPECT_FALSE(IndexReader::Open(empty, &analyzer.catalog()).ok());

  const std::string garbage = TempPath("garbage.vcidx");
  std::string junk(4096, '\0');
  for (std::size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<char>((i * 131 + 17) & 0xff);
  }
  WriteAll(garbage, junk);
  EXPECT_FALSE(IndexReader::Open(garbage, &analyzer.catalog()).ok());

  EXPECT_FALSE(
      IndexReader::Open(TempPath("does_not_exist.vcidx"), &analyzer.catalog())
          .ok());
}

TEST(IndexFormatTest, CursorReportsTruncationNotUB) {
  Cursor cursor(std::string_view("\x01\x02", 2), "test blob");
  Result<std::uint32_t> word = cursor.ReadU32();
  ASSERT_FALSE(word.ok());
  EXPECT_NE(word.status().message().find("truncated"), std::string::npos);
}

}  // namespace
}  // namespace testing
}  // namespace viewcap
