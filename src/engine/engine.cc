#include "engine/engine.h"

#include <charconv>

#include "base/check.h"
#include "base/strings.h"
#include "tableau/canonical.h"
#include "tableau/reduce.h"

namespace viewcap {

namespace {

// Kernel scratch reused across every search a thread runs through this
// translation unit: engine searches are frequent and small, so the
// steady state does no allocation.
HomScratch& KernelScratch() {
  thread_local HomScratch scratch;
  return scratch;
}

// Appends the decimal rendering of `v` without allocating. Fingerprints
// sit on every intern, so they cannot afford the ostringstream that
// StrCat constructs per call.
void AppendU32(std::uint32_t v, std::string* out) {
  char buf[10];
  char* end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, end);
}

}  // namespace

std::string TableauFingerprint(const Tableau& t) {
  std::string out;
  out.reserve(32 + 8 * t.universe().size() + 24 * t.size());
  out.push_back('U');
  for (AttrId a : t.universe()) {
    AppendU32(a, &out);
    out.push_back(',');
  }
  for (const TaggedTuple& row : t.rows()) {
    out += "|r";
    AppendU32(row.rel, &out);
    out.push_back(':');
    for (std::size_t k = 0; k < row.tuple.size(); ++k) {
      const Symbol& s = row.tuple.ValueAt(k);
      AppendU32(s.attr, &out);
      out.push_back('.');
      AppendU32(s.ordinal, &out);
      out.push_back(',');
    }
  }
  return out;
}

Engine::Engine(const Catalog* catalog, EngineOptions options)
    : catalog_(catalog),
      options_(options),
      intern_cache_(options.max_memo_entries),
      embed_cache_(options.max_memo_entries),
      expansion_cache_(options.max_memo_entries),
      verdict_cache_(options.max_memo_entries),
      dominance_cache_(options.max_memo_entries) {}

HomScratch& Engine::PreparedScratch() {
  HomScratch& scratch = KernelScratch();
  scratch.filter = {};
  return scratch;
}

void Engine::HarvestFilter(const HomScratch& scratch) {
  const FilterCounters& c = scratch.filter;
  Add(filter_invocations_, static_cast<std::size_t>(c.invocations));
  Add(filter_rows_, static_cast<std::size_t>(c.rows));
  Add(filter_survivors_, static_cast<std::size_t>(c.survivors));
}

TableauId Engine::Intern(const Tableau& t) {
  Bump(intern_requests_);
  // A form interned before — as an input or as the core of one — maps
  // straight to its id: the warm-engine steady state, where the same
  // templates are re-interned on every request, runs no kernel.
  const std::string fingerprint = TableauFingerprint(t);
  if (std::optional<TableauId> memo = intern_cache_.Get(fingerprint)) {
    Bump(intern_hits_);
    return *memo;
  }
  // The kernels run before any interning lock is taken.
  HomScratch& scratch = PreparedScratch();
  Tableau core = Reduce(*catalog_, t, scratch);
  HarvestFilter(scratch);
  Bump(reduce_runs_);
  const std::string core_fingerprint = TableauFingerprint(core);
  if (core_fingerprint != fingerprint) {
    if (std::optional<TableauId> memo = intern_cache_.Get(core_fingerprint)) {
      Bump(intern_hits_);
      intern_cache_.Put(fingerprint, *memo);
      return *memo;
    }
  }
  std::string key = CanonicalKey(core);
  Bump(key_runs_);
  // The shard lock serializes the whole lookup-or-insert for this key
  // (equivalent templates reduce to isomorphic cores, so they share a
  // canonical key and therefore a shard): two threads interning one class
  // concurrently agree on a single id.
  std::lock_guard<std::mutex> shard_lock(
      intern_shard_mu_[std::hash<std::string>{}(key) % kInternShards]);
  std::pair<const std::string, TableauId>* entry = nullptr;
  {
    // References to map entries survive unordered_map rehashes, so the
    // map lock covers only the find-or-insert; the entry's id is owned by
    // the shard lock already held.
    std::lock_guard<std::mutex> map_lock(keys_mu_);
    entry = &*class_of_key_.try_emplace(std::move(key), kInvalidTableauId)
                  .first;
  }
  TableauId& slot = entry->second;
  if (slot != kInvalidTableauId) {
    // Equal exact keys of cores mean one class.
    Bump(intern_hits_);
  } else {
    // A new class: its SoA lowering is computed once, here, and published
    // with the representative.
    SoaTemplate soa = SoaTemplate::Lower(core);
    std::lock_guard<std::shared_mutex> classes_lock(classes_mu_);
    slot = classes_.size();
    classes_.push_back(
        InternedClass{std::move(core), std::move(soa), &entry->first});
  }
  intern_cache_.Put(fingerprint, slot);
  intern_cache_.Put(core_fingerprint, slot);
  return slot;
}

const Tableau& Engine::Representative(TableauId id) const {
  // The lock covers only the index operation: deque references are stable
  // under push_back and published elements are immutable.
  std::shared_lock<std::shared_mutex> lock(classes_mu_);
  VIEWCAP_CHECK(id < classes_.size());
  return classes_[id].representative;
}

const SoaTemplate& Engine::SoaForm(TableauId id) const {
  std::shared_lock<std::shared_mutex> lock(classes_mu_);
  VIEWCAP_CHECK(id < classes_.size());
  return classes_[id].soa;
}

const std::string& Engine::ClassKey(TableauId id) const {
  std::shared_lock<std::shared_mutex> lock(classes_mu_);
  VIEWCAP_CHECK(id < classes_.size());
  return *classes_[id].key;
}

bool Engine::Equivalent(const Tableau& a, const Tableau& b) {
  return Intern(a) == Intern(b);
}

bool Engine::RowEmbeds(TableauId from, TableauId to) {
  Bump(embed_requests_);
  const std::string key = StrCat(from, "~", to);
  bool ran = false;
  std::optional<bool> embeds = embed_cache_.GetOrCompute(
      key,
      [&]() -> std::optional<bool> {
        if (Representative(from).universe() !=
            Representative(to).universe()) {
          return false;
        }
        HomScratch& scratch = PreparedScratch();
        const bool embeds = SoaSearch(SoaForm(from), SoaForm(to),
                                      HomMode::kRowEmbedding, scratch,
                                      nullptr);
        HarvestFilter(scratch);
        return embeds;
      },
      &ran);
  if (ran) Bump(embed_runs_);
  return *embeds;
}

Result<TableauId> Engine::ExpansionClass(TableauId level,
                                         const TemplateAssignment& beta) {
  Bump(expansion_requests_);
  const Tableau& rep = Representative(level);
  std::string key = StrCat("L", level, "|");
  bool keyed = true;
  for (RelId rel : rep.RelNames()) {
    auto it = beta.find(rel);
    if (it == beta.end()) {
      // Let the substitution surface the NotFound error uncached.
      keyed = false;
      break;
    }
    key += StrCat(rel, ">", Intern(it->second), ";");
  }
  if (!keyed) {
    Bump(expansion_runs_);
    SymbolPool pool;
    VIEWCAP_ASSIGN_OR_RETURN(Tableau expansion,
                             SubstituteTableau(*catalog_, rep, beta, pool));
    return Intern(expansion);
  }
  Status failure = Status::OK();
  bool ran = false;
  std::optional<TableauId> id = expansion_cache_.GetOrCompute(
      key,
      [&]() -> std::optional<TableauId> {
        SymbolPool pool;
        Result<Tableau> expansion =
            SubstituteTableau(*catalog_, rep, beta, pool);
        if (!expansion.ok()) {
          // Not cached: the error is surfaced by this caller and any
          // waiter re-runs the substitution for its own error.
          failure = expansion.status();
          return std::nullopt;
        }
        return Intern(*std::move(expansion));
      },
      &ran);
  if (ran) Bump(expansion_runs_);
  if (!id.has_value()) return failure;
  return *id;
}

std::optional<MembershipResult> Engine::LookupVerdict(
    const std::string& key) {
  Bump(verdict_requests_);
  std::optional<MembershipResult> hit = verdict_cache_.Get(key);
  if (!hit.has_value()) Bump(verdict_runs_);
  return hit;
}

void Engine::StoreVerdict(const std::string& key,
                          const MembershipResult& verdict) {
  verdict_cache_.Put(key, verdict);
}

std::optional<DominanceResult> Engine::LookupDominance(
    const std::string& key) {
  Bump(dominance_requests_);
  std::optional<DominanceResult> hit = dominance_cache_.Get(key);
  if (!hit.has_value()) Bump(dominance_runs_);
  return hit;
}

void Engine::StoreDominance(const std::string& key,
                            const DominanceResult& verdict) {
  dominance_cache_.Put(key, verdict);
}

ThreadPool* Engine::SharedPool(std::size_t total_threads) {
  if (total_threads <= 1) return nullptr;
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(total_threads - 1);
  } else {
    pool_->EnsureWorkers(total_threads - 1);
  }
  return pool_.get();
}

void Engine::CountMembership(MembershipRoute route) {
  Bump(membership_routes_[static_cast<std::size_t>(route)]);
}

EngineStats Engine::ReadStatsOnce() const {
  EngineStats stats;
  stats.row_embedding = {Load(embed_requests_), Load(embed_runs_),
                         embed_cache_.evictions(), embed_cache_.size()};
  stats.expansion = {Load(expansion_requests_), Load(expansion_runs_),
                     expansion_cache_.evictions(), expansion_cache_.size()};
  stats.verdict = {Load(verdict_requests_), Load(verdict_runs_),
                   verdict_cache_.evictions(), verdict_cache_.size()};
  stats.dominance = {Load(dominance_requests_), Load(dominance_runs_),
                     dominance_cache_.evictions(), dominance_cache_.size()};
  stats.intern_requests = Load(intern_requests_);
  stats.intern_hits = Load(intern_hits_);
  stats.reduce_runs = Load(reduce_runs_);
  stats.canonical_key_runs = Load(key_runs_);
  {
    std::shared_lock<std::shared_mutex> lock(classes_mu_);
    stats.interned_classes = classes_.size();
  }
  stats.filter = {Load(filter_invocations_), Load(filter_rows_),
                  Load(filter_survivors_)};
  stats.membership = {Load(membership_routes_[0]), Load(membership_routes_[1]),
                      Load(membership_routes_[2])};
  return stats;
}

EngineStats Engine::StatsSnapshot() const {
  // Seqlock-style consistency without a writer lock: keep re-reading the
  // whole counter vector until two consecutive reads agree. On a
  // quiescent engine the first retry confirms immediately; under heavy
  // concurrent mutation the loop gives up after a few rounds and returns
  // the freshest read (momentary cross-counter skew is acceptable there
  // by the EngineStats contract).
  constexpr int kMaxRetries = 4;
  EngineStats prev = ReadStatsOnce();
  for (int i = 0; i < kMaxRetries; ++i) {
    EngineStats next = ReadStatsOnce();
    if (next == prev) return next;
    prev = next;
  }
  return prev;
}

}  // namespace viewcap
