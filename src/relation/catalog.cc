#include "relation/catalog.h"

#include <algorithm>
#include <iterator>

#include "base/check.h"
#include "base/strings.h"

namespace viewcap {

AttrId Catalog::AddAttribute(std::string_view name) {
  auto it = attr_index_.find(std::string(name));
  if (it != attr_index_.end()) return it->second;
  AttrId id = static_cast<AttrId>(attr_names_.size());
  attr_names_.emplace_back(name);
  attr_index_.emplace(std::string(name), id);
  return id;
}

Result<RelId> Catalog::AddRelation(std::string_view name, AttrSet scheme) {
  if (scheme.empty()) {
    return Status::IllFormed(
        StrCat("relation scheme for '", name, "' must be nonempty"));
  }
  for (AttrId a : scheme) {
    if (!HasAttribute(a)) {
      return Status::IllFormed(
          StrCat("relation '", name, "' uses unknown attribute id ", a));
    }
  }
  auto it = relation_index_.find(std::string(name));
  if (it != relation_index_.end()) {
    if (relation_schemes_[it->second] == scheme) return it->second;
    return Status::IllFormed(StrCat("relation '", name,
                                    "' already declared with another type"));
  }
  RelId id = static_cast<RelId>(relation_names_.size());
  relation_names_.emplace_back(name);
  relation_schemes_.push_back(std::move(scheme));
  relation_index_.emplace(std::string(name), id);
  return id;
}

Result<AttrId> Catalog::FindAttribute(std::string_view name) const {
  auto it = attr_index_.find(std::string(name));
  if (it == attr_index_.end()) {
    return Status::NotFound(StrCat("attribute '", name, "'"));
  }
  return it->second;
}

Result<RelId> Catalog::FindRelation(std::string_view name) const {
  auto it = relation_index_.find(std::string(name));
  if (it == relation_index_.end()) {
    return Status::NotFound(StrCat("relation '", name, "'"));
  }
  return it->second;
}

const std::string& Catalog::AttributeName(AttrId attr) const {
  VIEWCAP_CHECK(HasAttribute(attr));
  return attr_names_[attr];
}

const std::string& Catalog::RelationName(RelId rel) const {
  VIEWCAP_CHECK(HasRelation(rel));
  return relation_names_[rel];
}

const AttrSet& Catalog::RelationScheme(RelId rel) const {
  VIEWCAP_CHECK(HasRelation(rel));
  return relation_schemes_[rel];
}

AttrSet Catalog::MakeScheme(std::initializer_list<std::string_view> names) {
  std::vector<AttrId> attrs;
  attrs.reserve(names.size());
  for (std::string_view n : names) attrs.push_back(AddAttribute(n));
  return AttrSet(std::move(attrs));
}

RelId Catalog::MintRelation(std::string_view prefix, const AttrSet& scheme) {
  for (std::size_t n = relation_names_.size();; ++n) {
    std::string name = StrCat(prefix, n);
    if (relation_index_.find(name) == relation_index_.end()) {
      Result<RelId> rel = AddRelation(name, scheme);
      VIEWCAP_CHECK(rel.ok());
      return *rel;
    }
  }
}

AttrSet Catalog::Universe(const std::vector<RelId>& rels) const {
  AttrSet u;
  for (RelId r : rels) u = u.Union(RelationScheme(r));
  return u;
}

const DbSchema::Rep DbSchema::kEmpty{};

DbSchema::DbSchema(const Catalog& catalog, std::vector<RelId> rels)
    : DbSchema(DbSchema().Extended(catalog, std::move(rels))) {}

DbSchema DbSchema::Extended(const Catalog& catalog,
                            std::vector<RelId> rels) const {
  std::sort(rels.begin(), rels.end());
  rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
  std::erase_if(rels, [this](RelId rel) { return Contains(rel); });
  if (rels.empty()) return *this;
  auto rep = std::make_shared<Rep>();
  rep->universe = universe().Union(catalog.Universe(rels));
  rep->rels.reserve(size() + rels.size());
  std::merge(relations().begin(), relations().end(), rels.begin(),
             rels.end(), std::back_inserter(rep->rels));
  DbSchema extended;
  extended.rep_ = std::move(rep);
  return extended;
}

bool DbSchema::Contains(RelId rel) const {
  return std::binary_search(relations().begin(), relations().end(), rel);
}

}  // namespace viewcap
