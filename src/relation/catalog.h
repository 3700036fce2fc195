// Catalog: interning of attribute and relation names with their types.
#ifndef VIEWCAP_RELATION_CATALOG_H_
#define VIEWCAP_RELATION_CATALOG_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "relation/attr_set.h"
#include "relation/ids.h"

namespace viewcap {

/// The naming environment: attributes (with implicitly infinite domains)
/// and relation names with their types R(eta) (Section 1.1). The paper's
/// assumption of infinitely many relation names per type is realized by
/// AddRelation being callable at any time; views mint their schema names
/// here too.
class Catalog {
 public:
  Catalog() = default;

  /// Interns attribute `name`; returns the existing id when already known.
  AttrId AddAttribute(std::string_view name);

  /// Interns relation `name` of type `scheme`. Fails with IllFormed when the
  /// name exists with a different type or the scheme is empty.
  Result<RelId> AddRelation(std::string_view name, AttrSet scheme);

  /// Lookup; NotFound when absent.
  Result<AttrId> FindAttribute(std::string_view name) const;
  Result<RelId> FindRelation(std::string_view name) const;

  /// True when `rel` has been interned.
  bool HasRelation(RelId rel) const { return rel < relation_names_.size(); }
  bool HasAttribute(AttrId attr) const { return attr < attr_names_.size(); }

  /// Name/type accessors. Ids must be valid.
  const std::string& AttributeName(AttrId attr) const;
  const std::string& RelationName(RelId rel) const;
  const AttrSet& RelationScheme(RelId rel) const;

  std::size_t num_attributes() const { return attr_names_.size(); }
  std::size_t num_relations() const { return relation_names_.size(); }

  /// Builds an AttrSet from attribute names, interning new ones.
  AttrSet MakeScheme(std::initializer_list<std::string_view> names);

  /// Interns a relation under a fresh name "<prefix><n>" (the paper's
  /// assumption of infinitely many relation names of every type). Used by
  /// the closure machinery to mint handles for query-set members and by
  /// Simplify for the relations of the normal form.
  RelId MintRelation(std::string_view prefix, const AttrSet& scheme);

  /// The union of the types of `rels` (the universe U of a database schema
  /// over U, Section 1.1).
  AttrSet Universe(const std::vector<RelId>& rels) const;

 private:
  std::vector<std::string> attr_names_;
  std::unordered_map<std::string, AttrId> attr_index_;
  std::vector<std::string> relation_names_;
  std::vector<AttrSet> relation_schemes_;
  std::unordered_map<std::string, RelId> relation_index_;
};

/// A database schema: a finite nonempty set of relation names (Section
/// 1.1). A value type over the catalog whose relations and universe sit
/// in one immutable array that copies share: copying a schema (or a view
/// holding one) copies a pointer, and the empty schema allocates nothing.
class DbSchema {
 public:
  DbSchema() = default;
  DbSchema(const Catalog& catalog, std::vector<RelId> rels);

  /// This schema plus `rels` (duplicates and present ids allowed): equal
  /// to DbSchema(catalog, relations() + rels), but the universe is this
  /// one's joined with the added schemes only. Returns a copy sharing
  /// this schema's array when `rels` adds nothing.
  DbSchema Extended(const Catalog& catalog, std::vector<RelId> rels) const;

  const std::vector<RelId>& relations() const { return rep().rels; }
  const AttrSet& universe() const { return rep().universe; }
  bool Contains(RelId rel) const;
  std::size_t size() const { return rep().rels.size(); }

 private:
  struct Rep {
    std::vector<RelId> rels;  // Sorted, distinct.
    AttrSet universe;
  };
  static const Rep kEmpty;

  const Rep& rep() const { return rep_ != nullptr ? *rep_ : kEmpty; }

  std::shared_ptr<const Rep> rep_;  // Null when empty.
};

}  // namespace viewcap

#endif  // VIEWCAP_RELATION_CATALOG_H_
