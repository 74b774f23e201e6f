// The local transformation map (§2.2.2 of the paper).
//
//   extent personprime0 of PersonPrime wrapper w0 repository r0
//     map ((person0=personprime0),(name=n),(salary=s));
//
// "Each string is either (1) an equivalence between the name of the data
// source (relation) and the name of the extent of the mediator type, or
// (2) an equivalence between the name of a field of the data source
// (relation) and the name of a field of the mediator type."
//
// The mediator applies the map when a query crosses the wrapper boundary
// (mediator names -> source names) and again, in reverse, when data comes
// back (source attribute names -> mediator attribute names). Maps are
// flat, as in the paper ("At present, maps are restricted to a flat
// structure"); nested maps are listed there as future work.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace disco::catalog {

class TypeMap {
 public:
  /// Identity map: source relation and attributes share the mediator
  /// names ("The type of the objects in the data source are assumed to be
  /// the same as the type of the objects in the extent", §2.1).
  TypeMap() = default;

  /// `source_relation` empty means "same as extent name". Field pairs are
  /// (source_field, mediator_field), the paper's (name=n) order.
  TypeMap(std::string source_relation,
          std::vector<std::pair<std::string, std::string>> fields);

  bool is_identity() const {
    return source_relation_.empty() && fields_.empty();
  }

  /// Relation name in the data source for `extent_name` in the mediator.
  std::string source_relation(const std::string& extent_name) const;

  /// Mediator attribute -> source attribute (identity when unmapped).
  std::string to_source_attribute(const std::string& mediator_name) const;
  /// Source attribute -> mediator attribute (identity when unmapped).
  std::string to_mediator_attribute(const std::string& source_name) const;

  const std::vector<std::pair<std::string, std::string>>& fields() const {
    return fields_;
  }

  /// The ODL textual form: ((rel=extent),(srcfield=medfield),...) —
  /// empty string for the identity map.
  std::string to_odl(const std::string& extent_name) const;

 private:
  std::string source_relation_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace disco::catalog
