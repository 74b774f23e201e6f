#include "catalog/type_map.hpp"

#include <algorithm>
#include <cctype>

#include "common/error.hpp"

namespace disco::catalog {

TypeMap::TypeMap(std::string source_relation,
                 std::vector<std::pair<std::string, std::string>> fields)
    : source_relation_(std::move(source_relation)),
      fields_(std::move(fields)) {
  for (size_t i = 0; i < fields_.size(); ++i) {
    for (size_t j = i + 1; j < fields_.size(); ++j) {
      if (fields_[i].first == fields_[j].first ||
          fields_[i].second == fields_[j].second) {
        throw CatalogError("type map has duplicate field mapping for '" +
                           fields_[i].first + "'/'" + fields_[i].second +
                           "'");
      }
    }
  }
}

std::string TypeMap::source_relation(const std::string& extent_name) const {
  return source_relation_.empty() ? extent_name : source_relation_;
}

std::string TypeMap::to_source_attribute(
    const std::string& mediator_name) const {
  for (const auto& [source, mediator] : fields_) {
    if (mediator == mediator_name) return source;
  }
  return mediator_name;
}

std::string TypeMap::to_mediator_attribute(
    const std::string& source_name) const {
  for (const auto& [source, mediator] : fields_) {
    if (source == source_name) return mediator;
  }
  return source_name;
}

std::string TypeMap::to_odl(const std::string& extent_name) const {
  if (is_identity()) return "";
  std::string out = "((" + source_relation(extent_name) + "=" + extent_name +
                    ")";
  for (const auto& [source, mediator] : fields_) {
    // Source sides that are path expressions with steps the ODL lexer
    // cannot spell bare (array steps like items[*].id) print quoted, the
    // same form map_clause parses back.
    const bool plain =
        !source.empty() &&
        std::all_of(source.begin(), source.end(), [](unsigned char c) {
          return std::isalnum(c) != 0 || c == '_' || c == '.';
        });
    out += ",(" + (plain ? source : "\"" + source + "\"") + "=" + mediator +
           ")";
  }
  out += ")";
  return out;
}

}  // namespace disco::catalog
