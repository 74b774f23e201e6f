#include "wrapper/kv_wrapper.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "oql/printer.hpp"
#include "wrapper/rows.hpp"

namespace disco::wrapper {

KvWrapper::KvWrapper()
    : grammar_(grammar::Grammar::parse(
          "a :- b\n"
          "a :- c\n"
          "b :- get OPEN SOURCE CLOSE\n"
          "c :- select OPEN EQPREDICATE COMMA SOURCE CLOSE\n")) {}

void KvWrapper::attach_store(const std::string& repository_name,
                             kvstore::KvStore* store) {
  internal_check(store != nullptr, "null kv store");
  stores_[repository_name] = store;
}

grammar::Grammar KvWrapper::capabilities() const { return grammar_; }

SubmitResult KvWrapper::submit(const catalog::Repository& repository,
                               const algebra::LogicalPtr& expr,
                               const BindingMap& bindings) {
  auto store_it = stores_.find(repository.name);
  if (store_it == stores_.end()) {
    throw CatalogError("kv wrapper has no store for repository '" +
                       repository.name + "'");
  }
  kvstore::KvStore& store = *store_it->second;
  if (!grammar_.accepts(expr)) {
    return SubmitResult::refused(
        "expression rejected by the kv capability grammar: " +
        algebra::to_algebra_string(expr));
  }

  const algebra::Logical* get_node = nullptr;
  oql::ExprPtr predicate;
  if (expr->op == algebra::LOp::Get) {
    get_node = expr.get();
  } else if (expr->op == algebra::LOp::Filter &&
             expr->child->op == algebra::LOp::Get) {
    get_node = expr->child.get();
    predicate = expr->predicate;
  } else {
    return SubmitResult::refused("kv sources accept get or select(get)");
  }

  const ExtentBinding& binding = binding_of(bindings, get_node->extent);
  if (!store.has_collection(binding.source_relation)) {
    return SubmitResult::refused("store '" + repository.name +
                                 "' has no collection '" +
                                 binding.source_relation + "'");
  }
  const kvstore::KvCollection& collection =
      store.collection(binding.source_relation);

  std::vector<Value> rows;
  if (predicate == nullptr) {
    ++store.stats().scans;
    rows = collection.scan();
  } else {
    // Every equality is var.attr = literal; the attribute is resolved
    // into its source name once here, not once per row.
    std::vector<PathEquality> equalities;
    const bool flat =
        collect_path_equalities(predicate, get_node->var, equalities) &&
        !equalities.empty() &&
        std::all_of(equalities.begin(), equalities.end(),
                    [](const PathEquality& e) { return e.chain.size() == 1; });
    if (!flat) {
      return SubmitResult::refused("kv predicate must be a conjunction of "
                                   "attribute = literal comparisons: " +
                                   oql::to_oql(predicate));
    }
    std::vector<std::string> source_attributes;
    for (const PathEquality& equality : equalities) {
      source_attributes.push_back(
          binding.map->to_source_attribute(equality.chain.front()));
    }
    // Use a key equality as the index probe when one exists; remaining
    // equalities filter the probe result.
    auto key = std::find(source_attributes.begin(), source_attributes.end(),
                         collection.key_attribute());
    if (key != source_attributes.end()) {
      ++store.stats().lookups;
      rows = collection.lookup(
          equalities[key - source_attributes.begin()].value);
    } else {
      ++store.stats().scans;
      rows = collection.scan();
    }
    std::erase_if(rows, [&](const Value& row) {
      for (size_t i = 0; i < equalities.size(); ++i) {
        const Value* field = row.find_field(source_attributes[i]);
        if (field == nullptr || *field != equalities[i].value) return true;
      }
      return false;
    });
  }

  RowBuilder env = RowBuilder::env();
  env.add_struct(get_node->var, *binding.map);
  for (const Value& row : rows) env.append_struct(row);
  return env.finish();
}

}  // namespace disco::wrapper
