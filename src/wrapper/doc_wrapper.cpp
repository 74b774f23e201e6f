#include "wrapper/doc_wrapper.hpp"

#include <set>

#include "common/error.hpp"
#include "oql/printer.hpp"

namespace disco::wrapper {

namespace {

using algebra::LOp;
using algebra::LogicalPtr;
using docstore::DocPath;

/// Mediator attribute chain (nearest the variable first) -> source
/// DocPath through the extent's map. Fails (nullopt) when the mapped
/// source path has a wildcard and the chain keeps descending: the
/// mediator would apply the tail to the List the wildcard produced (a
/// type error), while DocPath would skip below the wildcard — refusing
/// keeps pushed and residual evaluation in agreement.
std::optional<DocPath> source_path_for(const std::vector<std::string>& chain,
                                       const ExtentBinding& binding) {
  DocPath mapped =
      DocPath::parse(binding.map->to_source_attribute(chain.front()));
  if (mapped.has_wildcard() && chain.size() > 1) return std::nullopt;
  return mapped.with_fields({chain.begin() + 1, chain.end()});
}

}  // namespace

DocWrapper::DocWrapper()
    // Path projection and path-equality selection, composable: PATH
    // subsumes flat ATTRIBUTE tokens and PATHEQPREDICATE subsumes flat
    // EQPREDICATE tokens, so the same grammar serves mapped (flat) and
    // identity (nested) extents. Range predicates (PATHPREDICATE /
    // PREDICATE tokens) and joins are not advertised: they stay
    // mediator-side.
    : grammar_(grammar::Grammar::parse(
          "a :- b\n"
          "a :- c\n"
          "a :- d\n"
          "b :- get OPEN SOURCE CLOSE\n"
          "c :- select OPEN PATHEQPREDICATE COMMA s CLOSE\n"
          "d :- project OPEN PATH COMMA s CLOSE\n"
          "s :- SOURCE\n"
          "s :- c\n")) {}

void DocWrapper::attach_store(const std::string& repository_name,
                              docstore::DocStore* store) {
  internal_check(store != nullptr, "null doc store");
  stores_[repository_name] = store;
}

void DocWrapper::set_grammar(grammar::Grammar grammar) {
  grammar_ = std::move(grammar);
}

grammar::Grammar DocWrapper::capabilities() const { return grammar_; }

SubmitResult DocWrapper::submit(const catalog::Repository& repository,
                                const algebra::LogicalPtr& expr,
                                const BindingMap& bindings) {
  auto store_it = stores_.find(repository.name);
  if (store_it == stores_.end()) {
    throw CatalogError("doc wrapper has no store for repository '" +
                       repository.name + "'");
  }
  docstore::DocStore& store = *store_it->second;
  // Run-time capability check (§2.1: "At run-time, the wrapper checks").
  if (!grammar_.accepts(expr)) {
    return SubmitResult::refused(
        "expression rejected by the docstore capability grammar: " +
        algebra::to_algebra_string(expr));
  }

  // Destructure project?(select*(get)).
  LogicalPtr body = expr;
  oql::ExprPtr projection;
  if (body->op == LOp::Project) {
    if (body->distinct) {
      return SubmitResult::refused("distinct is evaluated mediator-side");
    }
    projection = body->projection;
    body = body->child;
  }
  std::vector<oql::ExprPtr> predicates;
  while (body->op == LOp::Filter) {
    predicates.push_back(body->predicate);
    body = body->child;
  }
  if (body->op != LOp::Get) {
    return SubmitResult::refused(
        "doc sources accept get / select(get) / project(...) shapes");
  }
  const algebra::Logical& get_node = *body;

  const ExtentBinding& binding = binding_of(bindings, get_node.extent);
  if (!store.has_collection(binding.source_relation)) {
    return SubmitResult::refused("store '" + repository.name +
                                 "' has no collection '" +
                                 binding.source_relation + "'");
  }
  const docstore::DocCollection& collection =
      store.collection(binding.source_relation);

  // Source-side DocPath = literal conditions.
  std::vector<std::pair<DocPath, Value>> equalities;
  for (const oql::ExprPtr& predicate : predicates) {
    std::vector<PathEquality> conjuncts;
    bool pushable =
        collect_path_equalities(predicate, get_node.var, conjuncts);
    for (PathEquality& conjunct : conjuncts) {
      std::optional<DocPath> path = source_path_for(conjunct.chain, binding);
      if (!path.has_value()) {
        pushable = false;
        break;
      }
      equalities.emplace_back(*std::move(path), std::move(conjunct.value));
    }
    if (!pushable) {
      return SubmitResult::refused(
          "doc predicate must be a conjunction of path = literal "
          "comparisons: " +
          oql::to_oql(predicate));
    }
  }

  // Access path: probe the first indexed equality (find_equal falls back
  // to a counted scan when no index or indexes are disabled); a pure get
  // scans. Remaining equalities re-check every candidate — including the
  // probed one, which also revalidates index answers in forced-scan
  // differentials.
  size_t docs_examined = 0;
  size_t index_probes = 0;
  std::vector<const Value*> candidates;
  const std::vector<Value>& docs = collection.docs();
  if (equalities.empty()) {
    for (const Value& doc : collection.scan()) candidates.push_back(&doc);
    docs_examined = docs.size();
  } else {
    size_t probe = 0;
    for (size_t i = 0; i < equalities.size(); ++i) {
      if (collection.has_index(equalities[i].first.to_text())) {
        probe = i;
        break;
      }
    }
    bool used_index = false;
    std::vector<size_t> positions = collection.find_equal(
        equalities[probe].first, equalities[probe].second, &used_index,
        &docs_examined);
    if (used_index) index_probes = 1;
    for (size_t position : positions) candidates.push_back(&docs[position]);
  }
  std::erase_if(candidates, [&](const Value* doc) {
    for (const auto& [path, value] : equalities) {
      if (Value::compare(path.eval(*doc), value) != 0) {
        return true;
      }
    }
    return false;
  });

  // Row flattening through the map: the map's source paths evaluated in
  // map order (so the row's field order is the map order, stable for
  // Value::compare), or the whole document under an identity map.
  RowBuilder env = RowBuilder::env();
  std::vector<DocPath> row_paths;
  if (binding.map->fields().empty()) {
    env.add_struct(get_node.var, *binding.map);
  } else {
    std::vector<std::string> sources;
    for (const auto& [source, mediator] : binding.map->fields()) {
      sources.push_back(source);
      row_paths.push_back(DocPath::parse(source));
    }
    env.add_columns(get_node.var, *binding.map, sources);
  }
  auto source_values = [&](const Value& doc) {
    std::vector<Value> values;
    values.reserve(row_paths.size());
    for (const DocPath& path : row_paths) values.push_back(path.eval(doc));
    return values;
  };
  auto env_row = [&](const Value& doc) {
    return row_paths.empty() ? env.from_struct(doc)
                             : env.from_values(source_values(doc));
  };

  SubmitResult out;
  if (projection == nullptr) {
    for (const Value* doc : candidates) {
      if (row_paths.empty()) {
        env.append_struct(*doc);
      } else {
        env.append(source_values(*doc));
      }
    }
    out = env.finish();
  } else {
    // The projection runs over the env row — plain field descent with
    // the mediator's own lenient rules, so pushed projections agree with
    // mediator-side evaluation by construction. A path chain gives a
    // bare value, struct(f: chain, ...) a struct; the grammar admits
    // nothing else, but re-check for direct submits.
    auto chain_path = [&](const oql::ExprPtr& chain)
        -> std::optional<DocPath> {
      std::optional<std::vector<std::string>> names =
          var_chain(chain, get_node.var);
      if (!names.has_value()) return std::nullopt;
      names->insert(names->begin(), get_node.var);
      return DocPath().with_fields(*names);
    };
    RowBuilder rows = RowBuilder::scalar();
    std::vector<DocPath> outputs;
    if (projection->kind == oql::ExprKind::Path) {
      std::optional<DocPath> path = chain_path(projection);
      if (!path.has_value()) {
        return SubmitResult::refused("doc projection must be a path chain: " +
                                     oql::to_oql(projection));
      }
      outputs.push_back(*std::move(path));
    } else if (projection->kind == oql::ExprKind::StructCtor) {
      std::vector<std::string> names;
      for (const auto& [name, field] : projection->struct_fields) {
        std::optional<DocPath> path = chain_path(field);
        if (!path.has_value()) {
          return SubmitResult::refused("doc projection field '" + name +
                                       "' must be a path chain: " +
                                       oql::to_oql(field));
        }
        outputs.push_back(*std::move(path));
        names.push_back(name);
      }
      rows = RowBuilder::strct(std::move(names));
    } else {
      return SubmitResult::refused("doc projection must be a path chain or "
                                   "struct of path chains: " +
                                   oql::to_oql(projection));
    }
    for (const Value* doc : candidates) {
      const Value row = env_row(*doc);
      std::vector<Value> values;
      values.reserve(outputs.size());
      for (const DocPath& path : outputs) values.push_back(path.eval(row));
      rows.append(values);
    }
    out = rows.finish();
  }
  out.compute_s = cost_model_.seconds(docs_examined, index_probes);
  return out;
}

std::vector<std::pair<std::string, uint64_t>> DocWrapper::stat_gauges()
    const {
  docstore::DocStore::Stats total;
  std::set<const docstore::DocStore*> seen;
  for (const auto& [repository, store] : stores_) {
    if (!seen.insert(store).second) continue;  // one store, many repos
    docstore::DocStore::Stats s = store->stats();
    total.scans += s.scans;
    total.docs_scanned += s.docs_scanned;
    total.index_probes += s.index_probes;
    total.index_hits += s.index_hits;
    total.documents += s.documents;
  }
  return {{"docstore.scans", total.scans},
          {"docstore.docs_scanned", total.docs_scanned},
          {"docstore.index_probes", total.index_probes},
          {"docstore.index_hits", total.index_hits},
          {"docstore.documents", total.documents}};
}

}  // namespace disco::wrapper
