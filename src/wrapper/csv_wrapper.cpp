#include "wrapper/csv_wrapper.hpp"

#include "common/error.hpp"
#include "wrapper/rows.hpp"

namespace disco::wrapper {

CsvWrapper::CsvWrapper()
    : grammar_(grammar::CapabilitySet{.get = true}.to_grammar()) {}

void CsvWrapper::attach_table(const std::string& repository_name,
                              csv::CsvTable table) {
  tables_[repository_name][table.name] = std::move(table);
}

grammar::Grammar CsvWrapper::capabilities() const { return grammar_; }

SubmitResult CsvWrapper::submit(const catalog::Repository& repository,
                                const algebra::LogicalPtr& expr,
                                const BindingMap& bindings) {
  if (!grammar_.accepts(expr)) {
    return SubmitResult::refused(
        "csv sources only support get(SOURCE), got " +
        algebra::to_algebra_string(expr));
  }
  auto repo_it = tables_.find(repository.name);
  if (repo_it == tables_.end()) {
    throw CatalogError("csv wrapper has no tables for repository '" +
                       repository.name + "'");
  }
  const ExtentBinding& binding = binding_of(bindings, expr->extent);
  auto table_it = repo_it->second.find(binding.source_relation);
  if (table_it == repo_it->second.end()) {
    return SubmitResult::refused("repository '" + repository.name +
                                 "' has no relation '" +
                                 binding.source_relation + "'");
  }
  const csv::CsvTable& table = table_it->second;
  RowBuilder rows = RowBuilder::env();
  rows.add_columns(expr->var, *binding.map, table.columns);
  for (const std::vector<Value>& row : table.rows) rows.append(row);
  return rows.finish();
}

}  // namespace disco::wrapper
