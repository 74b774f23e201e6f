// Wrapper for CSV file sources — the weakest server in the spectrum:
// its capability grammar is {get} only, so the mediator can never push
// project/select/join here and must do all of that work itself. This is
// the "mismatch in querying power of each server" (§1.1) made concrete.
#pragma once

#include <unordered_map>

#include "sources/csv/csv_source.hpp"
#include "wrapper/wrapper.hpp"

namespace disco::wrapper {

class CsvWrapper : public Wrapper {
 public:
  CsvWrapper();

  /// Binds a parsed CSV table to `repository_name`. A repository can hold
  /// several tables (data sources), keyed by relation name.
  void attach_table(const std::string& repository_name, csv::CsvTable table);

  grammar::Grammar capabilities() const override;
  SubmitResult submit(const catalog::Repository& repository,
                      const algebra::LogicalPtr& expr,
                      const BindingMap& bindings) override;
  std::string kind() const override { return "csv"; }
  bool replies_in_columns(const algebra::LogicalPtr&) const override {
    return true;
  }

 private:
  grammar::Grammar grammar_;
  // repository -> relation -> table
  std::unordered_map<std::string,
                     std::unordered_map<std::string, csv::CsvTable>>
      tables_;
};

}  // namespace disco::wrapper
