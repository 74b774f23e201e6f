// Wrapper for key-value stores: the EQPREDICATE grammar in action.
//
//   a :- b
//   a :- c
//   b :- get OPEN SOURCE CLOSE
//   c :- select OPEN EQPREDICATE COMMA SOURCE CLOSE
//
// Equality predicates on the store's key attribute become O(1) lookups;
// equality on other attributes is honoured by scan+filter inside the
// wrapper (the API allows it, it is just not indexed); anything with an
// ordering comparison is outside the grammar and stays at the mediator.
#pragma once

#include <unordered_map>

#include "sources/kvstore/kv_store.hpp"
#include "wrapper/wrapper.hpp"

namespace disco::wrapper {

class KvWrapper : public Wrapper {
 public:
  KvWrapper();

  void attach_store(const std::string& repository_name,
                    kvstore::KvStore* store);

  grammar::Grammar capabilities() const override;
  SubmitResult submit(const catalog::Repository& repository,
                      const algebra::LogicalPtr& expr,
                      const BindingMap& bindings) override;
  std::string kind() const override { return "kvstore"; }
  bool replies_in_columns(const algebra::LogicalPtr&) const override {
    return true;
  }

 private:
  grammar::Grammar grammar_;
  std::unordered_map<std::string, kvstore::KvStore*> stores_;
};

}  // namespace disco::wrapper
