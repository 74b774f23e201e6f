// Hierarchical federation (src/fedcat/): a mediator as a data source.
//
// Figure 1's composition arrow ("permits mediators to be combined,
// providing a mechanism to deal with the complexity introduced by a large
// number of data sources"): MediatorSource is a wrapper::Wrapper whose
// "repository" is another *mediator* — either an in-process Mediator
// object or a mediator daemon reached over the wire (src/server/). A
// root mediator registers extents whose wrapper is a MediatorSource;
// pushed logical expressions are renamed through the type maps
// (fedcat/boundary.hpp), shipped as OQL (mediators share the language,
// so the "foreign language" here is OQL itself), and the answer rows are
// renamed back through the shared row builder (wrapper/rows.hpp).
// Federations thus compose into trees: each child mediator aggregates
// its own thousands of sources, and the root's catalog holds one extent
// per child.
//
// The remote mediator must answer *completely*: a remote partial answer
// raises ExecutionError (residuals would mix two mediators' name spaces —
// the same open question the paper leaves for future work in §6.2). Over
// the wire the source subscribes at submit and blocks for the COMPLETE
// push, so the child's own §4 resubmission machinery is free to finish
// partial answers within the deadline.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/answer.hpp"
#include "wrapper/wrapper.hpp"

namespace disco {
class Mediator;
}  // namespace disco

namespace disco::fedcat {

class MediatorSource : public wrapper::Wrapper {
 public:
  /// Wraps an in-process mediator; `remote` must outlive this source.
  static std::shared_ptr<MediatorSource> in_process(Mediator* remote);

  /// Connects to a mediator daemon (blocking; throws ExecutionError on
  /// failure). `deadline_s` bounds every shipped sub-query: submit +
  /// wait for its COMPLETE push. The connection is owned by the source
  /// and serialized internally, so submit() may run concurrently from
  /// executor threads.
  static std::shared_ptr<MediatorSource> connect(const std::string& host,
                                                 uint16_t port,
                                                 double deadline_s = 30.0);

  /// Mediators speak full OQL: every operator, composed.
  grammar::Grammar capabilities() const override;
  wrapper::SubmitResult submit(const catalog::Repository& repository,
                               const algebra::LogicalPtr& expr,
                               const wrapper::BindingMap& bindings) override;
  std::string kind() const override { return "mediator"; }
  /// Env rows are renamed through wrapper/rows.hpp, in columns; a pushed
  /// projection's values pass through as the remote's rows.
  bool replies_in_columns(const algebra::LogicalPtr& expr) const override {
    return expr->op != algebra::LOp::Project;
  }

  /// Last OQL text shipped to the child mediator (for tests). Snapshot:
  /// submit() may run concurrently on executor threads.
  std::string last_oql() const {
    std::lock_guard<std::mutex> lock(last_oql_mutex_);
    return last_oql_;
  }

 private:
  /// Ships one OQL text to the child and returns its answer.
  using QueryFn = std::function<Answer(const std::string& oql)>;
  explicit MediatorSource(QueryFn query);

  QueryFn query_;
  grammar::Grammar grammar_;
  mutable std::mutex last_oql_mutex_;
  std::string last_oql_;
};

}  // namespace disco::fedcat
