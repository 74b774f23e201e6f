// Query answers with partial-evaluation semantics (§4 of the paper).
//
// "DISCO uses partial evaluation semantics to return partial answers to
//  queries ... Thus, the answer to a query may be another query."
//
// An Answer carries a data part and zero or more residual queries. Its
// to_oql() text is the paper's two-part form
//
//     union(select x.name from x in person0, bag("Sam"))
//
// which is *itself a legal query*: feeding it back to Mediator::query()
// when the missing sources are up produces the complete answer.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "oql/ast.hpp"
#include "optimizer/cost.hpp"
#include "physical/runtime.hpp"
#include "value/value.hpp"

namespace disco {

struct QueryStats {
  physical::RunStats run;
  size_t plans_considered = 0;
  optimizer::Cost estimated;
  bool local_mode = false;
  /// Per-query trace (src/obs/); null unless Mediator::Options::obs is
  /// enabled. Shared with the mediator's trace ring buffer.
  std::shared_ptr<const obs::Trace> trace;
};

class Answer {
 public:
  /// Complete answer.
  static Answer complete_answer(Value data, QueryStats stats);
  /// Partial answer: available data + residual queries. `distinct`: the
  /// query's answer is a set (a select distinct over several extents,
  /// or distinct(...)), so the answer form collapses the data and the
  /// residuals' answers, which may repeat items.
  static Answer partial_answer(Value data,
                               std::vector<oql::ExprPtr> residuals,
                               QueryStats stats, bool distinct = false);

  /// True when every data source answered: the data IS the result.
  bool complete() const { return residuals_.empty(); }

  /// The data part (for complete answers, the full result).
  const Value& data() const { return data_; }

  /// The residual queries over unavailable sources, as OQL text.
  std::vector<std::string> residual_queries() const;

  /// The residual queries as expressions — what the session layer
  /// re-executes on resubmission (src/session/).
  const std::vector<oql::ExprPtr>& residuals() const { return residuals_; }

  /// A partial answer that collapses to a set (see partial_answer).
  bool distinct() const { return distinct_; }

  /// The whole answer as one OQL expression (§4's union(query, data)),
  /// inside distinct(...) when the answer is distinct. For complete
  /// answers this is the data literal.
  oql::ExprPtr as_expr() const;
  std::string to_oql() const;

  const QueryStats& stats() const { return stats_; }

 private:
  Answer(Value data, std::vector<oql::ExprPtr> residuals, QueryStats stats,
         bool distinct)
      : data_(std::move(data)),
        residuals_(std::move(residuals)),
        stats_(std::move(stats)),
        distinct_(distinct) {}

  Value data_;
  std::vector<oql::ExprPtr> residuals_;
  QueryStats stats_;
  bool distinct_ = false;
};

}  // namespace disco
