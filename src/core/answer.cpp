#include "core/answer.hpp"

#include "common/error.hpp"
#include "oql/printer.hpp"

namespace disco {

Answer Answer::complete_answer(Value data, QueryStats stats) {
  return Answer(std::move(data), {}, std::move(stats), false);
}

Answer Answer::partial_answer(Value data,
                              std::vector<oql::ExprPtr> residuals,
                              QueryStats stats, bool distinct) {
  internal_check(!residuals.empty(),
                 "a partial answer needs at least one residual");
  return Answer(std::move(data), std::move(residuals), std::move(stats),
                distinct);
}

std::vector<std::string> Answer::residual_queries() const {
  std::vector<std::string> out;
  out.reserve(residuals_.size());
  for (const oql::ExprPtr& residual : residuals_) {
    out.push_back(oql::to_oql(residual));
  }
  return out;
}

oql::ExprPtr Answer::as_expr() const {
  if (complete()) {
    return oql::literal(data_);
  }
  std::vector<oql::ExprPtr> parts = residuals_;
  // §4: "The first part contains a query on the unavailable data sources
  // and the second part contains data." Drop an empty data part so the
  // single-residual case prints as a plain query.
  bool has_data = data_.is_collection() ? !data_.items().empty()
                                        : !data_.is_null();
  if (has_data) {
    parts.push_back(oql::literal(data_));
  }
  oql::ExprPtr all = parts.size() == 1
                         ? parts.front()
                         : oql::call("union", std::move(parts));
  // A distinct answer collapses as a whole: its parts may share items,
  // and a residual need not be distinct on its own (the residual of
  // distinct(<collection>) is the bare collection).
  return distinct_ ? oql::call("distinct", {std::move(all)}) : all;
}

std::string Answer::to_oql() const { return oql::to_oql(as_expr()); }

}  // namespace disco
