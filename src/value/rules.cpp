#include "value/rules.hpp"

#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace disco {

void raise_unorderable(ValueKind a, ValueKind b) {
  throw ExecutionError(std::string("cannot order ") + to_string(a) +
                       " against " + to_string(b));
}

std::optional<Aggregate> aggregate_named(std::string_view name) {
  if (name == "count") return Aggregate::Count;
  if (name == "sum") return Aggregate::Sum;
  if (name == "avg") return Aggregate::Avg;
  if (name == "min") return Aggregate::Min;
  if (name == "max") return Aggregate::Max;
  return std::nullopt;
}

Value empty_aggregate(Aggregate fn) {
  switch (fn) {
    case Aggregate::Count:
    case Aggregate::Sum:
      return Value::integer(0);
    case Aggregate::Avg:
      return Value::real(0.0);
    case Aggregate::Min:
      throw ExecutionError("min of an empty collection");
    case Aggregate::Max:
      throw ExecutionError("max of an empty collection");
  }
  throw InternalError("corrupt aggregate");
}

void NumericSum::add(double v) {
  ++count_;
  if (!std::isfinite(v)) {
    saw_non_finite_ = true;
    non_finite_ += v;
    return;
  }
  // Two-sum v into each partial; keep the nonzero round-off terms.
  size_t kept = 0;
  for (double partial : partials_) {
    double big = v;
    double small = partial;
    if (std::fabs(big) < std::fabs(small)) std::swap(big, small);
    const double hi = big + small;
    const double lo = small - (hi - big);
    if (lo != 0) partials_[kept++] = lo;
    v = hi;
  }
  partials_.resize(kept);
  if (!std::isfinite(v)) {
    // Finite items overflowed: the exact total is beyond the doubles.
    saw_non_finite_ = true;
    non_finite_ += v;
  } else if (v != 0) {
    partials_.push_back(v);
  }
}

double NumericSum::total() const {
  if (saw_non_finite_) return non_finite_;
  if (partials_.empty()) return 0;
  // Add from the largest partial down until the round-off is nonzero,
  // then round half-even against the sign of what remains below it.
  size_t n = partials_.size() - 1;
  double hi = partials_[n];
  double lo = 0;
  while (n > 0) {
    const double x = hi;
    const double y = partials_[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0) break;
  }
  if (n > 0 && ((lo < 0 && partials_[n - 1] < 0) ||
                (lo > 0 && partials_[n - 1] > 0))) {
    const double y = lo * 2;
    const double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi;
}

Value aggregate(Aggregate fn, const std::vector<Value>& items) {
  if (items.empty()) return empty_aggregate(fn);
  switch (fn) {
    case Aggregate::Count:
      return Value::integer(static_cast<int64_t>(items.size()));
    case Aggregate::Min:
    case Aggregate::Max: {
      const Value* best = &items.front();
      for (const Value& item : items) {
        if (replaces(fn, Value::compare(item, *best))) best = &item;
      }
      return *best;
    }
    case Aggregate::Sum:
    case Aggregate::Avg: {
      NumericSum acc;
      for (const Value& item : items) {
        // as_double raises for a non-numeric item.
        if (item.kind() == ValueKind::Int) {
          acc.add_int(item.as_int());
        } else {
          acc.add_double(item.as_double());
        }
      }
      return acc.result(fn);
    }
  }
  throw InternalError("corrupt aggregate");
}

void raise_non_struct_step(const Value& base, std::string_view name) {
  throw ExecutionError("path '." + std::string(name) +
                       "' applied to non-struct value " + base.to_oql());
}

}  // namespace disco
