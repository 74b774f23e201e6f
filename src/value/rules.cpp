#include "value/rules.hpp"

#include <string>

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
