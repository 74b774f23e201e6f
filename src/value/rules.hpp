// The mediator's value rules, implemented once (src/value/).
//
// Every engine that evaluates a predicate, an aggregate or a path over
// DISCO values — the row evaluator (oql/eval), the columnar kernels
// (vec/), the MiniSQL engine behind the memdb wrapper and the document
// store's DocPath — calls this module instead of keeping its own copy.
// That is what makes pushing an operation into a source sound (§3.2):
// the source gives it the mediator's meaning, and a §4 residual
// evaluated mediator-side produces the answer a source would have.
//
// Four rules live here:
//   * scalar order and its equality-consistent hash: kind rank, numeric
//     compare with the NaN rule, canonical number bits, string hash;
//   * the comparison-operator rule: = and != are total, the ordering
//     operators apply only to mutually orderable scalars, anything else
//     raises one ExecutionError text;
//   * the aggregate rule: count, sum, avg, min, max edge cases;
//   * the nil-propagating field step of a path.
//
// The primitives that sit in per-row loops are inline.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "value/value.hpp"

namespace disco {

// -- scalar order and hash ---------------------------------------------------

/// Rank of the kind-major total order (Value::compare): the ValueKind
/// order, with Int and Double sharing a rank so numeric comparison is
/// value-based, matching ==.
constexpr int kind_rank(ValueKind kind) {
  const int k = static_cast<int>(kind);
  return k <= static_cast<int>(ValueKind::Int) ? k : k - 1;
}

/// Numeric three-way compare with the NaN rule. IEEE NaN is unordered
/// against everything, which would corrupt every structure built on the
/// total order (indexes, std::map keyed on Value, set dedup, sorting).
/// NaN gets a stable position instead: NaN == NaN, and NaN sorts after
/// every other number, +inf included.
inline int compare_numbers(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan && b_nan) return 0;
  return a_nan ? 1 : -1;
}

/// The bits a number hashes by: -0.0 folds into 0.0 and every NaN bit
/// pattern into one quiet NaN, so numbers equal under compare_numbers
/// hash alike (Int 1 and Double 1.0 included, via the double image).
inline uint64_t number_bits(double d) {
  if (d == 0.0) d = 0.0;
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// String hash consistent with string equality (64-bit FNV-1a).
inline uint64_t string_hash(std::string_view s) {
  return fnv1a(s.data(), s.size());
}

// -- the comparison-operator rule --------------------------------------------

enum class CmpOp { Eq, Ne, Lt, Le, Gt, Ge };

inline bool is_ordering(CmpOp op) {
  return op != CmpOp::Eq && op != CmpOp::Ne;
}

/// The operator with its operands swapped: (a op b) == (b mirrored(op) a).
inline CmpOp mirrored(CmpOp op) {
  switch (op) {
    case CmpOp::Lt:
      return CmpOp::Gt;
    case CmpOp::Le:
      return CmpOp::Ge;
    case CmpOp::Gt:
      return CmpOp::Lt;
    case CmpOp::Ge:
      return CmpOp::Le;
    default:
      return op;
  }
}

/// Kinds the ordering operators accept together: both numeric, both
/// strings or both booleans. Nil is orderable against nothing.
inline bool orderable(ValueKind a, ValueKind b) {
  const bool a_num = a == ValueKind::Int || a == ValueKind::Double;
  const bool b_num = b == ValueKind::Int || b == ValueKind::Double;
  if (a_num || b_num) return a_num && b_num;
  return a == b && (a == ValueKind::String || a == ValueKind::Bool);
}

/// Raises the rule's one error text, naming both kinds.
[[noreturn]] void raise_unorderable(ValueKind a, ValueKind b);

/// Raises unless `op` applies to operands of kinds `a` and `b`.
inline void check_comparable(CmpOp op, ValueKind a, ValueKind b) {
  if (is_ordering(op) && !orderable(a, b)) raise_unorderable(a, b);
}

/// Whether `op` holds for a three-way compare result `c`.
inline bool holds(CmpOp op, int c) {
  switch (op) {
    case CmpOp::Eq:
      return c == 0;
    case CmpOp::Ne:
      return c != 0;
    case CmpOp::Lt:
      return c < 0;
    case CmpOp::Le:
      return c <= 0;
    case CmpOp::Gt:
      return c > 0;
    case CmpOp::Ge:
      return c >= 0;
  }
  return false;
}

/// The whole rule on two values: a op b, or ExecutionError.
inline bool comparison_holds(CmpOp op, const Value& a, const Value& b) {
  check_comparable(op, a.kind(), b.kind());
  return holds(op, Value::compare(a, b));
}

// -- the aggregate rule ------------------------------------------------------

enum class Aggregate { Count, Sum, Avg, Min, Max };

/// The aggregate an OQL function name denotes, if any.
std::optional<Aggregate> aggregate_named(std::string_view name);

/// Result over zero items: count, sum are Int 0, avg is real 0; an empty
/// min or max raises.
Value empty_aggregate(Aggregate fn);

/// min/max scan: a candidate replaces the best so far only when it is
/// strictly better (`c` = compare(candidate, best)), so ties keep the
/// first item.
inline bool replaces(Aggregate fn, int c) {
  return fn == Aggregate::Min ? c < 0 : c > 0;
}

/// sum/avg accumulation. The real total is exact until the one final
/// rounding (non-overlapping partial sums, Shewchuk's algorithm), so it
/// depends only on the multiset of items, never on their order: a bag's
/// sum is the same whichever engine, source or branch order delivered
/// it. The int total is kept while every item is an Int. The sum is Int
/// only when every item was Int; the average is always real.
class NumericSum {
 public:
  void add_int(int64_t v) {
    add(static_cast<double>(v));
    int_total_ += v;
  }
  void add_double(double v) {
    all_int_ = false;
    add(v);
  }
  /// Sum or Avg of what was added.
  Value result(Aggregate fn) const {
    if (fn == Aggregate::Avg) {
      return Value::real(count_ == 0 ? 0.0
                                     : total() / static_cast<double>(count_));
    }
    return all_int_ ? Value::integer(int_total_) : Value::real(total());
  }

 private:
  void add(double v);
  /// The correctly rounded sum of every item added (an inf or nan item
  /// makes it the IEEE sum of those items alone).
  double total() const;

  bool all_int_ = true;
  /// Nonzero, non-overlapping, increasing in magnitude; their exact sum
  /// is the exact sum of the finite items.
  std::vector<double> partials_;
  double non_finite_ = 0;
  bool saw_non_finite_ = false;
  int64_t int_total_ = 0;
  size_t count_ = 0;
};

/// The rule over materialized items.
Value aggregate(Aggregate fn, const std::vector<Value>& items);

// -- the path step -----------------------------------------------------------

[[noreturn]] void raise_non_struct_step(const Value& base,
                                       std::string_view name);

/// One `.name` step, nil-propagating: nil yields nil, a struct yields the
/// field or nil when it is missing (semi-structured rows legitimately
/// lack fields), anything else raises ExecutionError.
inline Value field_step(const Value& base, std::string_view name) {
  if (base.kind() == ValueKind::Struct) {
    const Value* found = base.find_field(name);
    return found != nullptr ? *found : Value::null();
  }
  if (base.kind() != ValueKind::Null) raise_non_struct_step(base, name);
  return Value::null();
}

/// field_step where a non-struct non-nil base is no match (nullopt)
/// rather than an error — a path below a wildcard.
inline std::optional<Value> try_field_step(const Value& base,
                                           std::string_view name) {
  if (base.kind() != ValueKind::Struct && base.kind() != ValueKind::Null) {
    return std::nullopt;
  }
  return field_step(base, name);
}

}  // namespace disco
