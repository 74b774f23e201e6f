// Path expressions over semi-structured documents (src/sources/docstore/).
//
// A DocPath addresses a position inside a JSON-shaped Value:
//
//   meta.site            object field steps
//   samples[0].ph        array index step, then a field
//   samples[*].ph        wildcard step: every element, set-valued result
//
// The doc wrapper (src/wrapper/doc_wrapper.*) flattens mediator
// attributes through these paths: the source side of an ODL type-map
// pair is parsed as a DocPath, so `map ((meta.site=site))` makes the
// mediator attribute `site` read from each document's meta.site. Nested
// objects surface as `struct` values, arrays as `List`, and a wildcard
// path yields the List of all matches.
//
// Field steps are the mediator's own (value/rules.hpp field_step, the
// one oql/eval.cpp uses), so a predicate pushed to the source and the
// same predicate evaluated mediator-side over fetched documents agree:
//   * nil propagates through every step;
//   * a missing object field reads as nil;
//   * a field step over a non-struct non-nil value is a type error;
//   * an out-of-range index reads as nil; an index step over a non-list
//     non-nil value is a type error;
//   * below a wildcard, elements the rest of the path does not apply to
//     are skipped instead of erroring (a wildcard is a set-valued query;
//     absence contributes nothing).
#pragma once

#include <string>
#include <vector>

#include "value/value.hpp"

namespace disco::docstore {

struct PathStep {
  enum class Kind { Field, Index, Wildcard };
  Kind kind = Kind::Field;
  std::string field;  ///< when Kind::Field
  size_t index = 0;   ///< when Kind::Index
};

class DocPath {
 public:
  /// The empty path: the whole document.
  DocPath() = default;

  /// Parses "a.b[0].c" / "items[*].id" / "" (whole document).
  /// Throws ExecutionError on malformed text.
  static DocPath parse(const std::string& text);

  /// Applies the path to `doc`. Non-wildcard paths return the single
  /// addressed value (nil when absent); wildcard paths return the List
  /// of all matches. Throws ExecutionError on the type errors described
  /// in the header comment.
  Value eval(const Value& doc) const;

  /// Extends the path with trailing field steps (the mediator-side tail
  /// of a nested OQL path chain: x.payload.a -> map(payload) + ".a").
  DocPath with_fields(const std::vector<std::string>& names) const;

  bool whole_document() const { return steps_.empty(); }
  bool has_wildcard() const;
  const std::vector<PathStep>& steps() const { return steps_; }

  /// Canonical text form; parse(to_text()) round-trips. Used as the
  /// index key in DocCollection.
  std::string to_text() const;

 private:
  void collect(const Value& value, size_t step, bool below_wildcard,
               std::vector<Value>& out) const;

  std::vector<PathStep> steps_;
};

}  // namespace disco::docstore
