// Mediator-boundary translation for MediatorSource (fedcat/
// mediator_source.hpp), the wrapper whose source is another mediator.
//
// A pushed logical expression names *this* mediator's extents and
// attributes; the remote mediator knows them by its own names. The
// TypeMaps in the BindingMap carry the translation both ways: this file
// renames the expression on the way out and sets up the RowBuilder
// (wrapper/rows.hpp) that renames env-shaped rows on the way back.
#pragma once

#include "algebra/logical.hpp"
#include "wrapper/rows.hpp"
#include "wrapper/wrapper.hpp"

namespace disco::fedcat {

/// A logical expression rewritten into the remote name space, plus the
/// builder that renames its env-shaped answer rows back.
struct RenamedQuery {
  algebra::LogicalPtr expr;
  wrapper::RowBuilder rows = wrapper::RowBuilder::env();
};

/// Rewrites extent and attribute names through the bindings. Throws
/// ExecutionError when `expr` contains an operator or expression form
/// that cannot cross the mediator boundary (union, const, aggregates).
RenamedQuery rename_for_remote(const algebra::LogicalPtr& expr,
                               const wrapper::BindingMap& bindings);

}  // namespace disco::fedcat
