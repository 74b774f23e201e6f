#include "wrapper/rows.hpp"

#include "common/error.hpp"

namespace disco::wrapper {

const ExtentBinding& binding_of(const BindingMap& bindings,
                                const std::string& extent) {
  auto it = bindings.find(extent);
  internal_check(it != bindings.end(),
                 "runtime did not provide a binding for extent '" + extent +
                     "'");
  return it->second;
}

// ------------------------------------------------------------ RowBuilder ---

RowBuilder RowBuilder::env() { return RowBuilder(Kind::Env); }

RowBuilder RowBuilder::scalar() { return RowBuilder(Kind::Scalar); }

RowBuilder RowBuilder::strct(std::vector<std::string> fields) {
  RowBuilder out(Kind::Struct);
  out.fields_ = std::move(fields);
  return out;
}

RowBuilder& RowBuilder::add_columns(
    const std::string& var, const catalog::TypeMap& map,
    const std::vector<std::pair<size_t, std::string>>& columns) {
  internal_check(kind_ == Kind::Env, "variables belong to env rows");
  Var v;
  v.name = var;
  v.map = &map;
  v.columns.reserve(columns.size());
  for (const auto& [position, source] : columns) {
    v.columns.emplace_back(position, map.to_mediator_attribute(source));
  }
  vars_.push_back(std::move(v));
  return *this;
}

RowBuilder& RowBuilder::add_columns(
    const std::string& var, const catalog::TypeMap& map,
    const std::vector<std::string>& source_columns) {
  std::vector<std::pair<size_t, std::string>> columns;
  columns.reserve(source_columns.size());
  for (size_t i = 0; i < source_columns.size(); ++i) {
    columns.emplace_back(i, source_columns[i]);
  }
  return add_columns(var, map, columns);
}

RowBuilder& RowBuilder::add_struct(const std::string& var,
                                   const catalog::TypeMap& map) {
  internal_check(kind_ == Kind::Env, "variables belong to env rows");
  Var v;
  v.name = var;
  v.map = &map;
  v.is_struct = true;
  vars_.push_back(std::move(v));
  return *this;
}

Value RowBuilder::from_values(const std::vector<Value>& values) const {
  switch (kind_) {
    case Kind::Scalar:
      return values[0];
    case Kind::Struct: {
      std::vector<std::pair<std::string, Value>> fields;
      fields.reserve(fields_.size());
      for (size_t i = 0; i < fields_.size(); ++i) {
        fields.emplace_back(fields_[i], values[i]);
      }
      return Value::strct(std::move(fields));
    }
    case Kind::Env:
      break;
  }
  std::vector<std::pair<std::string, Value>> env;
  env.reserve(vars_.size());
  for (const Var& var : vars_) {
    internal_check(!var.is_struct, "struct variable fed positional values");
    std::vector<std::pair<std::string, Value>> fields;
    fields.reserve(var.columns.size());
    for (const auto& [position, mediator] : var.columns) {
      fields.emplace_back(mediator, values[position]);
    }
    env.emplace_back(var.name, Value::strct(std::move(fields)));
  }
  return Value::strct(std::move(env));
}

Value RowBuilder::from_struct(const Value& source_row) {
  internal_check(kind_ == Kind::Env && vars_.size() == 1 &&
                     vars_.front().is_struct,
                 "from_struct needs one struct variable");
  Var& var = vars_.front();
  std::vector<std::pair<std::string, Value>> env;
  env.reserve(1);
  env.emplace_back(var.name, var.rename(source_row));
  return Value::strct(std::move(env));
}

Value RowBuilder::from_env(const Value& source_env) {
  internal_check(kind_ == Kind::Env, "from_env builds env rows");
  std::vector<std::pair<std::string, Value>> env;
  env.reserve(vars_.size());
  for (Var& var : vars_) {
    internal_check(var.is_struct, "from_env needs struct variables");
    const Value* row = source_env.find_field(var.name);
    internal_check(row != nullptr,
                   "variable '" + var.name + "' missing from source row");
    env.emplace_back(var.name, var.rename(*row));
  }
  return Value::strct(std::move(env));
}

bool RowBuilder::Var::resolve(
    const std::vector<std::pair<std::string, Value>>& fields) {
  bool same_layout = fields.size() == layout_source.size();
  for (size_t i = 0; same_layout && i < fields.size(); ++i) {
    same_layout = fields[i].first == layout_source[i];
  }
  if (same_layout) return false;
  layout_source.clear();
  layout_mediator.clear();
  layout_renames = false;
  for (const auto& [source, value] : fields) {
    layout_source.push_back(source);
    layout_mediator.push_back(map->to_mediator_attribute(source));
    layout_renames = layout_renames || layout_mediator.back() != source;
  }
  return true;
}

Value RowBuilder::Var::rename(const Value& source_row) {
  if (map->fields().empty()) return source_row;
  const auto& fields = source_row.fields();
  resolve(fields);
  if (!layout_renames) return source_row;
  std::vector<std::pair<std::string, Value>> renamed;
  renamed.reserve(fields.size());
  for (size_t i = 0; i < fields.size(); ++i) {
    renamed.emplace_back(layout_mediator[i], fields[i].second);
  }
  return Value::strct(std::move(renamed));
}

// ------------------------------------------------------- columnar reply ---

bool RowBuilder::start(const Value& first) {
  std::optional<vec::Schema> schema = vec::TableBuilder::schema_of(first);
  const vec::RowShape shape = kind_ == Kind::Scalar   ? vec::RowShape::Scalar
                              : kind_ == Kind::Struct ? vec::RowShape::Flat
                                                      : vec::RowShape::Env;
  // A struct projection whose first field is a struct reads as env rows
  // to the rules; the cell-wise writers below only know their own shape.
  if (!schema.has_value() || schema->shape != shape) return false;
  size_t col = 0;
  for (size_t i = 0; i < vars_.size(); ++i) {
    Var& var = vars_[i];
    var.first_col = col;
    var.width = var.is_struct ? first.fields()[i].second.size()
                              : var.columns.size();
    col += var.width;
  }
  table_.emplace(*std::move(schema), vec::VecOptions{}.batch_rows);
  internal_check(table_->append_row(first),
                 "a row declined the layout it defined");
  return true;
}

bool RowBuilder::append_struct_cells(Var& var, const Value& source_row) {
  if (source_row.kind() != ValueKind::Struct) return false;
  const auto& fields = source_row.fields();
  if (fields.size() != var.width) return false;
  if (var.resolve(fields)) {
    // A new source layout: its mediator names must still be the
    // schema's, in order.
    const std::vector<vec::Schema::Col>& columns = table_->schema().columns;
    for (size_t i = 0; i < fields.size(); ++i) {
      if (columns[var.first_col + i].name != var.layout_mediator[i]) {
        return false;
      }
    }
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    if (!table_->append(var.first_col + i, fields[i].second)) return false;
  }
  return true;
}

template <typename Cells, typename Row>
void RowBuilder::add(Cells cells, Row row) {
  if (table_.has_value()) {
    if (cells()) {
      table_->end_row();
      return;
    }
    // Declined: the rows so far leave the table, and this row and every
    // later one are built as Values.
    rows_ = table_->rows();
    table_.reset();
    declined_ = true;
  } else if (!declined_) {
    Value first = row();
    if (start(first)) return;
    declined_ = true;
    rows_.push_back(std::move(first));
    return;
  }
  rows_.push_back(row());
}

void RowBuilder::append(const std::vector<Value>& values) {
  add(
      [&] {
        switch (kind_) {
          case Kind::Scalar:
            return table_->append(0, values[0]);
          case Kind::Struct:
            for (size_t i = 0; i < fields_.size(); ++i) {
              if (!table_->append(i, values[i])) return false;
            }
            return true;
          case Kind::Env:
            break;
        }
        size_t col = 0;
        for (const Var& var : vars_) {
          for (const auto& [position, mediator] : var.columns) {
            if (!table_->append(col++, values[position])) return false;
          }
        }
        return true;
      },
      [&] { return from_values(values); });
}

void RowBuilder::append_struct(const Value& source_row) {
  internal_check(kind_ == Kind::Env && vars_.size() == 1 &&
                     vars_.front().is_struct,
                 "append_struct needs one struct variable");
  add([&] { return append_struct_cells(vars_.front(), source_row); },
      [&] { return from_struct(source_row); });
}

void RowBuilder::append_env(const Value& source_env) {
  add(
      [&] {
        for (Var& var : vars_) {
          const Value* row = source_env.find_field(var.name);
          if (row == nullptr || !append_struct_cells(var, *row)) return false;
        }
        return true;
      },
      [&] { return from_env(source_env); });
}

SubmitResult RowBuilder::finish() {
  if (declined_) {
    SubmitResult out = SubmitResult::ok(Value::bag(std::move(rows_)));
    out.columns_declined = true;
    return out;
  }
  if (!table_.has_value()) return SubmitResult::ok(vec::Table{});
  vec::Table table = std::move(*table_).finish();
  table_.reset();
  return SubmitResult::ok(std::move(table));
}

// ------------------------------------------------------ path equalities ---

std::optional<std::vector<std::string>> var_chain(const oql::ExprPtr& expr,
                                                  const std::string& var) {
  std::vector<std::string> names;
  const oql::Expr* node = expr.get();
  while (node->kind == oql::ExprKind::Path) {
    names.push_back(node->name);
    node = node->child.get();
  }
  if (node->kind != oql::ExprKind::Ident || node->name != var ||
      names.empty()) {
    return std::nullopt;
  }
  return std::vector<std::string>(names.rbegin(), names.rend());
}

bool collect_path_equalities(const oql::ExprPtr& predicate,
                             const std::string& var,
                             std::vector<PathEquality>& out) {
  using oql::BinaryOp;
  using oql::ExprKind;
  if (predicate->kind != ExprKind::Binary) return false;
  if (predicate->binary_op == BinaryOp::And) {
    return collect_path_equalities(predicate->left, var, out) &&
           collect_path_equalities(predicate->right, var, out);
  }
  if (predicate->binary_op != BinaryOp::Eq) return false;
  const oql::ExprPtr* path = &predicate->left;
  const oql::ExprPtr* literal = &predicate->right;
  if ((*path)->kind == ExprKind::Literal) std::swap(path, literal);
  if ((*literal)->kind != ExprKind::Literal) return false;
  std::optional<std::vector<std::string>> chain = var_chain(*path, var);
  if (!chain.has_value()) return false;
  out.push_back(PathEquality{*std::move(chain), (*literal)->literal});
  return true;
}

// ---------------------------------------------------------- ComputeCost ---

double ComputeCost::seconds(size_t rows_scanned, size_t index_probes) const {
  if (!enabled) return 0;
  return base_s + per_row_scanned_s * double(rows_scanned) +
         per_index_probe_s * double(index_probes);
}

}  // namespace disco::wrapper
