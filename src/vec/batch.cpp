#include "vec/batch.hpp"

#include "common/error.hpp"
#include "value/rules.hpp"

namespace disco::vec {

const char* to_string(ColType type) {
  switch (type) {
    case ColType::Untyped:
      return "untyped";
    case ColType::Bool:
      return "bool";
    case ColType::Int:
      return "int";
    case ColType::Double:
      return "double";
    case ColType::String:
      return "string";
  }
  return "?";
}

const char* to_string(RowShape shape) {
  switch (shape) {
    case RowShape::Scalar:
      return "scalar";
    case RowShape::Flat:
      return "flat";
    case RowShape::Env:
      return "env";
  }
  return "?";
}

void Column::push_null_bit(bool null) {
  const size_t word = size_ >> 6;
  if (word >= nulls_.size()) nulls_.push_back(0);
  if (null) {
    nulls_[word] |= uint64_t{1} << (size_ & 63);
    ++null_count_;
  }
  ++size_;
}

bool Column::settle(ColType type) {
  if (type_ == type) return true;
  if (type_ != ColType::Untyped) return false;
  type_ = type;
  // Leading nulls were recorded in the bitmap only; backfill their
  // storage slots so cell index == vector index.
  switch (type_) {
    case ColType::Bool:
      bools_.resize(size_, 0);
      break;
    case ColType::Int:
      ints_.resize(size_, 0);
      break;
    case ColType::Double:
      doubles_.resize(size_, 0);
      break;
    case ColType::String:
      strings_.resize(size_);
      break;
    case ColType::Untyped:
      break;
  }
  return true;
}

void Column::append_null() {
  switch (type_) {
    case ColType::Untyped:
      break;
    case ColType::Bool:
      bools_.push_back(0);
      break;
    case ColType::Int:
      ints_.push_back(0);
      break;
    case ColType::Double:
      doubles_.push_back(0);
      break;
    case ColType::String:
      strings_.emplace_back();
      break;
  }
  push_null_bit(true);
}

bool Column::append(const Value& value) {
  switch (value.kind()) {
    case ValueKind::Null:
      append_null();
      return true;
    case ValueKind::Bool:
      if (!settle(ColType::Bool)) return false;
      bools_.push_back(value.as_bool() ? 1 : 0);
      break;
    case ValueKind::Int:
      if (!settle(ColType::Int)) return false;
      ints_.push_back(value.as_int());
      break;
    case ValueKind::Double:
      if (!settle(ColType::Double)) return false;
      doubles_.push_back(value.as_double());
      break;
    case ValueKind::String:
      if (!settle(ColType::String)) return false;
      strings_.push_back(value.as_string());
      break;
    default:
      return false;  // collections and structs never fit a column
  }
  push_null_bit(false);
  return true;
}

void Column::append_cell(const Column& from, size_t row) {
  if (from.is_null(row)) {
    append_null();
    return;
  }
  internal_check(settle(from.type_), "gather across differently-typed columns");
  switch (from.type_) {
    case ColType::Bool:
      bools_.push_back(from.bools_[row]);
      break;
    case ColType::Int:
      ints_.push_back(from.ints_[row]);
      break;
    case ColType::Double:
      doubles_.push_back(from.doubles_[row]);
      break;
    case ColType::String:
      strings_.push_back(from.strings_[row]);
      break;
    case ColType::Untyped:
      break;
  }
  push_null_bit(false);
}

Value Column::value_at(size_t row) const {
  if (is_null(row)) return Value::null();
  switch (type_) {
    case ColType::Bool:
      return Value::boolean(bools_[row] != 0);
    case ColType::Int:
      return Value::integer(ints_[row]);
    case ColType::Double:
      return Value::real(doubles_[row]);
    case ColType::String:
      return Value::string(strings_[row]);
    case ColType::Untyped:
      break;
  }
  throw InternalError("non-null cell in an untyped column");
}

void Column::reserve(size_t rows) {
  nulls_.reserve((rows + 63) / 64);
  switch (type_) {
    case ColType::Bool:
      bools_.reserve(rows);
      break;
    case ColType::Int:
      ints_.reserve(rows);
      break;
    case ColType::Double:
      doubles_.reserve(rows);
      break;
    case ColType::String:
      strings_.reserve(rows);
      break;
    case ColType::Untyped:
      break;
  }
}

size_t Column::byte_size() const {
  size_t bytes = sizeof(Column) + nulls_.size() * sizeof(uint64_t) +
                 bools_.size() + ints_.size() * sizeof(int64_t) +
                 doubles_.size() * sizeof(double);
  for (const std::string& s : strings_) {
    bytes += sizeof(std::string) + string_heap_bytes(s);
  }
  return bytes;
}

int Column::compare_cells(size_t row, const Column& other,
                          size_t other_row) const {
  const int ra = kind_rank(kind_at(row));
  const int rb = kind_rank(other.kind_at(other_row));
  if (ra != rb) return ra < rb ? -1 : 1;
  if (is_null(row)) return 0;
  switch (type_) {
    case ColType::Bool:
      return static_cast<int>(bools_[row]) -
             static_cast<int>(other.bools_[other_row]);
    case ColType::Int:
    case ColType::Double:
      return compare_numbers(number_at(row), other.number_at(other_row));
    case ColType::String:
      return strings_[row].compare(other.strings_[other_row]);
    case ColType::Untyped:
      break;
  }
  throw InternalError("non-null cell in an untyped column");
}

int Column::compare_cell_value(size_t row, const Value& value) const {
  const int ra = kind_rank(kind_at(row));
  const int rb = kind_rank(value.kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  if (is_null(row)) return 0;
  switch (type_) {
    case ColType::Bool:
      return static_cast<int>(bools_[row]) -
             static_cast<int>(value.as_bool() ? 1 : 0);
    case ColType::Int:
    case ColType::Double:
      return compare_numbers(number_at(row), value.as_double());
    case ColType::String:
      return strings_[row].compare(value.as_string());
    case ColType::Untyped:
      break;
  }
  throw InternalError("non-null cell in an untyped column");
}

uint64_t Column::hash_cell(size_t row) const {
  if (is_null(row)) return 0x2545f4914f6cdd1dULL;
  switch (type_) {
    case ColType::Bool:
      return bools_[row] ? 0x9e3779b97f4a7c15ULL : 0xc2b2ae3d27d4eb4fULL;
    case ColType::Int:
    case ColType::Double: {
      uint64_t bits = number_bits(number_at(row));
      bits *= 0xff51afd7ed558ccdULL;
      bits ^= bits >> 33;
      return bits;
    }
    case ColType::String:
      return string_hash(strings_[row]);
    case ColType::Untyped:
      break;
  }
  throw InternalError("non-null cell in an untyped column");
}

bool Schema::same_layout(const Schema& other) const {
  if (shape != other.shape || columns.size() != other.columns.size()) {
    return false;
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].var != other.columns[i].var ||
        columns[i].name != other.columns[i].name) {
      return false;
    }
  }
  return true;
}

int Schema::index_of(std::string_view var, std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].var == var && columns[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

size_t byte_size(const Table& table) {
  size_t bytes = sizeof(Table);
  for (const Schema::Col& col : table.schema.columns) {
    bytes += 2 * sizeof(std::string) + string_heap_bytes(col.var) +
             string_heap_bytes(col.name);
  }
  for (const ColumnBatch& batch : table.batches) {
    bytes += sizeof(ColumnBatch);
    for (const std::shared_ptr<Column>& column : batch.columns) {
      bytes += sizeof(std::shared_ptr<Column>) + column->byte_size();
    }
  }
  return bytes;
}

size_t Table::rows() const {
  size_t n = 0;
  for (const ColumnBatch& batch : batches) n += batch.rows;
  return n;
}

std::optional<Schema> TableBuilder::schema_of(const Value& row) {
  Schema schema;
  if (row.is_scalar()) {
    schema.shape = RowShape::Scalar;
    schema.columns.push_back({"", ""});
    return schema;
  }
  if (row.kind() != ValueKind::Struct) return std::nullopt;
  const auto& fields = row.fields();
  const bool env = !fields.empty() &&
                   fields.front().second.kind() == ValueKind::Struct;
  if (env) {
    schema.shape = RowShape::Env;
    for (const auto& [var, inner] : fields) {
      if (inner.kind() != ValueKind::Struct) return std::nullopt;
      if (inner.fields().empty()) {
        // A var with zero attributes has no column to live in; rebuilding
        // would drop the var entirely. Decline.
        return std::nullopt;
      }
      for (const auto& [attr, cell] : inner.fields()) {
        if (!cell.is_scalar()) return std::nullopt;
        schema.columns.push_back({var, attr});
      }
    }
    return schema;
  }
  schema.shape = RowShape::Flat;
  for (const auto& [name, cell] : fields) {
    if (!cell.is_scalar()) return std::nullopt;
    schema.columns.push_back({"", name});
  }
  return schema;
}

TableBuilder::TableBuilder(Schema schema, size_t batch_rows,
                           size_t expected_rows)
    : batch_rows_(batch_rows), expected_rows_(expected_rows) {
  internal_check(batch_rows > 0, "batch_rows must be positive");
  table_.schema = std::move(schema);
}

ColumnBatch& TableBuilder::open() {
  if (!open_.has_value()) {
    const size_t reserve =
        std::min(batch_rows_, expected_rows_ > rows_ ? expected_rows_ - rows_
                                                     : size_t{0});
    open_.emplace();
    open_->columns.reserve(table_.schema.columns.size());
    for (size_t i = 0; i < table_.schema.columns.size(); ++i) {
      auto column = std::make_shared<Column>();
      column->reserve(reserve);
      open_->columns.push_back(std::move(column));
    }
  }
  return *open_;
}

void TableBuilder::end_row() {
  ColumnBatch& batch = open();
  ++batch.rows;
  ++rows_;
  if (batch.rows == batch_rows_) {
    table_.batches.push_back(std::move(batch));
    open_.reset();
  }
}

bool TableBuilder::append_row(const Value& row) {
  const Schema& schema = table_.schema;
  switch (schema.shape) {
    case RowShape::Scalar:
      if (!row.is_scalar() || !append(0, row)) return false;
      break;
    case RowShape::Flat: {
      if (row.kind() != ValueKind::Struct) return false;
      const auto& fields = row.fields();
      if (fields.size() != schema.columns.size()) return false;
      for (size_t i = 0; i < fields.size(); ++i) {
        if (fields[i].first != schema.columns[i].name) return false;
        if (!append(i, fields[i].second)) return false;
      }
      break;
    }
    case RowShape::Env: {
      if (row.kind() != ValueKind::Struct) return false;
      size_t col = 0;
      for (const auto& [var, inner] : row.fields()) {
        if (inner.kind() != ValueKind::Struct) return false;
        for (const auto& [attr, cell] : inner.fields()) {
          if (col >= schema.columns.size() ||
              schema.columns[col].var != var ||
              schema.columns[col].name != attr) {
            return false;
          }
          if (!append(col, cell)) return false;
          ++col;
        }
      }
      if (col != schema.columns.size()) return false;
      break;
    }
  }
  end_row();
  return true;
}

std::vector<Value> TableBuilder::rows() const {
  std::vector<Value> out;
  out.reserve(rows_);
  auto rebuild = [&](const ColumnBatch& batch) {
    for (size_t row = 0; row < batch.rows; ++row) {
      out.push_back(row_at(table_.schema, batch, row));
    }
  };
  for (const ColumnBatch& batch : table_.batches) rebuild(batch);
  if (open_.has_value()) rebuild(*open_);
  return out;
}

Table TableBuilder::finish() && {
  if (open_.has_value() && open_->rows > 0) {
    table_.batches.push_back(std::move(*open_));
  }
  open_.reset();
  return std::move(table_);
}

std::optional<Table> from_rows(const std::vector<Value>& rows,
                               size_t batch_rows) {
  internal_check(batch_rows > 0, "batch_rows must be positive");
  if (rows.empty()) return Table{};  // zero-column Flat layout, no batches
  std::optional<Schema> schema = TableBuilder::schema_of(rows.front());
  if (!schema) return std::nullopt;
  TableBuilder builder(*std::move(schema), batch_rows, rows.size());
  for (const Value& row : rows) {
    if (!builder.append_row(row)) return std::nullopt;
  }
  return std::move(builder).finish();
}

Value row_at(const Schema& schema, const ColumnBatch& batch, size_t row) {
  switch (schema.shape) {
    case RowShape::Scalar:
      return batch.columns[0]->value_at(row);
    case RowShape::Flat: {
      std::vector<std::pair<std::string, Value>> fields;
      fields.reserve(schema.columns.size());
      for (size_t i = 0; i < schema.columns.size(); ++i) {
        fields.emplace_back(schema.columns[i].name,
                            batch.columns[i]->value_at(row));
      }
      return Value::strct(std::move(fields));
    }
    case RowShape::Env: {
      // Columns of one var are consecutive (the converter built them by
      // nested iteration); rebuild by var runs.
      std::vector<std::pair<std::string, Value>> vars;
      size_t i = 0;
      while (i < schema.columns.size()) {
        const std::string& var = schema.columns[i].var;
        std::vector<std::pair<std::string, Value>> attrs;
        while (i < schema.columns.size() && schema.columns[i].var == var) {
          attrs.emplace_back(schema.columns[i].name,
                             batch.columns[i]->value_at(row));
          ++i;
        }
        vars.emplace_back(var, Value::strct(std::move(attrs)));
      }
      return Value::strct(std::move(vars));
    }
  }
  throw InternalError("corrupt schema shape");
}

std::vector<Value> to_rows(const Table& table) {
  std::vector<Value> rows;
  rows.reserve(table.rows());
  for (const ColumnBatch& batch : table.batches) {
    for (size_t row = 0; row < batch.rows; ++row) {
      rows.push_back(row_at(table.schema, batch, row));
    }
  }
  return rows;
}

int compare_rows(const ColumnBatch& a, size_t row_a, const ColumnBatch& b,
                 size_t row_b) {
  for (size_t i = 0; i < a.columns.size(); ++i) {
    int c = a.columns[i]->compare_cells(row_a, *b.columns[i], row_b);
    if (c != 0) return c;
  }
  return 0;
}

uint64_t hash_row(const ColumnBatch& batch, size_t row) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::shared_ptr<Column>& column : batch.columns) {
    const uint64_t cell = column->hash_cell(row);
    h ^= cell + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace disco::vec
