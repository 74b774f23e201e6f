#include "sources/memdb/table.hpp"

#include <mutex>

#include "common/error.hpp"

namespace disco::memdb {

const char* to_string(ColumnType type) {
  switch (type) {
    case ColumnType::Int:
      return "INT";
    case ColumnType::Real:
      return "REAL";
    case ColumnType::Text:
      return "TEXT";
    case ColumnType::Bool:
      return "BOOL";
  }
  return "?";
}

ValueKind value_kind(ColumnType type) {
  switch (type) {
    case ColumnType::Int:
      return ValueKind::Int;
    case ColumnType::Real:
      return ValueKind::Double;
    case ColumnType::Text:
      return ValueKind::String;
    case ColumnType::Bool:
      return ValueKind::Bool;
  }
  return ValueKind::Null;
}

Table::Table(std::string name, std::vector<Column> columns)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      nil_counts_(columns_.size(), 0) {
  internal_check(!name_.empty(), "table needs a name");
  internal_check(!columns_.empty(), "table needs at least one column");
  for (size_t i = 0; i < columns_.size(); ++i) {
    for (size_t j = i + 1; j < columns_.size(); ++j) {
      if (columns_[i].name == columns_[j].name) {
        throw TypeError("duplicate column '" + columns_[i].name +
                        "' in table '" + name_ + "'");
      }
    }
  }
}

int Table::column_index(const std::string& column) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == column) return static_cast<int>(i);
  }
  return -1;
}

namespace {

bool conforms(const Value& value, ColumnType type) {
  if (value.is_null()) return true;
  switch (type) {
    case ColumnType::Int:
      return value.kind() == ValueKind::Int;
    case ColumnType::Real:
      return value.is_numeric();
    case ColumnType::Text:
      return value.kind() == ValueKind::String;
    case ColumnType::Bool:
      return value.kind() == ValueKind::Bool;
  }
  return false;
}

}  // namespace

void Table::check_row(const Row& row) const {
  if (row.size() != columns_.size()) {
    throw TypeError("table '" + name_ + "' expects " +
                    std::to_string(columns_.size()) + " values, got " +
                    std::to_string(row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (!conforms(row[i], columns_[i].type)) {
      throw TypeError("column '" + columns_[i].name + "' of table '" +
                      name_ + "' expects " + to_string(columns_[i].type) +
                      ", got " + to_string(row[i].kind()));
    }
  }
}

void Table::count_nils(const Row& row, int delta) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) nil_counts_[i] += static_cast<size_t>(delta);
  }
}

void Table::insert(Row row) {
  check_row(row);
  std::unique_lock lock(*mutex_);
  for (const std::unique_ptr<OrderedIndex>& index : indexes_) {
    index->insert(row[index->column()], rows_.size());
  }
  count_nils(row, +1);
  rows_.push_back(std::move(row));
}

void Table::insert_all(std::vector<Row> rows) {
  for (Row& row : rows) insert(std::move(row));
}

void Table::remove_row(size_t row) {
  std::unique_lock lock(*mutex_);
  if (row >= rows_.size()) {
    throw ExecutionError("table '" + name_ + "' has no row " +
                         std::to_string(row));
  }
  const size_t last = rows_.size() - 1;
  for (const std::unique_ptr<OrderedIndex>& index : indexes_) {
    index->erase(rows_[row][index->column()], row);
  }
  count_nils(rows_[row], -1);
  if (row != last) {
    // Swap-pop keeps ids dense; the moved row's entries must re-point.
    for (const std::unique_ptr<OrderedIndex>& index : indexes_) {
      index->erase(rows_[last][index->column()], last);
      index->insert(rows_[last][index->column()], row);
    }
    rows_[row] = std::move(rows_[last]);
  }
  rows_.pop_back();
}

void Table::update_row(size_t row, Row values) {
  check_row(values);
  std::unique_lock lock(*mutex_);
  if (row >= rows_.size()) {
    throw ExecutionError("table '" + name_ + "' has no row " +
                         std::to_string(row));
  }
  for (const std::unique_ptr<OrderedIndex>& index : indexes_) {
    const Value& before = rows_[row][index->column()];
    const Value& after = values[index->column()];
    if (Value::compare(before, after) == 0) continue;
    index->erase(before, row);
    index->insert(after, row);
  }
  count_nils(rows_[row], -1);
  count_nils(values, +1);
  rows_[row] = std::move(values);
}

OrderedIndex& Table::create_index(const std::string& index_name,
                                  const std::string& column) {
  int col = column_index(column);
  if (col == -1) {
    throw CatalogError("cannot index unknown column '" + column +
                       "' of table '" + name_ + "'");
  }
  std::unique_lock lock(*mutex_);
  for (const std::unique_ptr<OrderedIndex>& index : indexes_) {
    if (index->name() == index_name) {
      throw CatalogError("index '" + index_name + "' already exists on "
                         "table '" + name_ + "'");
    }
  }
  auto index = std::make_unique<OrderedIndex>(index_name,
                                              static_cast<size_t>(col));
  for (size_t row = 0; row < rows_.size(); ++row) {
    index->insert(rows_[row][index->column()], row);
  }
  indexes_.push_back(std::move(index));
  return *indexes_.back();
}

const OrderedIndex* Table::index_on(size_t column) const {
  for (const std::unique_ptr<OrderedIndex>& index : indexes_) {
    if (index->column() == column) return index.get();
  }
  return nullptr;
}

}  // namespace disco::memdb
