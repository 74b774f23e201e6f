#include "value/value.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "value/rules.hpp"

namespace disco {

const char* to_string(ValueKind kind) {
  switch (kind) {
    case ValueKind::Null:
      return "null";
    case ValueKind::Bool:
      return "bool";
    case ValueKind::Int:
      return "int";
    case ValueKind::Double:
      return "double";
    case ValueKind::String:
      return "string";
    case ValueKind::Bag:
      return "bag";
    case ValueKind::Set:
      return "set";
    case ValueKind::List:
      return "list";
    case ValueKind::Struct:
      return "struct";
  }
  return "unknown";
}

Value::Value() : payload_(std::monostate{}) {}

Value Value::null() { return Value(); }

Value Value::boolean(bool v) { return Value(Payload(v)); }

Value Value::integer(int64_t v) { return Value(Payload(v)); }

Value Value::real(double v) { return Value(Payload(v)); }

Value Value::string(std::string v) { return Value(Payload(std::move(v))); }

Value Value::bag(std::vector<Value> items) {
  auto coll = std::make_shared<Collection>();
  coll->kind = ValueKind::Bag;
  coll->items = std::move(items);
  return Value(Payload(std::shared_ptr<const Collection>(std::move(coll))));
}

Value Value::set(std::vector<Value> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end(),
                          [](const Value& a, const Value& b) {
                            return compare(a, b) == 0;
                          }),
              items.end());
  auto coll = std::make_shared<Collection>();
  coll->kind = ValueKind::Set;
  coll->items = std::move(items);
  return Value(Payload(std::shared_ptr<const Collection>(std::move(coll))));
}

Value Value::list(std::vector<Value> items) {
  auto coll = std::make_shared<Collection>();
  coll->kind = ValueKind::List;
  coll->items = std::move(items);
  return Value(Payload(std::shared_ptr<const Collection>(std::move(coll))));
}

Value Value::strct(std::vector<std::pair<std::string, Value>> fields) {
  auto data = std::make_shared<StructData>();
  data->fields = std::move(fields);
  return Value(Payload(std::shared_ptr<const StructData>(std::move(data))));
}

ValueKind Value::kind() const {
  switch (payload_.index()) {
    case 0:
      return ValueKind::Null;
    case 1:
      return ValueKind::Bool;
    case 2:
      return ValueKind::Int;
    case 3:
      return ValueKind::Double;
    case 4:
      return ValueKind::String;
    case 5:
      return std::get<5>(payload_)->kind;
    case 6:
      return ValueKind::Struct;
  }
  throw InternalError("corrupt value payload");
}

bool Value::is_collection() const {
  ValueKind k = kind();
  return k == ValueKind::Bag || k == ValueKind::Set || k == ValueKind::List;
}

const Value::Collection& Value::collection() const {
  if (payload_.index() != 5) {
    throw ExecutionError(std::string("expected a collection, got ") +
                         to_string(kind()));
  }
  return *std::get<5>(payload_);
}

const Value::StructData& Value::struct_data() const {
  if (payload_.index() != 6) {
    throw ExecutionError(std::string("expected a struct, got ") +
                         to_string(kind()));
  }
  return *std::get<6>(payload_);
}

bool Value::as_bool() const {
  if (auto* v = std::get_if<bool>(&payload_)) return *v;
  throw ExecutionError(std::string("expected bool, got ") +
                       to_string(kind()));
}

int64_t Value::as_int() const {
  if (auto* v = std::get_if<int64_t>(&payload_)) return *v;
  throw ExecutionError(std::string("expected int, got ") + to_string(kind()));
}

double Value::as_double() const {
  if (auto* v = std::get_if<int64_t>(&payload_)) {
    return static_cast<double>(*v);
  }
  if (auto* v = std::get_if<double>(&payload_)) return *v;
  throw ExecutionError(std::string("expected numeric, got ") +
                       to_string(kind()));
}

const std::string& Value::as_string() const {
  if (auto* v = std::get_if<std::string>(&payload_)) return *v;
  throw ExecutionError(std::string("expected string, got ") +
                       to_string(kind()));
}

const std::vector<Value>& Value::items() const { return collection().items; }

std::vector<Value> Value::take_items() && {
  collection();  // throws for a non-collection
  std::shared_ptr<const Collection> coll = std::get<5>(std::move(payload_));
  payload_ = std::monostate{};
  // The factories above build every Collection non-const, so a sole
  // owner may move its items out: no other Value can observe it.
  if (coll.use_count() == 1) {
    return std::move(const_cast<Collection&>(*coll).items);
  }
  return coll->items;
}

const std::vector<std::pair<std::string, Value>>& Value::fields() const {
  return struct_data().fields;
}

const Value& Value::field(std::string_view name) const {
  const Value* found = find_field(name);
  if (found == nullptr) {
    throw ExecutionError("struct has no field named '" + std::string(name) +
                         "'");
  }
  return *found;
}

const Value* Value::find_field(std::string_view name) const {
  for (const auto& [field_name, value] : struct_data().fields) {
    if (field_name == name) return &value;
  }
  return nullptr;
}

size_t Value::size() const {
  ValueKind k = kind();
  if (k == ValueKind::Struct) return struct_data().fields.size();
  if (is_collection()) return collection().items.size();
  return 0;
}

namespace {

/// Lexicographic order of two item sequences; a proper prefix sorts first.
int compare_sequences(const std::vector<Value>& a,
                      const std::vector<Value>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = Value::compare(a[i], b[i]);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

}  // namespace

int Value::compare(const Value& a, const Value& b) {
  int ra = kind_rank(a.kind());
  int rb = kind_rank(b.kind());
  if (ra != rb) return ra < rb ? -1 : 1;
  switch (a.kind()) {
    case ValueKind::Null:
      return 0;
    case ValueKind::Bool:
      return static_cast<int>(a.as_bool()) - static_cast<int>(b.as_bool());
    case ValueKind::Int:
    case ValueKind::Double:
      return compare_numbers(a.as_double(), b.as_double());
    case ValueKind::String:
      return a.as_string().compare(b.as_string());
    case ValueKind::Bag:
    case ValueKind::Set:
    case ValueKind::List: {
      // Bags compare by sorted content so that equal multisets are equal
      // regardless of arrival order; lists compare positionally.
      if (a.kind() == ValueKind::List) {
        return compare_sequences(a.items(), b.items());
      }
      std::vector<Value> ia = a.items();
      std::vector<Value> ib = b.items();
      std::sort(ia.begin(), ia.end());
      std::sort(ib.begin(), ib.end());
      return compare_sequences(ia, ib);
    }
    case ValueKind::Struct: {
      const auto& fa = a.fields();
      const auto& fb = b.fields();
      size_t n = std::min(fa.size(), fb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = fa[i].first.compare(fb[i].first);
        if (c != 0) return c;
        c = compare(fa[i].second, fb[i].second);
        if (c != 0) return c;
      }
      if (fa.size() != fb.size()) return fa.size() < fb.size() ? -1 : 1;
      return 0;
    }
  }
  throw InternalError("corrupt value in compare");
}

bool operator==(const Value& a, const Value& b) {
  return Value::compare(a, b) == 0;
}

uint64_t Value::hash() const {
  uint64_t h = 0x9e3779b97f4a7c15ULL * (kind_rank(kind()) + 1);
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  switch (kind()) {
    case ValueKind::Null:
      break;
    case ValueKind::Bool:
      mix(as_bool() ? 1 : 2);
      break;
    case ValueKind::Int:
    case ValueKind::Double:
      mix(number_bits(as_double()));
      break;
    case ValueKind::String:
      mix(string_hash(as_string()));
      break;
    case ValueKind::Bag:
    case ValueKind::Set: {
      // Order-independent combination for multiset semantics.
      uint64_t sum = 0;
      for (const Value& item : items()) sum += item.hash();
      mix(sum);
      mix(items().size());
      break;
    }
    case ValueKind::List:
      for (const Value& item : items()) mix(item.hash());
      mix(items().size());
      break;
    case ValueKind::Struct:
      for (const auto& [name, value] : fields()) {
        mix(string_hash(name));
        mix(value.hash());
      }
      break;
  }
  return h;
}

size_t string_heap_bytes(const std::string& s) {
  // Counting capacity() unconditionally double-counted every short
  // string.
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

size_t Value::deep_size() const {
  size_t bytes = sizeof(Value);
  switch (kind()) {
    case ValueKind::Null:
    case ValueKind::Bool:
    case ValueKind::Int:
    case ValueKind::Double:
      break;
    case ValueKind::String:
      // The string object itself is inline in the variant (inside
      // sizeof(Value)); only a spilled buffer adds heap bytes.
      bytes += string_heap_bytes(as_string());
      break;
    case ValueKind::Bag:
    case ValueKind::Set:
    case ValueKind::List:
      bytes += sizeof(Collection);
      for (const Value& item : items()) bytes += item.deep_size();
      break;
    case ValueKind::Struct:
      bytes += sizeof(StructData);
      for (const auto& [name, value] : fields()) {
        // Each entry is pair<string, Value>: the name object plus the
        // value's footprint (deep_size counts the Value object), plus
        // the name's spilled buffer if any.
        bytes += sizeof(std::string) + string_heap_bytes(name) +
                 value.deep_size();
      }
      break;
  }
  return bytes;
}

std::string Value::to_oql() const {
  switch (kind()) {
    case ValueKind::Null:
      return "nil";
    case ValueKind::Bool:
      return as_bool() ? "true" : "false";
    case ValueKind::Int:
      return std::to_string(as_int());
    case ValueKind::Double:
      return format_double(as_double());
    case ValueKind::String:
      return quote_string(as_string());
    case ValueKind::Bag:
    case ValueKind::Set:
    case ValueKind::List: {
      std::vector<std::string> parts;
      parts.reserve(items().size());
      for (const Value& item : items()) parts.push_back(item.to_oql());
      const char* ctor = kind() == ValueKind::Bag   ? "bag"
                         : kind() == ValueKind::Set ? "set"
                                                    : "list";
      return std::string(ctor) + "(" + join(parts, ", ") + ")";
    }
    case ValueKind::Struct: {
      std::vector<std::string> parts;
      parts.reserve(fields().size());
      for (const auto& [name, value] : fields()) {
        parts.push_back(name + ": " + value.to_oql());
      }
      return "struct(" + join(parts, ", ") + ")";
    }
  }
  throw InternalError("corrupt value in to_oql");
}

Value Value::union_with(const Value& a, const Value& b) {
  if (!a.is_collection() || !b.is_collection()) {
    throw ExecutionError("union expects collections, got " +
                         std::string(to_string(a.kind())) + " and " +
                         std::string(to_string(b.kind())));
  }
  std::vector<Value> items = a.items();
  items.insert(items.end(), b.items().begin(), b.items().end());
  if (a.kind() == ValueKind::Set && b.kind() == ValueKind::Set) {
    return Value::set(std::move(items));
  }
  return Value::bag(std::move(items));
}

Value make_row_bag(const std::vector<std::string>& field_names,
                   const std::vector<std::vector<Value>>& rows) {
  std::vector<Value> structs;
  structs.reserve(rows.size());
  for (const auto& row : rows) {
    internal_check(row.size() == field_names.size(),
                   "row arity does not match field names");
    std::vector<std::pair<std::string, Value>> fields;
    fields.reserve(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      fields.emplace_back(field_names[i], row[i]);
    }
    structs.push_back(Value::strct(std::move(fields)));
  }
  return Value::bag(std::move(structs));
}

}  // namespace disco
