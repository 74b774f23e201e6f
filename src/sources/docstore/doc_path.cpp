#include "sources/docstore/doc_path.hpp"

#include <cctype>

#include "common/error.hpp"
#include "value/rules.hpp"

namespace disco::docstore {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

DocPath DocPath::parse(const std::string& text) {
  DocPath path;
  size_t i = 0;
  auto fail = [&](const std::string& message) {
    throw ExecutionError("doc path '" + text + "': " + message +
                         " at offset " + std::to_string(i));
  };
  auto field = [&] {
    if (i >= text.size() || !ident_start(text[i])) fail("expected a field name");
    size_t start = i;
    while (i < text.size() && ident_char(text[i])) ++i;
    PathStep step;
    step.kind = PathStep::Kind::Field;
    step.field = text.substr(start, i - start);
    path.steps_.push_back(std::move(step));
  };
  auto bracket = [&] {
    ++i;  // '['
    PathStep step;
    if (i < text.size() && text[i] == '*') {
      step.kind = PathStep::Kind::Wildcard;
      ++i;
    } else {
      if (i >= text.size() || std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
        fail("expected an index or '*' after '['");
      }
      size_t start = i;
      while (i < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
        ++i;
      }
      step.kind = PathStep::Kind::Index;
      step.index = static_cast<size_t>(
          std::stoull(text.substr(start, i - start)));
    }
    if (i >= text.size() || text[i] != ']') fail("expected ']'");
    ++i;
    path.steps_.push_back(std::move(step));
  };

  if (text.empty()) return path;  // the whole document
  field();
  while (i < text.size()) {
    if (text[i] == '.') {
      ++i;
      field();
    } else if (text[i] == '[') {
      bracket();
    } else {
      fail("expected '.' or '['");
    }
  }
  return path;
}

DocPath DocPath::with_fields(const std::vector<std::string>& names) const {
  DocPath extended = *this;
  for (const std::string& name : names) {
    PathStep step;
    step.kind = PathStep::Kind::Field;
    step.field = name;
    extended.steps_.push_back(std::move(step));
  }
  return extended;
}

bool DocPath::has_wildcard() const {
  for (const PathStep& step : steps_) {
    if (step.kind == PathStep::Kind::Wildcard) return true;
  }
  return false;
}

std::string DocPath::to_text() const {
  std::string out;
  for (const PathStep& step : steps_) {
    switch (step.kind) {
      case PathStep::Kind::Field:
        if (!out.empty()) out += '.';
        out += step.field;
        break;
      case PathStep::Kind::Index:
        out += '[' + std::to_string(step.index) + ']';
        break;
      case PathStep::Kind::Wildcard:
        out += "[*]";
        break;
    }
  }
  return out;
}

void DocPath::collect(const Value& value, size_t step_index,
                      bool below_wildcard, std::vector<Value>& out) const {
  if (step_index == steps_.size()) {
    out.push_back(value);
    return;
  }
  const PathStep& step = steps_[step_index];
  switch (step.kind) {
    case PathStep::Kind::Field: {
      if (!below_wildcard) {
        collect(field_step(value, step.field), step_index + 1, false, out);
        return;
      }
      // Below a wildcard a non-applicable element is no match.
      if (std::optional<Value> next = try_field_step(value, step.field)) {
        collect(*next, step_index + 1, true, out);
      }
      return;
    }
    case PathStep::Kind::Index: {
      if (value.kind() == ValueKind::Null) {
        collect(Value::null(), step_index + 1, below_wildcard, out);
        return;
      }
      if (value.kind() != ValueKind::List) {
        if (below_wildcard) return;
        throw ExecutionError("doc path '" + to_text() + "': index [" +
                             std::to_string(step.index) +
                             "] applied to non-list value " + value.to_oql());
      }
      const std::vector<Value>& items = value.items();
      collect(step.index < items.size() ? items[step.index] : Value::null(),
              step_index + 1, below_wildcard, out);
      return;
    }
    case PathStep::Kind::Wildcard: {
      // An absent array contributes no matches, mirroring the missing-
      // field-reads-as-nil rule one level up.
      if (value.kind() == ValueKind::Null) return;
      if (value.kind() != ValueKind::List) {
        if (below_wildcard) return;
        throw ExecutionError("doc path '" + to_text() +
                             "': [*] applied to non-list value " +
                             value.to_oql());
      }
      for (const Value& item : value.items()) {
        collect(item, step_index + 1, /*below_wildcard=*/true, out);
      }
      return;
    }
  }
  throw InternalError("corrupt doc path step");
}

Value DocPath::eval(const Value& doc) const {
  std::vector<Value> out;
  collect(doc, 0, /*below_wildcard=*/false, out);
  if (has_wildcard()) return Value::list(std::move(out));
  internal_check(out.size() == 1, "non-wildcard doc path must yield one value");
  return std::move(out.front());
}

}  // namespace disco::docstore
