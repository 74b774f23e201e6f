#include "sources/memdb/minisql.hpp"

#include <charconv>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "oql/lexer.hpp"

namespace disco::memdb {

// MiniSQL shares DISCO's lexical structure, so the generic tokenizer from
// oql/lexer.hpp is reused; everything above the token level is distinct.
using oql::Token;
using oql::TokenKind;

const char* to_string(CmpOp op) {
  switch (op) {
    case CmpOp::Eq:
      return "=";
    case CmpOp::Ne:
      return "<>";
    case CmpOp::Lt:
      return "<";
    case CmpOp::Le:
      return "<=";
    case CmpOp::Gt:
      return ">";
    case CmpOp::Ge:
      return ">=";
  }
  return "?";
}

std::string Operand::to_sql() const {
  if (kind == Kind::Column) return column.to_sql();
  // MiniSQL literal syntax is the OQL literal printer's for scalars
  // (memdb stores scalars only), except that nil is spelled null.
  return literal.is_null() ? "null" : literal.to_oql();
}

PredPtr Pred::cmp(CmpOp op, Operand lhs, Operand rhs) {
  auto p = std::make_shared<Pred>();
  p->kind = Kind::Cmp;
  p->op = op;
  p->lhs = std::move(lhs);
  p->rhs = std::move(rhs);
  return p;
}

PredPtr Pred::conj(PredPtr left, PredPtr right) {
  if (left == nullptr) return right;
  if (right == nullptr) return left;
  auto p = std::make_shared<Pred>();
  p->kind = Kind::And;
  p->left = std::move(left);
  p->right = std::move(right);
  return p;
}

PredPtr Pred::disj(PredPtr left, PredPtr right) {
  internal_check(left != nullptr && right != nullptr, "disj needs operands");
  auto p = std::make_shared<Pred>();
  p->kind = Kind::Or;
  p->left = std::move(left);
  p->right = std::move(right);
  return p;
}

PredPtr Pred::negate(PredPtr operand) {
  internal_check(operand != nullptr, "negate needs an operand");
  auto p = std::make_shared<Pred>();
  p->kind = Kind::Not;
  p->left = std::move(operand);
  return p;
}

std::string Pred::to_sql() const {
  switch (kind) {
    case Kind::Cmp:
      return lhs.to_sql() + " " + to_string(op) + " " + rhs.to_sql();
    case Kind::And:
      return "(" + left->to_sql() + " AND " + right->to_sql() + ")";
    case Kind::Or:
      return "(" + left->to_sql() + " OR " + right->to_sql() + ")";
    case Kind::Not:
      return "NOT (" + left->to_sql() + ")";
  }
  return "?";
}

std::string Query::to_sql() const {
  std::string out = "SELECT ";
  if (star) {
    out += "*";
  } else {
    std::vector<std::string> parts;
    for (const SelectItem& item : items) {
      std::string part = item.column.to_sql();
      if (!item.alias.empty() && item.alias != item.column.column) {
        part += " AS " + item.alias;
      }
      parts.push_back(std::move(part));
    }
    out += join(parts, ", ");
  }
  out += " FROM ";
  std::vector<std::string> tables_text;
  for (const TableRef& ref : tables) {
    std::string part = ref.table;
    if (!ref.alias.empty() && ref.alias != ref.table) {
      part += " " + ref.alias;
    }
    tables_text.push_back(std::move(part));
  }
  out += join(tables_text, ", ");
  if (where != nullptr) {
    out += " WHERE " + where->to_sql();
  }
  return out;
}

namespace {

bool is_kw(const Token& token, std::string_view keyword) {
  return token.kind == TokenKind::Ident && iequals(token.text, keyword);
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Query run() {
    Query query = select_query();
    finish();
    return query;
  }

  Statement run_statement() {
    Statement statement;
    if (is_kw(peek(), "create")) {
      statement.create_index = create_index();
    } else {
      statement.query = select_query();
    }
    finish();
    return statement;
  }

 private:
  void finish() {
    if (peek().kind == TokenKind::Semicolon) advance();
    if (peek().kind != TokenKind::End) {
      fail("unexpected trailing input");
    }
  }

  CreateIndexStmt create_index() {
    if (!match_kw("create")) fail("expected CREATE");
    if (!match_kw("index")) fail("expected INDEX after CREATE");
    CreateIndexStmt stmt;
    stmt.index = expect_ident("index name").text;
    if (!match_kw("on")) fail("expected ON");
    stmt.table = expect_ident("table name").text;
    if (!match(TokenKind::LParen)) fail("expected '('");
    stmt.column = expect_ident("column name").text;
    if (!match(TokenKind::RParen)) fail("expected ')'");
    return stmt;
  }

  const Token& peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& advance() {
    const Token& t = peek();
    if (t.kind != TokenKind::End) ++pos_;
    return t;
  }
  bool match(TokenKind kind) {
    if (peek().kind == kind) {
      advance();
      return true;
    }
    return false;
  }
  bool match_kw(std::string_view keyword) {
    if (is_kw(peek(), keyword)) {
      advance();
      return true;
    }
    return false;
  }
  [[noreturn]] void fail(const std::string& message) const {
    const Token& t = peek();
    throw ParseError("MiniSQL: " + message + " (found " +
                         to_string(t.kind) +
                         (t.text.empty() ? "" : " '" + t.text + "'") + ")",
                     t.line, t.column);
  }
  const Token& expect_ident(std::string_view what) {
    if (peek().kind != TokenKind::Ident) fail("expected " + std::string(what));
    return advance();
  }

  bool next_is_keyword() const {
    const Token& t = peek();
    return is_kw(t, "from") || is_kw(t, "where") || is_kw(t, "and") ||
           is_kw(t, "or") || is_kw(t, "not") || is_kw(t, "as") ||
           is_kw(t, "select");
  }

  Query select_query() {
    if (!match_kw("select")) fail("expected SELECT");
    Query query;
    if (match(TokenKind::Star)) {
      query.star = true;
    } else {
      do {
        SelectItem item;
        item.column = column_ref();
        if (match_kw("as")) {
          item.alias = expect_ident("alias after AS").text;
        }
        query.items.push_back(std::move(item));
      } while (match(TokenKind::Comma));
    }
    if (!match_kw("from")) fail("expected FROM");
    do {
      TableRef ref;
      ref.table = expect_ident("table name").text;
      if (match_kw("as")) {
        ref.alias = expect_ident("alias after AS").text;
      } else if (peek().kind == TokenKind::Ident && !next_is_keyword()) {
        ref.alias = advance().text;
      }
      if (ref.alias.empty()) ref.alias = ref.table;
      query.tables.push_back(std::move(ref));
    } while (match(TokenKind::Comma));
    if (match_kw("where")) {
      query.where = or_pred();
    }
    return query;
  }

  ColumnRef column_ref() {
    ColumnRef ref;
    ref.column = expect_ident("column name").text;
    if (match(TokenKind::Dot)) {
      ref.table = ref.column;
      ref.column = expect_ident("column after '.'").text;
    }
    return ref;
  }

  PredPtr or_pred() {
    PredPtr left = and_pred();
    while (match_kw("or")) {
      left = Pred::disj(left, and_pred());
    }
    return left;
  }

  PredPtr and_pred() {
    PredPtr left = atom_pred();
    while (match_kw("and")) {
      left = Pred::conj(left, atom_pred());
    }
    return left;
  }

  PredPtr atom_pred() {
    if (match_kw("not")) {
      return Pred::negate(atom_pred());
    }
    if (match(TokenKind::LParen)) {
      PredPtr inner = or_pred();
      if (!match(TokenKind::RParen)) fail("expected ')'");
      return inner;
    }
    Operand lhs = operand();
    CmpOp op;
    switch (peek().kind) {
      case TokenKind::Eq:
        op = CmpOp::Eq;
        break;
      case TokenKind::Ne:
        op = CmpOp::Ne;
        break;
      case TokenKind::Lt:
        op = CmpOp::Lt;
        break;
      case TokenKind::Le:
        op = CmpOp::Le;
        break;
      case TokenKind::Gt:
        op = CmpOp::Gt;
        break;
      case TokenKind::Ge:
        op = CmpOp::Ge;
        break;
      default:
        fail("expected comparison operator");
    }
    advance();
    return Pred::cmp(op, std::move(lhs), operand());
  }

  Operand operand() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::IntLit: {
        advance();
        int64_t v = 0;
        std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
        return Operand::lit(Value::integer(v));
      }
      case TokenKind::DoubleLit:
        advance();
        return Operand::lit(Value::real(std::stod(t.text)));
      case TokenKind::StringLit:
        advance();
        return Operand::lit(Value::string(t.text));
      case TokenKind::Minus: {
        advance();
        const Token& n = peek();
        if (n.kind == TokenKind::IntLit) {
          advance();
          int64_t v = 0;
          std::from_chars(n.text.data(), n.text.data() + n.text.size(), v);
          return Operand::lit(Value::integer(-v));
        }
        if (n.kind == TokenKind::DoubleLit) {
          advance();
          return Operand::lit(Value::real(-std::stod(n.text)));
        }
        fail("expected number after '-'");
      }
      case TokenKind::Ident:
        if (iequals(t.text, "true")) {
          advance();
          return Operand::lit(Value::boolean(true));
        }
        if (iequals(t.text, "false")) {
          advance();
          return Operand::lit(Value::boolean(false));
        }
        if (iequals(t.text, "null")) {
          advance();
          return Operand::lit(Value::null());
        }
        return Operand::col(column_ref());
      default:
        fail("expected operand");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Query parse_minisql(const std::string& text) {
  return Parser(oql::tokenize(text)).run();
}

Statement parse_statement(const std::string& text) {
  return Parser(oql::tokenize(text)).run_statement();
}

std::vector<PredPtr> conjuncts(const PredPtr& predicate) {
  std::vector<PredPtr> out;
  if (predicate == nullptr) return out;
  if (predicate->kind == Pred::Kind::And) {
    auto left = conjuncts(predicate->left);
    auto right = conjuncts(predicate->right);
    out.insert(out.end(), left.begin(), left.end());
    out.insert(out.end(), right.begin(), right.end());
    return out;
  }
  out.push_back(predicate);
  return out;
}

}  // namespace disco::memdb
