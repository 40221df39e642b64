#include "gridmon/rdbms/sql_ast.hpp"

#include "gridmon/ascii.hpp"
#include "gridmon/rdbms/sql_lexer.hpp"  // SqlError

namespace gridmon::rdbms {
namespace {

Value bool_value(std::optional<bool> b) {
  if (!b) return Value::null();
  return Value::integer(*b ? 1 : 0);
}

}  // namespace

std::optional<bool> SqlExpr::truth(const Value& v) {
  if (v.is_null()) return std::nullopt;
  if (v.is_number()) return v.as_number() != 0;
  return !v.as_text().empty();
}

Value SqlColumnRef::eval(const RowContext& ctx) const {
  auto idx = ctx.schema->index_of(name_);
  if (!idx) throw SqlError("unknown column: " + name_);
  return (*ctx.row)[*idx];
}

Value SqlBinary::eval(const RowContext& ctx) const {
  if (op_ == SqlBinOp::And || op_ == SqlBinOp::Or) {
    auto l = truth(lhs_->eval(ctx));
    auto r = truth(rhs_->eval(ctx));
    if (op_ == SqlBinOp::And) {
      // Kleene AND: false dominates unknown.
      if ((l && !*l) || (r && !*r)) return Value::integer(0);
      if (!l || !r) return Value::null();
      return Value::integer(1);
    }
    if ((l && *l) || (r && *r)) return Value::integer(1);
    if (!l || !r) return Value::null();
    return Value::integer(0);
  }

  Value l = lhs_->eval(ctx);
  Value r = rhs_->eval(ctx);
  switch (op_) {
    case SqlBinOp::Add:
    case SqlBinOp::Subtract:
    case SqlBinOp::Multiply:
    case SqlBinOp::Divide: {
      if (l.is_null() || r.is_null()) return Value::null();
      if (!l.is_number() || !r.is_number()) {
        throw SqlError("arithmetic on non-numeric value");
      }
      if (l.is_integer() && r.is_integer() && op_ != SqlBinOp::Divide) {
        std::int64_t a = l.as_integer(), b = r.as_integer();
        switch (op_) {
          case SqlBinOp::Add:
            return Value::integer(a + b);
          case SqlBinOp::Subtract:
            return Value::integer(a - b);
          default:
            return Value::integer(a * b);
        }
      }
      double a = l.as_number(), b = r.as_number();
      switch (op_) {
        case SqlBinOp::Add:
          return Value::real(a + b);
        case SqlBinOp::Subtract:
          return Value::real(a - b);
        case SqlBinOp::Multiply:
          return Value::real(a * b);
        default:
          if (b == 0) return Value::null();  // SQL: division by zero -> NULL
          return Value::real(a / b);
      }
    }
    default: {
      auto cmp = Value::compare(l, r);
      if (!cmp) return Value::null();
      switch (op_) {
        case SqlBinOp::Eq:
          return bool_value(*cmp == 0);
        case SqlBinOp::NotEq:
          return bool_value(*cmp != 0);
        case SqlBinOp::Less:
          return bool_value(*cmp < 0);
        case SqlBinOp::LessEq:
          return bool_value(*cmp <= 0);
        case SqlBinOp::Greater:
          return bool_value(*cmp > 0);
        case SqlBinOp::GreaterEq:
          return bool_value(*cmp >= 0);
        default:
          throw SqlError("bad operator");
      }
    }
  }
}

std::string SqlBinary::to_string() const {
  const char* op = "?";
  switch (op_) {
    case SqlBinOp::Add:
      op = "+";
      break;
    case SqlBinOp::Subtract:
      op = "-";
      break;
    case SqlBinOp::Multiply:
      op = "*";
      break;
    case SqlBinOp::Divide:
      op = "/";
      break;
    case SqlBinOp::Eq:
      op = "=";
      break;
    case SqlBinOp::NotEq:
      op = "<>";
      break;
    case SqlBinOp::Less:
      op = "<";
      break;
    case SqlBinOp::LessEq:
      op = "<=";
      break;
    case SqlBinOp::Greater:
      op = ">";
      break;
    case SqlBinOp::GreaterEq:
      op = ">=";
      break;
    case SqlBinOp::And:
      op = "AND";
      break;
    case SqlBinOp::Or:
      op = "OR";
      break;
  }
  // Appends instead of one operator+ chain: GCC 12's -Wrestrict misfires
  // on nested char*/string concatenations at -O2 (GCC PR 105651).
  std::string out = "(";
  out += lhs_->to_string();
  out += ' ';
  out += op;
  out += ' ';
  out += rhs_->to_string();
  out += ')';
  return out;
}

Value SqlNot::eval(const RowContext& ctx) const {
  auto t = truth(inner_->eval(ctx));
  if (!t) return Value::null();
  return Value::integer(*t ? 0 : 1);
}

Value SqlNegate::eval(const RowContext& ctx) const {
  Value v = inner_->eval(ctx);
  if (v.is_null()) return Value::null();
  if (v.is_integer()) return Value::integer(-v.as_integer());
  if (v.is_real()) return Value::real(-v.as_real());
  throw SqlError("negation of non-numeric value");
}

bool SqlLike::like_match(const std::string& text, const std::string& pattern) {
  // Iterative wildcard match with backtracking on '%'.
  std::size_t t = 0, p = 0;
  std::size_t star_p = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' ||
         ascii::to_lower(pattern[p]) == ascii::to_lower(text[t]))) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Value SqlLike::eval(const RowContext& ctx) const {
  Value v = subject_->eval(ctx);
  if (v.is_null()) return Value::null();
  if (!v.is_text()) throw SqlError("LIKE requires a string subject");
  bool m = like_match(v.as_text(), pattern_);
  return Value::integer((m != negated_) ? 1 : 0);
}

std::string SqlLike::to_string() const {
  return subject_->to_string() + (negated_ ? " NOT LIKE " : " LIKE ") +
         Value::text(pattern_).to_string();
}

Value SqlIn::eval(const RowContext& ctx) const {
  Value v = subject_->eval(ctx);
  if (v.is_null()) return Value::null();
  bool saw_null = false;
  for (const auto& item : items_) {
    Value w = item->eval(ctx);
    auto cmp = Value::compare(v, w);
    if (!cmp) {
      if (w.is_null()) saw_null = true;
      continue;
    }
    if (*cmp == 0) return Value::integer(negated_ ? 0 : 1);
  }
  if (saw_null) return Value::null();  // SQL: x IN (..., NULL) is unknown
  return Value::integer(negated_ ? 1 : 0);
}

std::string SqlIn::to_string() const {
  std::string out =
      subject_->to_string() + (negated_ ? " NOT IN (" : " IN (");
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i) out += ", ";
    out += items_[i]->to_string();
  }
  return out + ")";
}

Value SqlIsNull::eval(const RowContext& ctx) const {
  bool is_null = subject_->eval(ctx).is_null();
  return Value::integer((is_null != negated_) ? 1 : 0);
}

}  // namespace gridmon::rdbms
