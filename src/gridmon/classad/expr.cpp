#include "gridmon/classad/expr.hpp"

#include <algorithm>
#include <cmath>

#include "gridmon/ascii.hpp"
#include "gridmon/classad/classad.hpp"

namespace gridmon::classad {
namespace {

/// Promote booleans to integers for arithmetic/ordering, per classic
/// Condor behaviour (TRUE behaves as 1).
Value promote_bool(const Value& v) {
  if (v.is_boolean()) return Value::integer(v.as_boolean() ? 1 : 0);
  return v;
}

Value arith(BinaryOp op, const Value& lv, const Value& rv) {
  if (lv.is_error() || rv.is_error()) return Value::error();
  if (lv.is_undefined() || rv.is_undefined()) return Value::undefined();
  Value l = promote_bool(lv), r = promote_bool(rv);
  if (!l.is_number() || !r.is_number()) return Value::error();
  if (l.is_integer() && r.is_integer()) {
    std::int64_t a = l.as_integer(), b = r.as_integer();
    switch (op) {
      case BinaryOp::Add:
        return Value::integer(a + b);
      case BinaryOp::Subtract:
        return Value::integer(a - b);
      case BinaryOp::Multiply:
        return Value::integer(a * b);
      case BinaryOp::Divide:
        return b == 0 ? Value::error() : Value::integer(a / b);
      case BinaryOp::Modulus:
        return b == 0 ? Value::error() : Value::integer(a % b);
      default:
        return Value::error();
    }
  }
  double a = l.as_number(), b = r.as_number();
  switch (op) {
    case BinaryOp::Add:
      return Value::real(a + b);
    case BinaryOp::Subtract:
      return Value::real(a - b);
    case BinaryOp::Multiply:
      return Value::real(a * b);
    case BinaryOp::Divide:
      return b == 0 ? Value::error() : Value::real(a / b);
    case BinaryOp::Modulus:
      return b == 0 ? Value::error() : Value::real(std::fmod(a, b));
    default:
      return Value::error();
  }
}

Value compare(BinaryOp op, const Value& lv, const Value& rv) {
  if (lv.is_error() || rv.is_error()) return Value::error();
  if (lv.is_undefined() || rv.is_undefined()) return Value::undefined();
  Value l = promote_bool(lv), r = promote_bool(rv);
  int cmp;
  if (l.is_number() && r.is_number()) {
    double a = l.as_number(), b = r.as_number();
    cmp = a < b ? -1 : (a > b ? 1 : 0);
  } else if (l.is_string() && r.is_string()) {
    cmp = istrcmp(l.as_string(), r.as_string());
  } else {
    return Value::error();  // string vs number, etc.
  }
  switch (op) {
    case BinaryOp::Less:
      return Value::boolean(cmp < 0);
    case BinaryOp::LessEq:
      return Value::boolean(cmp <= 0);
    case BinaryOp::Greater:
      return Value::boolean(cmp > 0);
    case BinaryOp::GreaterEq:
      return Value::boolean(cmp >= 0);
    case BinaryOp::Equal:
      return Value::boolean(cmp == 0);
    case BinaryOp::NotEqual:
      return Value::boolean(cmp != 0);
    default:
      return Value::error();
  }
}

/// `=?=`: total equality — TRUE iff same type and equal payload (strings
/// case-insensitive); UNDEFINED =?= UNDEFINED is TRUE. Never exceptional.
Value meta_equal(const Value& lv, const Value& rv) {
  Value l = promote_bool(lv), r = promote_bool(rv);
  if (l.type() != r.type()) {
    // ints and reals compare numerically across the divide
    if (l.is_number() && r.is_number()) {
      return Value::boolean(l.as_number() == r.as_number());
    }
    return Value::boolean(false);
  }
  switch (l.type()) {
    case ValueType::Undefined:
    case ValueType::Error:
      return Value::boolean(true);
    case ValueType::Integer:
      return Value::boolean(l.as_integer() == r.as_integer());
    case ValueType::Real:
      return Value::boolean(l.as_real() == r.as_real());
    case ValueType::String:
      return Value::boolean(istrcmp(l.as_string(), r.as_string()) == 0);
    case ValueType::Boolean:
      return Value::boolean(l.as_boolean() == r.as_boolean());
  }
  return Value::boolean(false);
}

const char* binary_op_name(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add:
      return "+";
    case BinaryOp::Subtract:
      return "-";
    case BinaryOp::Multiply:
      return "*";
    case BinaryOp::Divide:
      return "/";
    case BinaryOp::Modulus:
      return "%";
    case BinaryOp::Less:
      return "<";
    case BinaryOp::LessEq:
      return "<=";
    case BinaryOp::Greater:
      return ">";
    case BinaryOp::GreaterEq:
      return ">=";
    case BinaryOp::Equal:
      return "==";
    case BinaryOp::NotEqual:
      return "!=";
    case BinaryOp::MetaEqual:
      return "=?=";
    case BinaryOp::MetaNotEqual:
      return "=!=";
    case BinaryOp::And:
      return "&&";
    case BinaryOp::Or:
      return "||";
  }
  return "?";
}

}  // namespace

int istrcmp(std::string_view a, std::string_view b) {
  std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    char ca = ascii::to_lower(a[i]), cb = ascii::to_lower(b[i]);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

Value to_logical(const Value& v) {
  switch (v.type()) {
    case ValueType::Boolean:
      return v;
    case ValueType::Integer:
      return Value::boolean(v.as_integer() != 0);
    case ValueType::Real:
      return Value::boolean(v.as_real() != 0);
    case ValueType::Undefined:
      return Value::undefined();
    case ValueType::Error:
    case ValueType::String:
      return Value::error();
  }
  return Value::error();
}

Value AttrRefExpr::evaluate(EvalContext& ctx) const {
  if (ctx.depth >= EvalContext::kMaxDepth) return Value::error();
  const ClassAd* ad = nullptr;
  switch (scope_) {
    case AttrScope::My:
      ad = ctx.my;
      break;
    case AttrScope::Target:
      ad = ctx.target;
      break;
    case AttrScope::Default:
      ad = ctx.my;
      break;
  }
  if (ad != nullptr) {
    if (const Expr* e = ad->lookup(name_)) {
      // Attribute bodies evaluate in the scope of the ad that owns them.
      EvalContext inner = ctx;
      ++inner.depth;
      if (scope_ == AttrScope::Target) {
        std::swap(inner.my, inner.target);
      }
      return e->evaluate(inner);
    }
  }
  // Unqualified names fall through to TARGET (classic resolution order).
  if (scope_ == AttrScope::Default && ctx.target != nullptr) {
    if (const Expr* e = ctx.target->lookup(name_)) {
      EvalContext inner = ctx;
      ++inner.depth;
      std::swap(inner.my, inner.target);
      return e->evaluate(inner);
    }
  }
  return Value::undefined();
}

void AttrRefExpr::render(std::string& out) const {
  switch (scope_) {
    case AttrScope::My:
      out += "MY.";
      break;
    case AttrScope::Target:
      out += "TARGET.";
      break;
    case AttrScope::Default:
      break;
  }
  out += name_;
}

Value UnaryExpr::evaluate(EvalContext& ctx) const {
  Value v = operand_->evaluate(ctx);
  if (v.is_error()) return Value::error();
  if (v.is_undefined()) return Value::undefined();
  if (op_ == UnaryOp::Negate) {
    Value p = v.is_boolean() ? Value::integer(v.as_boolean() ? 1 : 0) : v;
    if (p.is_integer()) return Value::integer(-p.as_integer());
    if (p.is_real()) return Value::real(-p.as_real());
    return Value::error();
  }
  Value l = to_logical(v);
  if (l.is_boolean()) return Value::boolean(!l.as_boolean());
  return l;
}

void UnaryExpr::render(std::string& out) const {
  out += op_ == UnaryOp::Negate ? "-(" : "!(";
  operand_->render(out);
  out += ')';
}

Value BinaryExpr::evaluate(EvalContext& ctx) const {
  if (op_ == BinaryOp::And || op_ == BinaryOp::Or) {
    Value l = to_logical(lhs_->evaluate(ctx));
    bool dominant = (op_ == BinaryOp::And) ? false : true;
    if (l.is_boolean() && l.as_boolean() == dominant) {
      return Value::boolean(dominant);  // short-circuit on the dominator
    }
    Value r = to_logical(rhs_->evaluate(ctx));
    if (r.is_boolean() && r.as_boolean() == dominant) {
      return Value::boolean(dominant);
    }
    if (l.is_error() || r.is_error()) return Value::error();
    if (l.is_undefined() || r.is_undefined()) return Value::undefined();
    return Value::boolean(!dominant);
  }
  Value l = lhs_->evaluate(ctx);
  Value r = rhs_->evaluate(ctx);
  switch (op_) {
    case BinaryOp::Add:
    case BinaryOp::Subtract:
    case BinaryOp::Multiply:
    case BinaryOp::Divide:
    case BinaryOp::Modulus:
      return arith(op_, l, r);
    case BinaryOp::MetaEqual:
      return meta_equal(l, r);
    case BinaryOp::MetaNotEqual: {
      Value eq = meta_equal(l, r);
      return Value::boolean(!eq.as_boolean());
    }
    default:
      return compare(op_, l, r);
  }
}

void BinaryExpr::render(std::string& out) const {
  out += '(';
  lhs_->render(out);
  out += ' ';
  out += binary_op_name(op_);
  out += ' ';
  rhs_->render(out);
  out += ')';
}

Value TernaryExpr::evaluate(EvalContext& ctx) const {
  Value c = to_logical(cond_->evaluate(ctx));
  if (c.is_undefined()) return Value::undefined();
  if (c.is_error()) return Value::error();
  return c.as_boolean() ? then_->evaluate(ctx) : else_->evaluate(ctx);
}

void TernaryExpr::render(std::string& out) const {
  out += '(';
  cond_->render(out);
  out += " ? ";
  then_->render(out);
  out += " : ";
  else_->render(out);
  out += ')';
}

Value CallExpr::evaluate(EvalContext& ctx) const {
  std::string fn;
  fn.reserve(name_.size());
  for (char c : name_) fn.push_back(ascii::to_lower(c));

  std::vector<Value> args;
  args.reserve(args_.size());
  for (const auto& a : args_) args.push_back(a->evaluate(ctx));

  auto need = [&](std::size_t n) { return args.size() == n; };

  if (fn == "isundefined" && need(1)) {
    return Value::boolean(args[0].is_undefined());
  }
  if (fn == "iserror" && need(1)) return Value::boolean(args[0].is_error());
  if (fn == "time" && need(0)) {
    return Value::integer(static_cast<std::int64_t>(ctx.current_time));
  }

  // All remaining builtins are strict.
  for (const auto& a : args) {
    if (a.is_error()) return Value::error();
    if (a.is_undefined()) return Value::undefined();
  }

  if (fn == "floor" && need(1) && args[0].is_number()) {
    return Value::integer(
        static_cast<std::int64_t>(std::floor(args[0].as_number())));
  }
  if (fn == "ceiling" && need(1) && args[0].is_number()) {
    return Value::integer(
        static_cast<std::int64_t>(std::ceil(args[0].as_number())));
  }
  if (fn == "round" && need(1) && args[0].is_number()) {
    return Value::integer(
        static_cast<std::int64_t>(std::llround(args[0].as_number())));
  }
  if (fn == "abs" && need(1)) {
    if (args[0].is_integer()) {
      return Value::integer(std::abs(args[0].as_integer()));
    }
    if (args[0].is_real()) return Value::real(std::abs(args[0].as_real()));
    return Value::error();
  }
  if ((fn == "min" || fn == "max") && need(2) && args[0].is_number() &&
      args[1].is_number()) {
    bool pick_first = (fn == "min")
                          ? args[0].as_number() <= args[1].as_number()
                          : args[0].as_number() >= args[1].as_number();
    return pick_first ? args[0] : args[1];
  }
  if (fn == "int" && need(1)) {
    if (args[0].is_number()) {
      return Value::integer(static_cast<std::int64_t>(args[0].as_number()));
    }
    if (args[0].is_boolean()) {
      return Value::integer(args[0].as_boolean() ? 1 : 0);
    }
    return Value::error();
  }
  if (fn == "real" && need(1) && args[0].is_number()) {
    return Value::real(args[0].as_number());
  }
  if (fn == "string" && need(1)) {
    if (args[0].is_string()) return args[0];
    return Value::string(args[0].to_string());
  }
  if (fn == "strcat") {
    std::string out;
    for (const auto& a : args) {
      if (!a.is_string()) return Value::error();
      out += a.as_string();
    }
    return Value::string(std::move(out));
  }
  if (fn == "size" && need(1) && args[0].is_string()) {
    return Value::integer(static_cast<std::int64_t>(args[0].as_string().size()));
  }
  if ((fn == "toupper" || fn == "tolower") && need(1) && args[0].is_string()) {
    std::string out = args[0].as_string();
    auto fold = fn == "toupper" ? ascii::to_upper : ascii::to_lower;
    for (char& c : out) c = fold(c);
    return Value::string(std::move(out));
  }
  if (fn == "substr" && (args.size() == 2 || args.size() == 3) &&
      args[0].is_string() && args[1].is_integer()) {
    const std::string& s = args[0].as_string();
    auto off = args[1].as_integer();
    if (off < 0) off = std::max<std::int64_t>(0, off + static_cast<std::int64_t>(s.size()));
    if (off > static_cast<std::int64_t>(s.size())) return Value::string("");
    std::int64_t len = static_cast<std::int64_t>(s.size()) - off;
    if (args.size() == 3) {
      if (!args[2].is_integer()) return Value::error();
      len = std::min(len, args[2].as_integer());
      if (len < 0) len = 0;
    }
    return Value::string(s.substr(static_cast<std::size_t>(off),
                                  static_cast<std::size_t>(len)));
  }
  return Value::error();  // unknown function or arity mismatch
}

void CallExpr::render(std::string& out) const {
  out += name_;
  out += '(';
  for (std::size_t i = 0; i < args_.size(); ++i) {
    if (i) out += ", ";
    args_[i]->render(out);
  }
  out += ')';
}

}  // namespace gridmon::classad
