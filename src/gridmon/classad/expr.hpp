#pragma once

/// \file expr.hpp
/// Expression AST and evaluator for the old-ClassAd language.
///
/// Semantics follow Condor's classic ads: four-valued logic where
/// UNDEFINED arises from missing attributes and propagates through strict
/// operators, ERROR from type mismatches; `&&`/`||` use the dominance
/// truth tables (FALSE dominates AND, TRUE dominates OR, then ERROR, then
/// UNDEFINED); `=?=`/`=!=` are the total "is-identical" comparisons that
/// never yield UNDEFINED.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gridmon/classad/value.hpp"

namespace gridmon::classad {

class ClassAd;

/// Everything an expression can see while evaluating: the ad it lives in
/// (MY), the candidate ad (TARGET), a recursion guard, and the current
/// time for the time() builtin.
struct EvalContext {
  const ClassAd* my = nullptr;
  const ClassAd* target = nullptr;
  int depth = 0;
  double current_time = 0;

  static constexpr int kMaxDepth = 64;
};

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

class Expr {
 public:
  virtual ~Expr() = default;
  virtual Value evaluate(EvalContext& ctx) const = 0;
  /// Append this expression in ClassAd syntax to `out`.
  virtual void render(std::string& out) const = 0;
  virtual ExprPtr clone() const = 0;

  std::string to_string() const {
    std::string out;
    render(out);
    return out;
  }
};

class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  Value evaluate(EvalContext&) const override { return value_; }
  void render(std::string& out) const override { value_.render(out); }
  ExprPtr clone() const override {
    return std::make_unique<LiteralExpr>(value_);
  }
  const Value& value() const noexcept { return value_; }

 private:
  Value value_;
};

enum class AttrScope { Default, My, Target };

class AttrRefExpr final : public Expr {
 public:
  AttrRefExpr(AttrScope scope, std::string name)
      : scope_(scope), name_(std::move(name)) {}
  Value evaluate(EvalContext& ctx) const override;
  void render(std::string& out) const override;
  ExprPtr clone() const override {
    return std::make_unique<AttrRefExpr>(scope_, name_);
  }
  const std::string& name() const noexcept { return name_; }
  AttrScope scope() const noexcept { return scope_; }

 private:
  AttrScope scope_;
  std::string name_;
};

enum class UnaryOp { Negate, Not };

class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnaryOp op, ExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}
  Value evaluate(EvalContext& ctx) const override;
  void render(std::string& out) const override;
  ExprPtr clone() const override {
    return std::make_unique<UnaryExpr>(op_, operand_->clone());
  }

 private:
  UnaryOp op_;
  ExprPtr operand_;
};

enum class BinaryOp {
  Add,
  Subtract,
  Multiply,
  Divide,
  Modulus,
  Less,
  LessEq,
  Greater,
  GreaterEq,
  Equal,
  NotEqual,
  MetaEqual,
  MetaNotEqual,
  And,
  Or,
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinaryOp op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Value evaluate(EvalContext& ctx) const override;
  void render(std::string& out) const override;
  ExprPtr clone() const override {
    return std::make_unique<BinaryExpr>(op_, lhs_->clone(), rhs_->clone());
  }

 private:
  BinaryOp op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class TernaryExpr final : public Expr {
 public:
  TernaryExpr(ExprPtr cond, ExprPtr then_e, ExprPtr else_e)
      : cond_(std::move(cond)),
        then_(std::move(then_e)),
        else_(std::move(else_e)) {}
  Value evaluate(EvalContext& ctx) const override;
  void render(std::string& out) const override;
  ExprPtr clone() const override {
    return std::make_unique<TernaryExpr>(cond_->clone(), then_->clone(),
                                         else_->clone());
  }

 private:
  ExprPtr cond_;
  ExprPtr then_;
  ExprPtr else_;
};

class CallExpr final : public Expr {
 public:
  CallExpr(std::string name, std::vector<ExprPtr> args)
      : name_(std::move(name)), args_(std::move(args)) {}
  Value evaluate(EvalContext& ctx) const override;
  void render(std::string& out) const override;
  ExprPtr clone() const override {
    std::vector<ExprPtr> copy;
    copy.reserve(args_.size());
    for (const auto& a : args_) copy.push_back(a->clone());
    return std::make_unique<CallExpr>(name_, std::move(copy));
  }

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

/// Three-state logical interpretation of a value: booleans as themselves,
/// numbers C-style (nonzero is true), strings are ERROR.
Value to_logical(const Value& v);

/// Case-insensitive ASCII string comparison (ClassAd string semantics).
int istrcmp(std::string_view a, std::string_view b);

}  // namespace gridmon::classad
