#include "gridmon/classad/parser.hpp"

#include "gridmon/ascii.hpp"

namespace gridmon::classad {
namespace {

bool iequals(const std::string& a, const char* b) {
  std::size_t i = 0;
  for (; i < a.size() && b[i] != '\0'; ++i) {
    if (ascii::to_lower(a[i]) != ascii::to_lower(b[i])) return false;
  }
  return i == a.size() && b[i] == '\0';
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  ExprPtr parse() {
    ExprPtr e = expression();
    expect(TokenKind::End, "trailing input after expression");
    return e;
  }

 private:
  const Token& peek() const { return tokens_[pos_]; }
  const Token& advance() { return tokens_[pos_++]; }
  bool check(TokenKind k) const { return peek().kind == k; }
  bool match(TokenKind k) {
    if (check(k)) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(TokenKind k, const char* what) {
    if (!match(k)) {
      throw ParseError(std::string("expected ") + what + " near offset " +
                       std::to_string(peek().offset));
    }
  }

  ExprPtr expression() {
    ExprPtr cond = or_expr();
    if (match(TokenKind::Question)) {
      ExprPtr then_e = expression();
      expect(TokenKind::Colon, "':' in conditional");
      ExprPtr else_e = expression();
      return std::make_unique<TernaryExpr>(std::move(cond), std::move(then_e),
                                           std::move(else_e));
    }
    return cond;
  }

  ExprPtr or_expr() {
    ExprPtr lhs = and_expr();
    while (match(TokenKind::Or)) {
      lhs = std::make_unique<BinaryExpr>(BinaryOp::Or, std::move(lhs),
                                         and_expr());
    }
    return lhs;
  }

  ExprPtr and_expr() {
    ExprPtr lhs = cmp_expr();
    while (match(TokenKind::And)) {
      lhs = std::make_unique<BinaryExpr>(BinaryOp::And, std::move(lhs),
                                         cmp_expr());
    }
    return lhs;
  }

  ExprPtr cmp_expr() {
    ExprPtr lhs = add_expr();
    for (;;) {
      BinaryOp op;
      switch (peek().kind) {
        case TokenKind::Less:
          op = BinaryOp::Less;
          break;
        case TokenKind::LessEq:
          op = BinaryOp::LessEq;
          break;
        case TokenKind::Greater:
          op = BinaryOp::Greater;
          break;
        case TokenKind::GreaterEq:
          op = BinaryOp::GreaterEq;
          break;
        case TokenKind::Equal:
          op = BinaryOp::Equal;
          break;
        case TokenKind::NotEqual:
          op = BinaryOp::NotEqual;
          break;
        case TokenKind::MetaEqual:
          op = BinaryOp::MetaEqual;
          break;
        case TokenKind::MetaNotEqual:
          op = BinaryOp::MetaNotEqual;
          break;
        default:
          return lhs;
      }
      advance();
      lhs = std::make_unique<BinaryExpr>(op, std::move(lhs), add_expr());
    }
  }

  ExprPtr add_expr() {
    ExprPtr lhs = mul_expr();
    for (;;) {
      if (match(TokenKind::Plus)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Add, std::move(lhs),
                                           mul_expr());
      } else if (match(TokenKind::Minus)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Subtract, std::move(lhs),
                                           mul_expr());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr mul_expr() {
    ExprPtr lhs = unary();
    for (;;) {
      if (match(TokenKind::Star)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Multiply, std::move(lhs),
                                           unary());
      } else if (match(TokenKind::Slash)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Divide, std::move(lhs),
                                           unary());
      } else if (match(TokenKind::Percent)) {
        lhs = std::make_unique<BinaryExpr>(BinaryOp::Modulus, std::move(lhs),
                                           unary());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr unary() {
    if (match(TokenKind::Minus)) {
      return std::make_unique<UnaryExpr>(UnaryOp::Negate, unary());
    }
    if (match(TokenKind::Not)) {
      return std::make_unique<UnaryExpr>(UnaryOp::Not, unary());
    }
    if (match(TokenKind::Plus)) return unary();
    return primary();
  }

  ExprPtr primary() {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::IntegerLiteral:
        advance();
        return std::make_unique<LiteralExpr>(Value::integer(t.int_value));
      case TokenKind::RealLiteral:
        advance();
        return std::make_unique<LiteralExpr>(Value::real(t.real_value));
      case TokenKind::StringLiteral:
        advance();
        return std::make_unique<LiteralExpr>(Value::string(t.text));
      case TokenKind::LParen: {
        advance();
        ExprPtr e = expression();
        expect(TokenKind::RParen, "')'");
        return e;
      }
      case TokenKind::Identifier:
        return identifier();
      default:
        throw ParseError("unexpected token near offset " +
                         std::to_string(t.offset));
    }
  }

  ExprPtr identifier() {
    Token t = advance();
    if (iequals(t.text, "true")) {
      return std::make_unique<LiteralExpr>(Value::boolean(true));
    }
    if (iequals(t.text, "false")) {
      return std::make_unique<LiteralExpr>(Value::boolean(false));
    }
    if (iequals(t.text, "undefined")) {
      return std::make_unique<LiteralExpr>(Value::undefined());
    }
    if (iequals(t.text, "error")) {
      return std::make_unique<LiteralExpr>(Value::error());
    }
    if ((iequals(t.text, "my") || iequals(t.text, "target")) &&
        check(TokenKind::Dot)) {
      advance();  // '.'
      if (!check(TokenKind::Identifier)) {
        throw ParseError("expected attribute name after scope qualifier");
      }
      Token attr = advance();
      AttrScope scope =
          iequals(t.text, "my") ? AttrScope::My : AttrScope::Target;
      return std::make_unique<AttrRefExpr>(scope, attr.text);
    }
    if (check(TokenKind::LParen)) {
      advance();
      std::vector<ExprPtr> args;
      if (!check(TokenKind::RParen)) {
        args.push_back(expression());
        while (match(TokenKind::Comma)) args.push_back(expression());
      }
      expect(TokenKind::RParen, "')' after arguments");
      return std::make_unique<CallExpr>(t.text, std::move(args));
    }
    return std::make_unique<AttrRefExpr>(AttrScope::Default, t.text);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

ExprPtr parse_expression(std::string_view input) {
  Parser parser(lex(input));
  return parser.parse();
}

}  // namespace gridmon::classad
