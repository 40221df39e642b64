#include "gridmon/classad/classad.hpp"

#include <algorithm>

#include "gridmon/classad/parser.hpp"

namespace gridmon::classad {

ClassAd& ClassAd::operator=(const ClassAd& other) {
  if (this == &other) return *this;
  attrs_.clear();
  attrs_.reserve(other.attrs_.size());
  for (const Attr& a : other.attrs_) {
    attrs_.push_back(Attr{a.name, a.expr->clone()});
  }
  index_ = other.index_;
  return *this;
}

ClassAd ClassAd::parse(std::string_view text) {
  ClassAd ad;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? std::string_view::npos
                                           : eol - pos);
    pos = (eol == std::string_view::npos) ? text.size() + 1 : eol + 1;

    // Trim.
    std::size_t b = line.find_first_not_of(" \t\r");
    if (b == std::string_view::npos) continue;
    std::size_t e = line.find_last_not_of(" \t\r");
    line = line.substr(b, e - b + 1);
    if (line.empty() || line.front() == '#') continue;

    // Split on the first '=' that is not part of ==, =?=, =!=, <=, >=, !=.
    std::size_t eq = std::string_view::npos;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] != '=') continue;
      if (i + 1 < line.size() &&
          (line[i + 1] == '=' || line[i + 1] == '?' || line[i + 1] == '!')) {
        ++i;  // skip the operator
        continue;
      }
      if (i > 0 && (line[i - 1] == '=' || line[i - 1] == '<' ||
                    line[i - 1] == '>' || line[i - 1] == '!')) {
        continue;
      }
      eq = i;
      break;
    }
    if (eq == std::string_view::npos) {
      throw ParseError("classad line missing '=': " + std::string(line));
    }
    std::string name(line.substr(0, eq));
    std::size_t ne = name.find_last_not_of(" \t");
    if (ne == std::string::npos) {
      throw ParseError("classad line missing attribute name");
    }
    name.resize(ne + 1);
    ad.insert_text(std::move(name), line.substr(eq + 1));
  }
  return ad;
}

std::size_t ClassAd::slot(std::string_view name) const {
  auto it = std::lower_bound(
      index_.begin(), index_.end(), name,
      [this](std::uint32_t i, std::string_view n) {
        return istrcmp(attrs_[i].name, n) < 0;
      });
  return static_cast<std::size_t>(it - index_.begin());
}

void ClassAd::insert(std::string name, ExprPtr expr) {
  std::size_t s = slot(name);
  if (holds(s, name)) {
    attrs_[index_[s]].expr = std::move(expr);
    return;
  }
  index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(s),
                static_cast<std::uint32_t>(attrs_.size()));
  attrs_.push_back(Attr{std::move(name), std::move(expr)});
}

void ClassAd::insert_text(std::string name, std::string_view expr_text) {
  insert(std::move(name), parse_expression(expr_text));
}

void ClassAd::insert(std::string name, std::int64_t v) {
  insert(std::move(name), std::make_unique<LiteralExpr>(Value::integer(v)));
}
void ClassAd::insert(std::string name, double v) {
  insert(std::move(name), std::make_unique<LiteralExpr>(Value::real(v)));
}
void ClassAd::insert(std::string name, bool v) {
  insert(std::move(name), std::make_unique<LiteralExpr>(Value::boolean(v)));
}
void ClassAd::insert(std::string name, const std::string& v) {
  insert(std::move(name), std::make_unique<LiteralExpr>(Value::string(v)));
}
void ClassAd::insert(std::string name, const char* v) {
  insert(std::move(name), std::make_unique<LiteralExpr>(Value::string(v)));
}

bool ClassAd::erase(const std::string& name) {
  std::size_t s = slot(name);
  if (!holds(s, name)) return false;
  std::uint32_t pos = index_[s];
  index_.erase(index_.begin() + static_cast<std::ptrdiff_t>(s));
  attrs_.erase(attrs_.begin() + pos);
  for (std::uint32_t& i : index_) {
    if (i > pos) --i;
  }
  return true;
}

bool ClassAd::contains(const std::string& name) const {
  return holds(slot(name), name);
}

const Expr* ClassAd::lookup(const std::string& name) const {
  std::size_t s = slot(name);
  return holds(s, name) ? attrs_[index_[s]].expr.get() : nullptr;
}

Value ClassAd::evaluate(const std::string& name, const ClassAd* target,
                        double current_time) const {
  const Expr* e = lookup(name);
  if (e == nullptr) return Value::undefined();
  return evaluate_expr(*e, target, current_time);
}

Value ClassAd::evaluate_expr(const Expr& e, const ClassAd* target,
                             double current_time) const {
  EvalContext ctx;
  ctx.my = this;
  ctx.target = target;
  ctx.current_time = current_time;
  return e.evaluate(ctx);
}

void ClassAd::update(const ClassAd& other) {
  for (const Attr& a : other.attrs_) insert(a.name, a.expr->clone());
}

void ClassAd::update(ClassAd&& other) {
  if (this == &other) return;
  for (Attr& a : other.attrs_) insert(std::move(a.name), std::move(a.expr));
  other.attrs_.clear();
  other.index_.clear();
}

std::vector<std::string> ClassAd::names() const {
  std::vector<std::string> out;
  out.reserve(attrs_.size());
  for (const Attr& a : attrs_) out.push_back(a.name);
  return out;
}

std::string ClassAd::to_string() const {
  std::string out;
  out.reserve(32 * attrs_.size());
  for (const Attr& a : attrs_) {
    out += a.name;
    out += " = ";
    a.expr->render(out);
    out += '\n';
  }
  return out;
}

double ClassAd::wire_bytes() const {
  return static_cast<double>(to_string().size());
}

}  // namespace gridmon::classad
