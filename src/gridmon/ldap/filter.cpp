#include "gridmon/ldap/filter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "gridmon/ascii.hpp"

namespace gridmon::ldap {
namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), ascii::to_lower);
  return out;
}

/// `s` as a number when it is a finite decimal one in any form strtod
/// reads (leading white space, sign, fraction, exponent). strtod also
/// reads "nan", "inf" and hexadecimal; those stay strings, as does a
/// decimal that overflows to infinity.
std::optional<double> as_number(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() && ascii::is_space(s[i])) ++i;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
  if (i == s.size() || !(ascii::is_digit(s[i]) || s[i] == '.')) {
    return std::nullopt;
  }
  if (s[i] == '0' && i + 1 < s.size() && ascii::to_lower(s[i + 1]) == 'x') {
    return std::nullopt;
  }
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || !std::isfinite(v)) return std::nullopt;
  return v;
}

/// Case-insensitive three-way comparison of `a` against `b`, numeric when
/// both are numbers (`nb` is `b` parsed by as_number). The character loop
/// has the same sign as comparing lowercased copies (std::string compares
/// bytes as unsigned char) without allocating them.
int compare_values(const std::string& a, const std::string& b,
                   const std::optional<double>& nb) {
  if (nb) {
    if (auto na = as_number(a)) {
      if (*na < *nb) return -1;
      if (*na > *nb) return 1;
      return 0;
    }
  }
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    auto ca = static_cast<unsigned char>(ascii::to_lower(a[i]));
    auto cb = static_cast<unsigned char>(ascii::to_lower(b[i]));
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// v.find(needle, pos) on the lowercased strings, without building them.
/// `needle` must already be lowercase.
std::size_t ci_find(const std::string& v, const std::string& needle,
                    std::size_t pos) {
  if (needle.empty()) return pos <= v.size() ? pos : std::string::npos;
  if (needle.size() > v.size()) return std::string::npos;
  for (; pos + needle.size() <= v.size(); ++pos) {
    std::size_t i = 0;
    while (i < needle.size() && ascii::to_lower(v[pos + i]) == needle[i]) {
      ++i;
    }
    if (i == needle.size()) return pos;
  }
  return std::string::npos;
}

/// v.compare(pos, needle.size(), needle) == 0 on the lowercased strings.
/// `needle` must already be lowercase and pos + needle.size() <= v.size().
bool ci_equal_at(const std::string& v, std::size_t pos,
                 const std::string& needle) {
  for (std::size_t i = 0; i < needle.size(); ++i) {
    if (ascii::to_lower(v[pos + i]) != needle[i]) return false;
  }
  return true;
}

class FilterParser {
 public:
  explicit FilterParser(std::string_view text) : text_(text) {}

  FilterPtr parse() {
    skip_ws();
    FilterPtr f = filter();
    skip_ws();
    if (pos_ != text_.size()) {
      throw FilterError("trailing characters after filter");
    }
    return f;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && ascii::is_space(text_[pos_])) ++pos_;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c) {
      throw FilterError(std::string("expected '") + c + "' at position " +
                        std::to_string(pos_));
    }
    ++pos_;
  }

  FilterPtr filter() {
    expect('(');
    FilterPtr f;
    switch (peek()) {
      case '&':
        ++pos_;
        f = std::make_unique<AndFilter>(filter_list());
        break;
      case '|':
        ++pos_;
        f = std::make_unique<OrFilter>(filter_list());
        break;
      case '!':
        ++pos_;
        f = std::make_unique<NotFilter>(filter());
        break;
      default:
        f = item();
    }
    expect(')');
    return f;
  }

  std::vector<FilterPtr> filter_list() {
    std::vector<FilterPtr> children;
    while (peek() == '(') children.push_back(filter());
    if (children.empty()) {
      throw FilterError("empty filter list for &/| at position " +
                        std::to_string(pos_));
    }
    return children;
  }

  FilterPtr item() {
    std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '=' && text_[pos_] != '>' &&
           text_[pos_] != '<' && text_[pos_] != '~' && text_[pos_] != ')') {
      ++pos_;
    }
    if (pos_ == start) throw FilterError("missing attribute name");
    std::string attr(text_.substr(start, pos_ - start));

    CompareOp op = CompareOp::Equal;
    switch (peek()) {
      case '>':
        ++pos_;
        expect('=');
        op = CompareOp::GreaterEq;
        break;
      case '<':
        ++pos_;
        expect('=');
        op = CompareOp::LessEq;
        break;
      case '~':
        ++pos_;
        expect('=');
        op = CompareOp::Approx;
        break;
      case '=':
        ++pos_;
        break;
      default:
        throw FilterError("missing comparison operator");
    }

    // Scan the value up to the closing ')'.
    std::size_t vstart = pos_;
    while (pos_ < text_.size() && text_[pos_] != ')') ++pos_;
    std::string value(text_.substr(vstart, pos_ - vstart));

    if (op == CompareOp::Equal && value.find('*') != std::string::npos) {
      if (value == "*") return std::make_unique<PresenceFilter>(attr);
      // Split on '*' into initial / any... / final.
      std::vector<std::string> parts;
      std::size_t p = 0;
      for (;;) {
        std::size_t star = value.find('*', p);
        if (star == std::string::npos) {
          parts.push_back(value.substr(p));
          break;
        }
        parts.push_back(value.substr(p, star - p));
        p = star + 1;
      }
      std::string initial = parts.front();
      std::string final_part = parts.back();
      std::vector<std::string> any(parts.begin() + 1, parts.end() - 1);
      // Drop empty "any" components ("a**b" behaves as "a*b").
      std::erase_if(any, [](const std::string& s) { return s.empty(); });
      return std::make_unique<SubstringFilter>(attr, std::move(initial),
                                               std::move(any),
                                               std::move(final_part));
    }
    if (value.empty()) throw FilterError("missing value for " + attr);
    return std::make_unique<CompareFilter>(attr, op, std::move(value));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

FilterPtr Filter::parse(std::string_view text) {
  return FilterParser(text).parse();
}

FilterPtr Filter::match_all() { return parse("(objectclass=*)"); }

bool AndFilter::matches(const Entry& e) const {
  for (const auto& c : children_) {
    if (!c->matches(e)) return false;
  }
  return true;
}

std::string AndFilter::to_string() const {
  std::string out = "(&";
  for (const auto& c : children_) out += c->to_string();
  return out + ")";
}

bool OrFilter::matches(const Entry& e) const {
  for (const auto& c : children_) {
    if (c->matches(e)) return true;
  }
  return false;
}

std::string OrFilter::to_string() const {
  std::string out = "(|";
  for (const auto& c : children_) out += c->to_string();
  return out + ")";
}

bool NotFilter::matches(const Entry& e) const { return !child_->matches(e); }

std::string NotFilter::to_string() const {
  return "(!" + child_->to_string() + ")";
}

PresenceFilter::PresenceFilter(std::string attr) : attr_(to_lower(attr)) {}

bool PresenceFilter::matches(const Entry& e) const {
  if (attr_ == "objectclass") return true;  // every entry has a class
  return !e.values_lc(attr_).empty();
}

std::string PresenceFilter::to_string() const {
  return "(" + attr_ + "=*)";
}

CompareFilter::CompareFilter(std::string attr, CompareOp op, std::string value)
    : attr_(to_lower(attr)),
      op_(op),
      value_(std::move(value)),
      number_(as_number(value_)) {}

bool CompareFilter::matches(const Entry& e) const {
  for (const auto& v : e.values_lc(attr_)) {
    int cmp = compare_values(v, value_, number_);
    switch (op_) {
      case CompareOp::Equal:
      case CompareOp::Approx:
        if (cmp == 0) return true;
        break;
      case CompareOp::GreaterEq:
        if (cmp >= 0) return true;
        break;
      case CompareOp::LessEq:
        if (cmp <= 0) return true;
        break;
    }
  }
  return false;
}

std::string CompareFilter::to_string() const {
  const char* op = op_ == CompareOp::GreaterEq ? ">="
                   : op_ == CompareOp::LessEq  ? "<="
                   : op_ == CompareOp::Approx  ? "~="
                                               : "=";
  return "(" + attr_ + op + value_ + ")";
}

SubstringFilter::SubstringFilter(std::string attr, std::string initial,
                                 std::vector<std::string> any,
                                 std::string final_part)
    : attr_(to_lower(attr)),
      initial_(std::move(initial)),
      any_(std::move(any)),
      final_(std::move(final_part)),
      initial_lc_(to_lower(initial_)),
      final_lc_(to_lower(final_)) {
  any_lc_.reserve(any_.size());
  for (const auto& part : any_) any_lc_.push_back(to_lower(part));
}

bool SubstringFilter::matches(const Entry& e) const {
  for (const auto& v : e.values_lc(attr_)) {
    std::size_t pos = 0;
    if (!initial_lc_.empty()) {
      if (v.size() < initial_lc_.size() || !ci_equal_at(v, 0, initial_lc_)) {
        continue;
      }
      pos = initial_lc_.size();
    }
    bool ok = true;
    for (const auto& want : any_lc_) {
      std::size_t found = ci_find(v, want, pos);
      if (found == std::string::npos) {
        ok = false;
        break;
      }
      pos = found + want.size();
    }
    if (!ok) continue;
    if (!final_lc_.empty()) {
      if (v.size() < pos + final_lc_.size()) continue;
      if (!ci_equal_at(v, v.size() - final_lc_.size(), final_lc_)) continue;
      // The final segment must not overlap the part already consumed.
      if (v.size() - final_lc_.size() < pos) continue;
    }
    return true;
  }
  return false;
}

std::string SubstringFilter::to_string() const {
  // With every component empty, "(x=*)" would re-parse as a presence
  // filter; "(x=**)" re-parses to this one.
  if (initial_.empty() && any_.empty() && final_.empty()) {
    return "(" + attr_ + "=**)";
  }
  std::string out = "(" + attr_ + "=" + initial_ + "*";
  for (const auto& a : any_) {
    out += a;
    out += '*';
  }
  return out + final_ + ")";
}

}  // namespace gridmon::ldap
