#pragma once

/// \file classad.hpp
/// The ClassAd itself: an ordered, case-insensitive map from attribute
/// names to expressions, with old-syntax ("Attr = expr" per line) parsing
/// and printing.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gridmon/classad/expr.hpp"
#include "gridmon/classad/value.hpp"

namespace gridmon::classad {

class ClassAd {
 public:
  ClassAd() = default;
  ClassAd(const ClassAd& other) { *this = other; }
  ClassAd& operator=(const ClassAd& other);
  ClassAd(ClassAd&&) noexcept = default;
  ClassAd& operator=(ClassAd&&) noexcept = default;

  /// Parse an old-syntax ad: one `Attr = expr` per line. Blank lines and
  /// lines starting with '#' are skipped. Throws on malformed input.
  static ClassAd parse(std::string_view text);

  /// Insert (or replace) an attribute with an already-built expression.
  /// A replaced attribute keeps its first spelling and its position.
  void insert(std::string name, ExprPtr expr);
  /// Insert (or replace) an attribute parsed from expression text.
  void insert_text(std::string name, std::string_view expr_text);
  /// Shorthands for literal values.
  void insert(std::string name, std::int64_t v);
  void insert(std::string name, double v);
  void insert(std::string name, bool v);
  void insert(std::string name, const std::string& v);
  void insert(std::string name, const char* v);

  bool erase(const std::string& name);
  bool contains(const std::string& name) const;
  std::size_t size() const noexcept { return attrs_.size(); }
  bool empty() const noexcept { return attrs_.empty(); }

  /// The raw expression bound to `name`, or nullptr.
  const Expr* lookup(const std::string& name) const;

  /// Evaluate attribute `name` with this ad as MY and an optional TARGET.
  Value evaluate(const std::string& name, const ClassAd* target = nullptr,
                 double current_time = 0) const;

  /// Evaluate an arbitrary expression in this ad's scope.
  Value evaluate_expr(const Expr& e, const ClassAd* target = nullptr,
                      double current_time = 0) const;

  /// Merge: copy every attribute of `other` into this ad (overwriting).
  void update(const ClassAd& other);
  /// Merge by moving `other`'s attributes in; `other` is left empty.
  void update(ClassAd&& other);

  /// Attribute names in insertion order.
  std::vector<std::string> names() const;

  /// Old-syntax rendering, one attribute per line, insertion order.
  std::string to_string() const;

  /// Approximate wire size in bytes when shipped between daemons.
  double wire_bytes() const;

 private:
  struct Attr {
    std::string name;
    ExprPtr expr;
  };

  /// The first slot of index_ whose name does not sort before `name`.
  std::size_t slot(std::string_view name) const;
  /// Whether index_[s] exists and names `name`.
  bool holds(std::size_t s, std::string_view name) const {
    return s < index_.size() && istrcmp(attrs_[index_[s]].name, name) == 0;
  }

  // Attributes in insertion order, plus their positions in attrs_ sorted
  // case-insensitively by name for lookup.
  std::vector<Attr> attrs_;
  std::vector<std::uint32_t> index_;
};

}  // namespace gridmon::classad
