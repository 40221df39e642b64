#pragma once

/// \file filter.hpp
/// LDAP search filters per RFC 1960 (the string representation used by the
/// ldapsearch tooling the paper's user scripts drove):
///
///   (&(objectclass=MdsHost)(Mds-Host-hn=lucky*))
///   (|(cpu>=4)(!(os=linux)))
///   (description=*)
///
/// Supported item types: equality, presence, substring (initial/any/final),
/// >=, <=, ~= (treated as equality). Attribute names are folded to
/// lowercase. Values compare case-insensitively; comparisons go numeric
/// when both sides are finite decimal numbers.

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "gridmon/ldap/entry.hpp"

namespace gridmon::ldap {

class FilterError : public std::runtime_error {
 public:
  explicit FilterError(const std::string& msg) : std::runtime_error(msg) {}
};

class Filter;
using FilterPtr = std::unique_ptr<Filter>;

class Filter {
 public:
  virtual ~Filter() = default;
  virtual bool matches(const Entry& e) const = 0;
  /// Filter text that parse() turns back into this filter; Dit keys its
  /// search memo on it, so two filters may render alike only if they
  /// match alike.
  virtual std::string to_string() const = 0;

  /// Parse an RFC 1960 filter string. Throws FilterError on bad syntax.
  static FilterPtr parse(std::string_view text);

  /// The match-everything filter "(objectclass=*)".
  static FilterPtr match_all();
};

class AndFilter final : public Filter {
 public:
  explicit AndFilter(std::vector<FilterPtr> children)
      : children_(std::move(children)) {}
  bool matches(const Entry& e) const override;
  std::string to_string() const override;

 private:
  std::vector<FilterPtr> children_;
};

class OrFilter final : public Filter {
 public:
  explicit OrFilter(std::vector<FilterPtr> children)
      : children_(std::move(children)) {}
  bool matches(const Entry& e) const override;
  std::string to_string() const override;

 private:
  std::vector<FilterPtr> children_;
};

class NotFilter final : public Filter {
 public:
  explicit NotFilter(FilterPtr child) : child_(std::move(child)) {}
  bool matches(const Entry& e) const override;
  std::string to_string() const override;

 private:
  FilterPtr child_;
};

class PresenceFilter final : public Filter {
 public:
  explicit PresenceFilter(std::string attr);
  bool matches(const Entry& e) const override;
  std::string to_string() const override;

 private:
  std::string attr_;
};

enum class CompareOp { Equal, GreaterEq, LessEq, Approx };

class CompareFilter final : public Filter {
 public:
  CompareFilter(std::string attr, CompareOp op, std::string value);
  bool matches(const Entry& e) const override;
  std::string to_string() const override;

 private:
  std::string attr_;
  CompareOp op_;
  std::string value_;
  std::optional<double> number_;  // value_ as a number, parsed once
};

/// attr=initial*any*any*final — any component may be empty.
class SubstringFilter final : public Filter {
 public:
  SubstringFilter(std::string attr, std::string initial,
                  std::vector<std::string> any, std::string final_part);
  bool matches(const Entry& e) const override;
  std::string to_string() const override;

 private:
  std::string attr_;
  std::string initial_;
  std::vector<std::string> any_;
  std::string final_;
  // Lowercased copies of the components, so matches() compares in place
  // instead of building lowered strings per candidate value.
  std::string initial_lc_;
  std::vector<std::string> any_lc_;
  std::string final_lc_;
};

}  // namespace gridmon::ldap
