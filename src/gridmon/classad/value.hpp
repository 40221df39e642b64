#pragma once

/// \file value.hpp
/// ClassAd runtime values with the classic four-valued logic: booleans,
/// numbers and strings plus the UNDEFINED and ERROR sentinels that drive
/// Condor matchmaking semantics.

#include <cstdint>
#include <string>
#include <variant>

namespace gridmon::classad {

enum class ValueType { Undefined, Error, Boolean, Integer, Real, String };

class Value {
 public:
  Value() : type_(ValueType::Undefined) {}

  static Value undefined() { return Value(); }
  static Value error() {
    Value v;
    v.type_ = ValueType::Error;
    return v;
  }
  static Value boolean(bool b) {
    Value v;
    v.type_ = ValueType::Boolean;
    v.data_ = b;
    return v;
  }
  static Value integer(std::int64_t i) {
    Value v;
    v.type_ = ValueType::Integer;
    v.data_ = i;
    return v;
  }
  static Value real(double d) {
    Value v;
    v.type_ = ValueType::Real;
    v.data_ = d;
    return v;
  }
  static Value string(std::string s) {
    Value v;
    v.type_ = ValueType::String;
    v.data_ = std::move(s);
    return v;
  }

  ValueType type() const noexcept { return type_; }
  bool is_undefined() const noexcept { return type_ == ValueType::Undefined; }
  bool is_error() const noexcept { return type_ == ValueType::Error; }
  bool is_boolean() const noexcept { return type_ == ValueType::Boolean; }
  bool is_integer() const noexcept { return type_ == ValueType::Integer; }
  bool is_real() const noexcept { return type_ == ValueType::Real; }
  bool is_string() const noexcept { return type_ == ValueType::String; }
  bool is_number() const noexcept { return is_integer() || is_real(); }
  /// UNDEFINED or ERROR — the "exceptional" values that propagate.
  bool is_exceptional() const noexcept { return is_undefined() || is_error(); }

  bool as_boolean() const { return std::get<bool>(data_); }
  std::int64_t as_integer() const { return std::get<std::int64_t>(data_); }
  double as_real() const { return std::get<double>(data_); }
  const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Numeric coercion (integer widens to double). Precondition: is_number().
  double as_number() const {
    return is_integer() ? static_cast<double>(as_integer()) : as_real();
  }

  /// Append this value in ClassAd literal syntax to `out`.
  void render(std::string& out) const;
  std::string to_string() const {
    std::string out;
    render(out);
    return out;
  }

  /// Structural equality (exact: type and payload; strings case-sensitive).
  /// This is NOT ClassAd `==` — see eval's compare ops for that.
  friend bool operator==(const Value& a, const Value& b);

 private:
  ValueType type_;
  std::variant<std::monostate, bool, std::int64_t, double, std::string> data_;
};

}  // namespace gridmon::classad
