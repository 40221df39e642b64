#include "gridmon/classad/value.hpp"

#include <charconv>
#include <cmath>

namespace gridmon::classad {

void Value::render(std::string& out) const {
  switch (type_) {
    case ValueType::Undefined:
      out += "UNDEFINED";
      return;
    case ValueType::Error:
      out += "ERROR";
      return;
    case ValueType::Boolean:
      out += as_boolean() ? "TRUE" : "FALSE";
      return;
    case ValueType::Integer: {
      char buf[24];
      auto r = std::to_chars(buf, buf + sizeof buf, as_integer());
      out.append(buf, r.ptr);
      return;
    }
    case ValueType::Real: {
      // Whole reals print every integral digit plus ".0", so the literal
      // lexes back as a real: the ostream default (%g, six significant
      // digits) would print 1e6 as "1e+06", and "1e+06.0" does not parse.
      // Everything else keeps the ostream default's bytes.
      double d = as_real();
      bool whole = d == std::floor(d) && std::abs(d) < 1e15;
      char buf[32];
      auto r = whole ? std::to_chars(buf, buf + sizeof buf, d,
                                     std::chars_format::fixed, 0)
                     : std::to_chars(buf, buf + sizeof buf, d,
                                     std::chars_format::general, 6);
      out.append(buf, r.ptr);
      if (whole) out += ".0";
      return;
    }
    case ValueType::String:
      out += '"';
      for (char c : as_string()) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
      }
      out += '"';
      return;
  }
  out += "ERROR";
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) return false;
  return a.data_ == b.data_;
}

}  // namespace gridmon::classad
