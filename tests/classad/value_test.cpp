#include "gridmon/classad/value.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "gridmon/classad/classad.hpp"

namespace gridmon::classad {
namespace {

TEST(ValueTest, DefaultIsUndefined) {
  Value v;
  EXPECT_TRUE(v.is_undefined());
  EXPECT_TRUE(v.is_exceptional());
  EXPECT_FALSE(v.is_number());
}

TEST(ValueTest, FactoryTypes) {
  EXPECT_TRUE(Value::error().is_error());
  EXPECT_TRUE(Value::boolean(true).is_boolean());
  EXPECT_TRUE(Value::integer(3).is_integer());
  EXPECT_TRUE(Value::real(3.5).is_real());
  EXPECT_TRUE(Value::string("x").is_string());
  EXPECT_TRUE(Value::integer(3).is_number());
  EXPECT_TRUE(Value::real(3.5).is_number());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value::integer(-7).as_integer(), -7);
  EXPECT_DOUBLE_EQ(Value::real(2.25).as_real(), 2.25);
  EXPECT_EQ(Value::string("abc").as_string(), "abc");
  EXPECT_TRUE(Value::boolean(true).as_boolean());
  EXPECT_DOUBLE_EQ(Value::integer(4).as_number(), 4.0);
  EXPECT_DOUBLE_EQ(Value::real(4.5).as_number(), 4.5);
}

TEST(ValueTest, ToStringLiteralForms) {
  EXPECT_EQ(Value::undefined().to_string(), "UNDEFINED");
  EXPECT_EQ(Value::error().to_string(), "ERROR");
  EXPECT_EQ(Value::boolean(true).to_string(), "TRUE");
  EXPECT_EQ(Value::boolean(false).to_string(), "FALSE");
  EXPECT_EQ(Value::integer(42).to_string(), "42");
  EXPECT_EQ(Value::real(2.0).to_string(), "2.0");
  EXPECT_EQ(Value::string("hi").to_string(), "\"hi\"");
}

TEST(ValueTest, LargeWholeRealsParseBack) {
  for (double d : {999999.0, 1e6, 1234567.0, 2.5e9, -3e7}) {
    std::string text = Value::real(d).to_string();
    ClassAd ad = ClassAd::parse("x = " + text + "\n");
    Value back = ad.evaluate("x");
    ASSERT_TRUE(back.is_real()) << text;
    EXPECT_EQ(back.as_real(), d) << text;
  }
  EXPECT_EQ(Value::real(1234567.0).to_string(), "1234567.0");
  EXPECT_EQ(Value::real(-3e7).to_string(), "-30000000.0");
}

TEST(ValueTest, OtherRealsKeepStreamFormatting) {
  for (double d : {0.25, -0.0, 42.5, 123.456789, 1234567.5, 1e-7, 1e15, 1e16,
                   -2.5e20}) {
    std::ostringstream os;
    os << d;
    if (d == std::floor(d) && std::abs(d) < 1e15) os << ".0";
    EXPECT_EQ(Value::real(d).to_string(), os.str());
  }
}

TEST(ValueTest, StringEscaping) {
  EXPECT_EQ(Value::string("a\"b").to_string(), "\"a\\\"b\"");
  EXPECT_EQ(Value::string("a\\b").to_string(), "\"a\\\\b\"");
}

TEST(ValueTest, StructuralEquality) {
  EXPECT_EQ(Value::integer(3), Value::integer(3));
  EXPECT_FALSE(Value::integer(3) == Value::real(3.0));
  EXPECT_EQ(Value::undefined(), Value::undefined());
  EXPECT_FALSE(Value::string("A") == Value::string("a"));  // case-sensitive
}

}  // namespace
}  // namespace gridmon::classad
