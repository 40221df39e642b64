#include "gridmon/ldap/filter.hpp"

#include <gtest/gtest.h>

namespace gridmon::ldap {
namespace {

Entry host_entry() {
  Entry e(Dn::parse("Mds-Host-hn=lucky7.mcs.anl.gov, o=grid"));
  e.add("objectclass", "MdsHost");
  e.add("Mds-Host-hn", "lucky7.mcs.anl.gov");
  e.add("Mds-Cpu-Total-count", "2");
  e.add("Mds-Memory-Ram-Total-sizeMB", "512");
  e.add("Mds-Os-name", "Linux");
  e.add("description", "compute node");
  return e;
}

TEST(FilterTest, EqualityCaseInsensitive) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(Mds-Os-name=linux)")->matches(e));
  EXPECT_TRUE(Filter::parse("(MDS-OS-NAME=LINUX)")->matches(e));
  EXPECT_FALSE(Filter::parse("(Mds-Os-name=solaris)")->matches(e));
}

TEST(FilterTest, Presence) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(description=*)")->matches(e));
  EXPECT_FALSE(Filter::parse("(no-such-attr=*)")->matches(e));
  EXPECT_TRUE(Filter::parse("(objectclass=*)")->matches(e));
}

TEST(FilterTest, NumericOrdering) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(Mds-Cpu-Total-count>=2)")->matches(e));
  EXPECT_FALSE(Filter::parse("(Mds-Cpu-Total-count>=3)")->matches(e));
  EXPECT_TRUE(Filter::parse("(Mds-Memory-Ram-Total-sizeMB<=512)")->matches(e));
  // Numeric, not lexicographic: "512" >= "64".
  EXPECT_TRUE(Filter::parse("(Mds-Memory-Ram-Total-sizeMB>=64)")->matches(e));
}

Entry count_entry(const std::string& count) {
  Entry e(Dn::parse("Mds-Host-hn=h, o=grid"));
  e.add("Mds-Cpu-Total-count", count);
  return e;
}

bool matches(const char* filter, const Entry& e) {
  return Filter::parse(filter)->matches(e);
}

TEST(FilterTest, NanFilterValueComparesAsString) {
  auto e = count_entry("4");
  // As strings "4" sorts before "nan": no numeric NaN match-everything.
  EXPECT_FALSE(matches("(Mds-Cpu-Total-count=nan)", e));
  EXPECT_FALSE(matches("(Mds-Cpu-Total-count>=nan)", e));
  EXPECT_TRUE(matches("(Mds-Cpu-Total-count<=NaN)", e));
  EXPECT_FALSE(matches("(Mds-Cpu-Total-count<=NaN)", count_entry("zz")));
}

TEST(FilterTest, NanEntryValueComparesAsString) {
  auto e = count_entry("NaN");
  EXPECT_FALSE(matches("(Mds-Cpu-Total-count=4)", e));
  EXPECT_FALSE(matches("(Mds-Cpu-Total-count<=0)", e));
  // "nan" sorts after "100" as a string.
  EXPECT_TRUE(matches("(Mds-Cpu-Total-count>=100)", e));
  EXPECT_FALSE(matches("(Mds-Cpu-Total-count>=zzz)", e));
  EXPECT_TRUE(matches("(Mds-Cpu-Total-count=nan)", e));
}

TEST(FilterTest, HexIsNotANumber) {
  auto e = count_entry("4");
  EXPECT_FALSE(matches("(Mds-Cpu-Total-count=0x4)", e));
  EXPECT_FALSE(matches("(Mds-Cpu-Total-count=0X4)", e));
  EXPECT_TRUE(matches("(Mds-Cpu-Total-count=0x4)", count_entry("0X4")));
  EXPECT_FALSE(matches("(Mds-Cpu-Total-count=4)", count_entry("0x4")));
}

TEST(FilterTest, InfinityIsNotANumber) {
  auto e = count_entry("-inf");
  // Numerically -inf < -1; as strings "-inf" > "-1".
  EXPECT_TRUE(matches("(Mds-Cpu-Total-count>=-1)", e));
  EXPECT_FALSE(matches("(Mds-Cpu-Total-count=-infinity)", e));
  // Decimals that overflow to infinity are strings too: no inf == inf.
  EXPECT_FALSE(matches("(Mds-Cpu-Total-count=2e999)", count_entry("1e999")));
}

TEST(FilterTest, DecimalFormsStayNumeric) {
  auto e = count_entry("4");
  for (const char* f :
       {"(Mds-Cpu-Total-count=4.0)", "(Mds-Cpu-Total-count=+4)",
        "(Mds-Cpu-Total-count=4e0)", "(Mds-Cpu-Total-count=.4E1)",
        "(Mds-Cpu-Total-count= 4)", "(Mds-Cpu-Total-count=004)",
        "(Mds-Cpu-Total-count>=-4.5)", "(Mds-Cpu-Total-count<=10)"}) {
    EXPECT_TRUE(matches(f, e)) << f;
  }
  EXPECT_TRUE(matches("(Mds-Cpu-Total-count=4)", count_entry("4.")));
  EXPECT_TRUE(matches("(Mds-Cpu-Total-count>=1e-999)", count_entry("0.1")));
}

TEST(FilterTest, LexicographicOrderingForNonNumbers) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(Mds-Os-name>=lin)")->matches(e));
  EXPECT_FALSE(Filter::parse("(Mds-Os-name<=abc)")->matches(e));
}

TEST(FilterTest, SubstringForms) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(Mds-Host-hn=lucky*)")->matches(e));
  EXPECT_TRUE(Filter::parse("(Mds-Host-hn=*anl.gov)")->matches(e));
  EXPECT_TRUE(Filter::parse("(Mds-Host-hn=*mcs*)")->matches(e));
  EXPECT_TRUE(Filter::parse("(Mds-Host-hn=lucky*anl*)")->matches(e));
  EXPECT_TRUE(Filter::parse("(Mds-Host-hn=lucky*mcs*gov)")->matches(e));
  EXPECT_FALSE(Filter::parse("(Mds-Host-hn=happy*)")->matches(e));
  EXPECT_FALSE(Filter::parse("(Mds-Host-hn=*edu)")->matches(e));
}

TEST(FilterTest, SubstringOrderMatters) {
  Entry e(Dn::parse("cn=x"));
  e.add("v", "abcdef");
  EXPECT_TRUE(Filter::parse("(v=*bc*de*)")->matches(e));
  EXPECT_FALSE(Filter::parse("(v=*de*bc*)")->matches(e));
}

TEST(FilterTest, AndOrNot) {
  auto e = host_entry();
  EXPECT_TRUE(
      Filter::parse("(&(objectclass=MdsHost)(Mds-Os-name=linux))")->matches(e));
  EXPECT_FALSE(
      Filter::parse("(&(objectclass=MdsHost)(Mds-Os-name=aix))")->matches(e));
  EXPECT_TRUE(
      Filter::parse("(|(Mds-Os-name=aix)(Mds-Os-name=linux))")->matches(e));
  EXPECT_TRUE(Filter::parse("(!(Mds-Os-name=aix))")->matches(e));
  EXPECT_FALSE(Filter::parse("(!(Mds-Os-name=linux))")->matches(e));
}

TEST(FilterTest, NestedComposition) {
  auto e = host_entry();
  auto f = Filter::parse(
      "(&(objectclass=MdsHost)"
      "(|(Mds-Cpu-Total-count>=4)(Mds-Memory-Ram-Total-sizeMB>=256))"
      "(!(Mds-Os-name=windows)))");
  EXPECT_TRUE(f->matches(e));
}

TEST(FilterTest, ApproxTreatedAsEquality) {
  auto e = host_entry();
  EXPECT_TRUE(Filter::parse("(Mds-Os-name~=linux)")->matches(e));
}

TEST(FilterTest, MultiValuedAttributeAnyValueMatches) {
  Entry e(Dn::parse("cn=multi"));
  e.add("member", "alice");
  e.add("member", "bob");
  EXPECT_TRUE(Filter::parse("(member=bob)")->matches(e));
  EXPECT_FALSE(Filter::parse("(member=carol)")->matches(e));
}

TEST(FilterTest, ToStringRoundTrip) {
  const char* filters[] = {
      "(objectclass=*)",
      "(&(a=1)(b=2))",
      "(|(a=1)(!(b=2)))",
      "(cn=lucky*anl*gov)",
      "(x>=10)",
      "(y<=20)",
  };
  for (const char* text : filters) {
    auto f1 = Filter::parse(text);
    auto f2 = Filter::parse(f1->to_string());
    EXPECT_EQ(f1->to_string(), f2->to_string()) << text;
  }
}

TEST(FilterTest, ParseErrors) {
  EXPECT_THROW(Filter::parse("no-parens"), FilterError);
  EXPECT_THROW(Filter::parse("(unclosed"), FilterError);
  EXPECT_THROW(Filter::parse("(&)"), FilterError);
  EXPECT_THROW(Filter::parse("(a=1)(b=2)"), FilterError);
  EXPECT_THROW(Filter::parse("(=value)"), FilterError);
  EXPECT_THROW(Filter::parse("(attr=)"), FilterError);
  EXPECT_THROW(Filter::parse("(attr)"), FilterError);
}

TEST(FilterTest, MatchAllMatchesAnything) {
  Entry bare(Dn::parse("cn=bare"));
  EXPECT_TRUE(Filter::match_all()->matches(bare));
}

}  // namespace
}  // namespace gridmon::ldap
