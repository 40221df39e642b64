#include "gridmon/classad/classad.hpp"

#include <gtest/gtest.h>

#include "gridmon/classad/parser.hpp"
#include "gridmon/hawkeye/module.hpp"

namespace gridmon::classad {
namespace {

TEST(ClassAdTest, ParseOldSyntax) {
  auto ad = ClassAd::parse(
      "MyType = \"Machine\"\n"
      "OpSys = \"LINUX\"\n"
      "Memory = 512\n"
      "CpuLoad = 0.25\n"
      "# a comment line\n"
      "\n"
      "Requirements = CpuLoad < 0.5\n");
  EXPECT_EQ(ad.size(), 5u);
  EXPECT_EQ(ad.evaluate("OpSys").as_string(), "LINUX");
  EXPECT_EQ(ad.evaluate("Memory").as_integer(), 512);
  EXPECT_TRUE(ad.evaluate("Requirements").as_boolean());
}

TEST(ClassAdTest, ParseHandlesComparisonOperatorsOnRhs) {
  auto ad = ClassAd::parse("R = a == 3\nS = b <= 2\nT = c =?= UNDEFINED\n");
  EXPECT_TRUE(ad.contains("R"));
  EXPECT_TRUE(ad.contains("S"));
  EXPECT_TRUE(ad.evaluate("T").as_boolean());  // c is undefined
}

TEST(ClassAdTest, MissingAttributeIsUndefined) {
  ClassAd ad;
  EXPECT_TRUE(ad.evaluate("nope").is_undefined());
  EXPECT_EQ(ad.lookup("nope"), nullptr);
}

TEST(ClassAdTest, InsertShorthands) {
  ClassAd ad;
  ad.insert("i", static_cast<std::int64_t>(4));
  ad.insert("d", 2.5);
  ad.insert("b", true);
  ad.insert("s", "str");
  EXPECT_EQ(ad.evaluate("i").as_integer(), 4);
  EXPECT_DOUBLE_EQ(ad.evaluate("d").as_real(), 2.5);
  EXPECT_TRUE(ad.evaluate("b").as_boolean());
  EXPECT_EQ(ad.evaluate("s").as_string(), "str");
}

TEST(ClassAdTest, CaseInsensitiveNames) {
  ClassAd ad;
  ad.insert("OpSys", "LINUX");
  EXPECT_TRUE(ad.contains("opsys"));
  EXPECT_TRUE(ad.contains("OPSYS"));
  ad.insert("opsys", "SOLARIS");  // replaces, does not duplicate
  EXPECT_EQ(ad.size(), 1u);
  EXPECT_EQ(ad.evaluate("OpSys").as_string(), "SOLARIS");
}

TEST(ClassAdTest, EraseRemovesAttribute) {
  ClassAd ad;
  ad.insert("a", static_cast<std::int64_t>(1));
  ad.insert("b", static_cast<std::int64_t>(2));
  EXPECT_TRUE(ad.erase("A"));
  EXPECT_FALSE(ad.erase("A"));
  EXPECT_EQ(ad.size(), 1u);
  EXPECT_EQ(ad.names(), std::vector<std::string>{"b"});
}

TEST(ClassAdTest, UpdateMergesAndOverwrites) {
  ClassAd base, overlay;
  base.insert("a", static_cast<std::int64_t>(1));
  base.insert("b", static_cast<std::int64_t>(2));
  overlay.insert("b", static_cast<std::int64_t>(20));
  overlay.insert("c", static_cast<std::int64_t>(30));
  base.update(overlay);
  EXPECT_EQ(base.size(), 3u);
  EXPECT_EQ(base.evaluate("b").as_integer(), 20);
  EXPECT_EQ(base.evaluate("c").as_integer(), 30);
}

TEST(ClassAdTest, CopyIsDeep) {
  ClassAd a;
  a.insert_text("x", "y + 1");
  a.insert("y", static_cast<std::int64_t>(1));
  ClassAd b = a;
  b.insert("y", static_cast<std::int64_t>(100));
  EXPECT_EQ(a.evaluate("x").as_integer(), 2);
  EXPECT_EQ(b.evaluate("x").as_integer(), 101);
}

TEST(ClassAdTest, ToStringParsesBack) {
  auto ad = ClassAd::parse(
      "Name = \"lucky4\"\n"
      "Requirements = TARGET.CpuLoad > 50 && OpSys == \"LINUX\"\n"
      "Rank = Memory\n");
  auto round = ClassAd::parse(ad.to_string());
  EXPECT_EQ(ad.to_string(), round.to_string());
}

TEST(ClassAdTest, WireBytesGrowsWithContent) {
  ClassAd small, big;
  small.insert("a", static_cast<std::int64_t>(1));
  big = small;
  for (int i = 0; i < 50; ++i) {
    big.insert("attr_" + std::to_string(i), std::string(32, 'x'));
  }
  EXPECT_GT(big.wire_bytes(), small.wire_bytes() + 50 * 32);
}

TEST(ClassAdTest, ParseRejectsGarbage) {
  EXPECT_THROW(ClassAd::parse("this line has no equals\n"), ParseError);
  EXPECT_THROW(ClassAd::parse("= 3\n"), ParseError);
}

TEST(ClassAdTest, InsertionOrderPreservedInNames) {
  ClassAd ad;
  ad.insert("zeta", static_cast<std::int64_t>(1));
  ad.insert("alpha", static_cast<std::int64_t>(2));
  ad.insert("mid", static_cast<std::int64_t>(3));
  EXPECT_EQ(ad.names(),
            (std::vector<std::string>{"zeta", "alpha", "mid"}));
}

TEST(ClassAdTest, ReplacingKeepsFirstSpellingAndPosition) {
  ClassAd ad;
  ad.insert("OpSys", "LINUX");
  ad.insert("Arch", "INTEL");
  ad.insert("opsys", "SOLARIS");
  EXPECT_EQ(ad.names(), (std::vector<std::string>{"OpSys", "Arch"}));
  EXPECT_EQ(ad.to_string(), "OpSys = \"SOLARIS\"\nArch = \"INTEL\"\n");
}

TEST(ClassAdTest, EraseThenReinsertAppends) {
  ClassAd ad;
  ad.insert("a", static_cast<std::int64_t>(1));
  ad.insert("b", static_cast<std::int64_t>(2));
  ad.insert("c", static_cast<std::int64_t>(3));
  EXPECT_TRUE(ad.erase("A"));
  ad.insert("a", static_cast<std::int64_t>(4));
  EXPECT_EQ(ad.names(), (std::vector<std::string>{"b", "c", "a"}));
  EXPECT_EQ(ad.to_string(), "b = 2\nc = 3\na = 4\n");
  EXPECT_EQ(ad.evaluate("A").as_integer(), 4);
}

TEST(ClassAdTest, MoveUpdateMatchesCopyUpdateAndEmptiesSource) {
  ClassAd overlay = ClassAd::parse(
      "b = 20\n"
      "C = b * 2\n"
      "Name = \"lucky4\"\n");
  ClassAd copied = ClassAd::parse("a = 1\nB = 2\n");
  ClassAd moved = copied;
  copied.update(overlay);
  // update(ClassAd&&) promises an empty source, so reading it afterwards
  // is specified; `source` names the ad whose state that promise covers.
  const ClassAd& source = overlay;
  moved.update(std::move(overlay));
  EXPECT_EQ(moved.to_string(), copied.to_string());
  EXPECT_EQ(moved.names(), (std::vector<std::string>{"a", "B", "C", "Name"}));
  EXPECT_EQ(moved.evaluate("c").as_integer(), 40);
  EXPECT_TRUE(source.empty());
  EXPECT_TRUE(source.to_string().empty());
}

// The Startd ad of a default 11-module install, byte for byte: module
// fragments integrate in module order after the identity attributes.
constexpr const char* kStartdAd = R"(MyType = "Machine"
Name = "lucky4.mcs.anl.gov"
OpSys = "LINUX"
Requirements = TRUE
vmstat_sequence = 7
CpuLoad = 42.5
vmstat_attr0 = 217
vmstat_attr1 = 218
vmstat_attr2 = 219
vmstat_attr3 = 220
vmstat_attr4 = 221
vmstat_attr5 = 222
df_sequence = 7
df_attr0 = 217
df_attr1 = 218
df_attr2 = 219
df_attr3 = 220
df_attr4 = 221
df_attr5 = 222
netstat_sequence = 7
netstat_attr0 = 217
netstat_attr1 = 218
netstat_attr2 = 219
netstat_attr3 = 220
netstat_attr4 = 221
netstat_attr5 = 222
uptime_sequence = 7
uptime_attr0 = 217
uptime_attr1 = 218
uptime_attr2 = 219
uptime_attr3 = 220
uptime_attr4 = 221
uptime_attr5 = 222
memory_sequence = 7
memory_attr0 = 217
memory_attr1 = 218
memory_attr2 = 219
memory_attr3 = 220
memory_attr4 = 221
memory_attr5 = 222
processes_sequence = 7
processes_attr0 = 217
processes_attr1 = 218
processes_attr2 = 219
processes_attr3 = 220
processes_attr4 = 221
processes_attr5 = 222
users_sequence = 7
users_attr0 = 217
users_attr1 = 218
users_attr2 = 219
users_attr3 = 220
users_attr4 = 221
users_attr5 = 222
syslog_sequence = 7
syslog_attr0 = 217
syslog_attr1 = 218
syslog_attr2 = 219
syslog_attr3 = 220
syslog_attr4 = 221
syslog_attr5 = 222
ckpt_sequence = 7
ckpt_attr0 = 217
ckpt_attr1 = 218
ckpt_attr2 = 219
ckpt_attr3 = 220
ckpt_attr4 = 221
ckpt_attr5 = 222
condor_status_sequence = 7
condor_status_attr0 = 217
condor_status_attr1 = 218
condor_status_attr2 = 219
condor_status_attr3 = 220
condor_status_attr4 = 221
condor_status_attr5 = 222
openfiles_sequence = 7
openfiles_attr0 = 217
openfiles_attr1 = 218
openfiles_attr2 = 219
openfiles_attr3 = 220
openfiles_attr4 = 221
openfiles_attr5 = 222
)";

TEST(ClassAdTest, StartdAdRendersByteExact) {
  std::vector<ClassAd> parts;
  for (const auto& spec : hawkeye::scaled_modules(11)) {
    parts.push_back(hawkeye::run_module(spec, 7, 42.5));
  }
  ClassAd ad = hawkeye::build_startd_ad("lucky4.mcs.anl.gov", parts);
  EXPECT_EQ(ad.size(), 82u);
  EXPECT_EQ(ad.to_string(), kStartdAd);
  EXPECT_DOUBLE_EQ(ad.wire_bytes(), 1621.0);
}

}  // namespace
}  // namespace gridmon::classad
