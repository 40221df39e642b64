#include "gridmon/ldap/dit.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "gridmon/ldap/ldif.hpp"

namespace gridmon::ldap {
namespace {

Entry make_entry(const std::string& dn_text, const std::string& oc) {
  Entry e(Dn::parse(dn_text));
  e.add("objectclass", oc);
  return e;
}

/// Small MDS-style tree: o=grid -> hosts -> devices.
Dit sample_tree() {
  Dit dit;
  dit.add(make_entry("o=grid", "organization"));
  for (int h = 0; h < 3; ++h) {
    std::string host = "Mds-Host-hn=lucky" + std::to_string(h) + ", o=grid";
    auto he = make_entry(host, "MdsHost");
    he.add("Mds-Cpu-Total-count", std::to_string(2 + h));
    dit.add(he);
    for (const char* dev : {"memory", "cpu", "filesystem"}) {
      auto de = make_entry(
          std::string("Mds-Device-name=") + dev + ", " + host, "MdsDevice");
      de.add("Mds-Device-name", dev);
      dit.add(de);
    }
  }
  return dit;
}

TEST(DitTest, AddAndFind) {
  auto dit = sample_tree();
  EXPECT_EQ(dit.size(), 1u + 3u + 9u);
  EXPECT_TRUE(dit.contains(Dn::parse("o=grid")));
  EXPECT_TRUE(dit.contains(Dn::parse("MDS-HOST-HN=LUCKY1, O=GRID")));
  const Entry* e = dit.find(Dn::parse("mds-host-hn=lucky2, o=grid"));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->value("Mds-Cpu-Total-count"), "4");
}

TEST(DitTest, AddWithoutParentThrows) {
  Dit dit;
  EXPECT_THROW(dit.add(make_entry("cn=orphan, o=missing", "x")), DnError);
}

TEST(DitTest, ReplaceKeepsChildren) {
  auto dit = sample_tree();
  auto replacement = make_entry("Mds-Host-hn=lucky0, o=grid", "MdsHost");
  replacement.add("Mds-Cpu-Total-count", "16");
  dit.add(replacement);
  EXPECT_EQ(dit.find(Dn::parse("mds-host-hn=lucky0,o=grid"))
                ->value("mds-cpu-total-count"),
            "16");
  // Children survive the replace.
  auto r = dit.search(Dn::parse("Mds-Host-hn=lucky0, o=grid"), Scope::One,
                      *Filter::match_all());
  EXPECT_EQ(r.entries.size(), 3u);
}

TEST(DitTest, BaseScopeSearch) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("Mds-Host-hn=lucky1, o=grid"), Scope::Base,
                      *Filter::match_all());
  ASSERT_EQ(r.entries.size(), 1u);
  EXPECT_EQ(r.entries[0].dn().normalized(), "mds-host-hn=lucky1,o=grid");
}

TEST(DitTest, OneLevelSearch) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("o=grid"), Scope::One, *Filter::match_all());
  EXPECT_EQ(r.entries.size(), 3u);  // only the hosts, not devices
}

TEST(DitTest, SubtreeSearchWithFilter) {
  auto dit = sample_tree();
  auto filter = Filter::parse("(objectclass=MdsDevice)");
  auto r = dit.search(Dn::parse("o=grid"), Scope::Subtree, *filter);
  EXPECT_EQ(r.entries.size(), 9u);
  auto mem = Filter::parse("(Mds-Device-name=memory)");
  auto rm = dit.search(Dn::parse("o=grid"), Scope::Subtree, *mem);
  EXPECT_EQ(rm.entries.size(), 3u);
}

TEST(DitTest, SubtreeFromMidTree) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("Mds-Host-hn=lucky1, o=grid"), Scope::Subtree,
                      *Filter::match_all());
  EXPECT_EQ(r.entries.size(), 4u);  // host + 3 devices
}

TEST(DitTest, SearchNonexistentBaseIsEmpty) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("o=nothing"), Scope::Subtree,
                      *Filter::match_all());
  EXPECT_TRUE(r.entries.empty());
}

TEST(DitTest, SizeLimitTruncates) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("o=grid"), Scope::Subtree,
                      *Filter::match_all(), {}, 5);
  EXPECT_EQ(r.entries.size(), 5u);
  EXPECT_TRUE(r.size_limit_exceeded);
}

TEST(DitTest, EntriesExaminedCountsWork) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("o=grid"), Scope::Subtree,
                      *Filter::parse("(objectclass=nothing)"));
  EXPECT_TRUE(r.entries.empty());
  EXPECT_EQ(r.entries_examined, 13u);
}

TEST(DitTest, AttributeSelection) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("o=grid"), Scope::One, *Filter::match_all(),
                      {"Mds-Cpu-Total-count"});
  ASSERT_FALSE(r.entries.empty());
  for (const auto& e : r.entries) {
    EXPECT_TRUE(e.has_attribute("Mds-Cpu-Total-count"));
    EXPECT_FALSE(e.has_attribute("objectclass"));
  }
}

TEST(DitTest, RemoveSubtree) {
  auto dit = sample_tree();
  std::size_t removed =
      dit.remove_subtree(Dn::parse("Mds-Host-hn=lucky1, o=grid"));
  EXPECT_EQ(removed, 4u);
  EXPECT_EQ(dit.size(), 13u - 4u);
  EXPECT_FALSE(dit.contains(Dn::parse("mds-host-hn=lucky1,o=grid")));
  // Parent's child list updated: one-level search no longer sees it.
  auto r = dit.search(Dn::parse("o=grid"), Scope::One, *Filter::match_all());
  EXPECT_EQ(r.entries.size(), 2u);
}

TEST(DitTest, RemoveMissingIsZero) {
  auto dit = sample_tree();
  EXPECT_EQ(dit.remove_subtree(Dn::parse("cn=ghost, o=grid")), 0u);
}

TEST(DitTest, WireBytesPositive) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("o=grid"), Scope::Subtree,
                      *Filter::match_all());
  EXPECT_GT(r.wire_bytes(), 13 * 8.0);
}

// ---- pins: result order, size-limit cut, entry layout, crash path ----

std::vector<std::string> dns_of(const SearchResult& r) {
  std::vector<std::string> out;
  for (const auto& e : r.entries) out.push_back(e.dn().normalized());
  return out;
}

const std::vector<std::string> kSubtreeFromRoot = {
    "o=grid",
    "mds-host-hn=lucky2,o=grid",
    "mds-device-name=memory,mds-host-hn=lucky2,o=grid",
    "mds-device-name=filesystem,mds-host-hn=lucky2,o=grid",
    "mds-device-name=cpu,mds-host-hn=lucky2,o=grid",
    "mds-host-hn=lucky1,o=grid",
    "mds-device-name=memory,mds-host-hn=lucky1,o=grid",
    "mds-device-name=filesystem,mds-host-hn=lucky1,o=grid",
    "mds-device-name=cpu,mds-host-hn=lucky1,o=grid",
    "mds-host-hn=lucky0,o=grid",
    "mds-device-name=memory,mds-host-hn=lucky0,o=grid",
    "mds-device-name=filesystem,mds-host-hn=lucky0,o=grid",
    "mds-device-name=cpu,mds-host-hn=lucky0,o=grid",
};

TEST(DitPin, SubtreeOrderFromRoot) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("o=grid"), Scope::Subtree,
                      *Filter::match_all());
  EXPECT_EQ(dns_of(r), kSubtreeFromRoot);
  EXPECT_EQ(r.entries_examined, 13u);
}

TEST(DitPin, SubtreeOrderFromMidTree) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("MDS-Host-hn=Lucky1, o=grid"),
                      Scope::Subtree, *Filter::match_all());
  EXPECT_EQ(dns_of(r), (std::vector<std::string>{
                           "mds-host-hn=lucky1,o=grid",
                           "mds-device-name=memory,mds-host-hn=lucky1,o=grid",
                           "mds-device-name=filesystem,mds-host-hn=lucky1,"
                           "o=grid",
                           "mds-device-name=cpu,mds-host-hn=lucky1,o=grid",
                       }));
  EXPECT_EQ(r.entries_examined, 4u);
}

TEST(DitPin, OneLevelOrder) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("Mds-Host-hn=lucky0, o=grid"), Scope::One,
                      *Filter::match_all());
  EXPECT_EQ(dns_of(r), (std::vector<std::string>{
                           "mds-device-name=cpu,mds-host-hn=lucky0,o=grid",
                           "mds-device-name=filesystem,mds-host-hn=lucky0,"
                           "o=grid",
                           "mds-device-name=memory,mds-host-hn=lucky0,o=grid",
                       }));
  auto hosts =
      dit.search(Dn::parse("o=grid"), Scope::One, *Filter::match_all());
  EXPECT_EQ(dns_of(hosts), (std::vector<std::string>{
                               "mds-host-hn=lucky0,o=grid",
                               "mds-host-hn=lucky1,o=grid",
                               "mds-host-hn=lucky2,o=grid",
                           }));
}

TEST(DitPin, SizeLimitKeepsTheFirstMatchesInWalkOrder) {
  auto dit = sample_tree();
  auto r = dit.search(Dn::parse("o=grid"), Scope::Subtree,
                      *Filter::parse("(objectclass=MdsDevice)"), {}, 4);
  EXPECT_EQ(dns_of(r), (std::vector<std::string>{
                           kSubtreeFromRoot[2], kSubtreeFromRoot[3],
                           kSubtreeFromRoot[4], kSubtreeFromRoot[6]}));
  EXPECT_TRUE(r.size_limit_exceeded);
  // The walk stops at the fifth match: o=grid, lucky2 + 3 devices,
  // lucky1 + 2 devices.
  EXPECT_EQ(r.entries_examined, 8u);
}

TEST(DitPin, MixedCaseAttributeLayout) {
  Entry e(Dn::parse("CN=Mixed, O=Grid"));
  e.add("Zeta", "z1");
  e.add("alpha", "A");
  e.add("Mds-Os-name", "Linux");
  e.add("MDS-cpu", "4");
  e.add("zeta", "z2");
  EXPECT_EQ(e.attribute_names(),
            (std::vector<std::string>{"alpha", "mds-cpu", "mds-os-name",
                                      "zeta"}));
  EXPECT_EQ(e.attribute_count(), 4u);
  EXPECT_EQ(e.values("ZETA"), (std::vector<std::string>{"z1", "z2"}));
  // dn "cn=Mixed, o=Grid" (16) + 8, then name + value + 3 per value.
  EXPECT_DOUBLE_EQ(e.wire_bytes(),
                   16 + 8 + (5 + 1 + 3) + (7 + 1 + 3) + (11 + 5 + 3) +
                       (4 + 2 + 3) * 2);

  Entry p = e.project({"ZETA", "Alpha", "missing"});
  EXPECT_EQ(p.dn().to_string(), "cn=Mixed, o=Grid");
  EXPECT_EQ(p.attribute_names(),
            (std::vector<std::string>{"alpha", "zeta"}));
  EXPECT_EQ(p.value("alpha"), "A");
  EXPECT_EQ(p.values("zeta"), (std::vector<std::string>{"z1", "z2"}));
  EXPECT_DOUBLE_EQ(p.wire_bytes(), 16 + 8 + (5 + 1 + 3) + (4 + 2 + 3) * 2);

  // Mutating the projection leaves the source alone.
  p.set("Alpha", "B");
  EXPECT_EQ(e.value("alpha"), "A");
  EXPECT_EQ(p.value("ALPHA"), "B");
}

TEST(DitPin, RemoveAndReAddSliceRestoresOrder) {
  auto dit = sample_tree();
  const auto all = Filter::match_all();
  const auto base = Dn::parse("o=grid");
  auto before = dit.search(base, Scope::Subtree, *all);
  auto slice = dit.search(Dn::parse("Mds-Host-hn=lucky1, o=grid"),
                          Scope::Subtree, *all);
  EXPECT_EQ(dit.remove_subtree(Dn::parse("mds-host-hn=LUCKY1,o=grid")), 4u);
  EXPECT_EQ(dit.search(base, Scope::Subtree, *all).entries_examined, 9u);
  for (const auto& e : slice.entries) dit.add(e);
  auto after = dit.search(base, Scope::Subtree, *all);
  EXPECT_EQ(dns_of(after), dns_of(before));
  EXPECT_EQ(after.entries_examined, before.entries_examined);
  EXPECT_EQ(dit.dns().size(), 13u);
}

// Children link to nodes inside the source tree, so a copy would alias it.
static_assert(!std::is_copy_constructible_v<Dit>);
static_assert(!std::is_copy_assignable_v<Dit>);

TEST(DitPin, MovedTreeKeepsItsLinksAndMovedFromIsReusable) {
  auto src = sample_tree();
  const auto all = Filter::match_all();
  const auto base = Dn::parse("o=grid");
  // Memoize a search first: neither side of a move may answer from it.
  EXPECT_EQ(src.search(base, Scope::Subtree, *all).entries.size(), 13u);
  Dit moved(std::move(src));
  // gridmon-lint: suppress(coroutine.use-after-move) -- a moved-from Dit
  // is documented empty, memo included; the read is the point
  EXPECT_EQ(src.size(), 0u);  // NOLINT(bugprone-use-after-move)
  auto left = src.search(base, Scope::Subtree, *all);
  EXPECT_TRUE(left.entries.empty());
  EXPECT_EQ(left.entries_examined, 0u);
  EXPECT_EQ(dns_of(moved.search(base, Scope::Subtree, *all)),
            kSubtreeFromRoot);

  // The crash path: move-assign a fresh tree over a populated one.
  src = Dit{};
  EXPECT_EQ(src.size(), 0u);
  src.add(make_entry("o=grid", "organization"));
  EXPECT_EQ(src.search(base, Scope::Subtree, *all).entries.size(), 1u);

  Dit target;
  target.add(make_entry("o=other", "organization"));
  EXPECT_TRUE(target.search(base, Scope::Subtree, *all).entries.empty());
  target = std::move(moved);
  EXPECT_EQ(dns_of(target.search(base, Scope::Subtree, *all)),
            kSubtreeFromRoot);
  EXPECT_TRUE(moved.search(base, Scope::Subtree, *all).entries.empty());
  EXPECT_EQ(moved.size(), 0u);
  EXPECT_FALSE(target.contains(Dn::parse("o=other")));
  target.remove_subtree(Dn::parse("mds-host-hn=lucky2,o=grid"));
  EXPECT_EQ(target.search(base, Scope::Subtree, *all).entries_examined, 9u);
}

TEST(DitPin, MutatingAReturnedEntryLeavesTheMemoAlone) {
  auto dit = sample_tree();
  const auto all = Filter::match_all();
  const auto host = Dn::parse("Mds-Host-hn=lucky2, o=grid");
  for (const std::vector<std::string>& attrs :
       {std::vector<std::string>{},
        std::vector<std::string>{"Mds-Cpu-Total-count"}}) {
    auto first = dit.search(host, Scope::Base, *all, attrs);
    ASSERT_EQ(first.entries.size(), 1u);
    const double bytes = first.wire_bytes();
    first.entries[0].set("Mds-Cpu-Total-count", "99");
    first.entries[0].add("descr", "scribbled");
    auto again = dit.search(host, Scope::Base, *all, attrs);
    ASSERT_EQ(again.entries.size(), 1u);
    EXPECT_EQ(again.entries[0].value("mds-cpu-total-count"), "4");
    EXPECT_FALSE(again.entries[0].has_attribute("descr"));
    EXPECT_DOUBLE_EQ(again.wire_bytes(), bytes);
    EXPECT_EQ(dit.find(host)->value("mds-cpu-total-count"), "4");
  }
}

TEST(LdifTest, RenderEntry) {
  Entry e(Dn::parse("Mds-Host-hn=lucky7, o=grid"));
  e.add("objectclass", "MdsHost");
  e.add("Mds-Os-name", "Linux");
  std::string ldif = to_ldif(e);
  EXPECT_NE(ldif.find("dn: mds-host-hn=lucky7, o=grid"), std::string::npos);
  EXPECT_NE(ldif.find("mds-os-name: Linux"), std::string::npos);
}

TEST(LdifTest, RenderMultipleSeparatedByBlankLine) {
  Entry a(Dn::parse("cn=a"));
  Entry b(Dn::parse("cn=b"));
  std::string ldif = to_ldif(std::vector<Entry>{a, b});
  EXPECT_NE(ldif.find("dn: cn=a\n\ndn: cn=b\n"), std::string::npos);
}

}  // namespace
}  // namespace gridmon::ldap
