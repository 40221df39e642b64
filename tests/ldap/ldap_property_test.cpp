/// Parameterized/property suites for the LDAP engine: filter algebra,
/// scope containment, DN normalization laws, and a seeded differential
/// test of Dit against a string-keyed reference tree.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "gridmon/ldap/dit.hpp"
#include "gridmon/sim/rng.hpp"

namespace gridmon::ldap {
namespace {

Dit grid_tree() {
  Dit dit;
  Entry root(Dn::parse("o=grid"));
  root.add("objectclass", "organization");
  dit.add(std::move(root));
  for (int h = 0; h < 4; ++h) {
    std::string host = "Mds-Host-hn=lucky" + std::to_string(h) + ", o=grid";
    Entry he(Dn::parse(host));
    he.add("objectclass", "MdsHost");
    he.add("Mds-Cpu-Total-count", std::to_string(1 << h));
    he.add("Mds-Os-name", h % 2 ? "Linux" : "Solaris");
    dit.add(std::move(he));
    for (int d = 0; d < 5; ++d) {
      Entry de(Dn::parse("Mds-Device-name=dev" + std::to_string(d) + ", " +
                         host));
      de.add("objectclass", "MdsDevice");
      de.add("Mds-Device-name", "dev" + std::to_string(d));
      de.add("size", std::to_string(d * 100));
      dit.add(std::move(de));
    }
  }
  return dit;
}

// ---- filter algebra over a corpus ----

/// Every entry of grid_tree() plus one without an objectclass. The laws
/// compare match results entry by entry: a Dit memoizes by the filter's
/// rendering, so two searches with equal renderings would compare a result
/// with itself.
std::vector<Entry> corpus() {
  auto entries =
      grid_tree().search(Dn{}, Scope::Subtree, *Filter::match_all()).entries;
  Entry bare(Dn::parse("cn=bare, o=grid"));
  bare.add("size", "100");
  entries.push_back(std::move(bare));
  return entries;
}

const char* kFilters[] = {
    "(objectclass=*)",
    "(objectclass=**)",
    "(objectclass=MdsHost)",
    "(Mds-Os-name=linux)",
    "(Mds-Cpu-Total-count>=4)",
    "(size<=200)",
    "(Mds-Device-name=dev*)",
    "(Mds-Device-name=*2)",
    "(&(objectclass=MdsDevice)(size>=300))",
    "(|(Mds-Os-name=solaris)(size=400))",
};

class FilterAlgebra : public ::testing::TestWithParam<const char*> {};

TEST_P(FilterAlgebra, NotNotIsIdentity) {
  auto f = Filter::parse(GetParam());
  auto nn = Filter::parse("(!(!" + std::string(GetParam()) + "))");
  for (const auto& e : corpus()) {
    EXPECT_EQ(nn->matches(e), f->matches(e)) << e.dn().to_string();
  }
}

TEST_P(FilterAlgebra, FilterAndNotFilterPartitionTheTree) {
  auto f = Filter::parse(GetParam());
  auto nf = Filter::parse("(!" + std::string(GetParam()) + ")");
  for (const auto& e : corpus()) {
    EXPECT_NE(nf->matches(e), f->matches(e)) << e.dn().to_string();
  }
}

TEST_P(FilterAlgebra, AndWithSelfIsIdempotent) {
  std::string s = GetParam();
  auto f = Filter::parse(s);
  auto ff = Filter::parse("(&" + s + s + ")");
  for (const auto& e : corpus()) {
    EXPECT_EQ(ff->matches(e), f->matches(e)) << e.dn().to_string();
  }
}

TEST_P(FilterAlgebra, RoundTripKeepsSemantics) {
  auto f = Filter::parse(GetParam());
  auto g = Filter::parse(f->to_string());
  EXPECT_EQ(g->to_string(), f->to_string());
  for (const auto& e : corpus()) {
    EXPECT_EQ(g->matches(e), f->matches(e)) << e.dn().to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, FilterAlgebra,
                         ::testing::ValuesIn(kFilters));

// ---- scope containment: Base <= One+Base <= Subtree ----

TEST(ScopeProperty, ScopesNest) {
  auto dit = grid_tree();
  auto all = Filter::match_all();
  for (const char* base_text :
       {"o=grid", "Mds-Host-hn=lucky1, o=grid",
        "Mds-Device-name=dev0, Mds-Host-hn=lucky0, o=grid"}) {
    auto base = Dn::parse(base_text);
    auto b = dit.search(base, Scope::Base, *all).entries.size();
    auto o = dit.search(base, Scope::One, *all).entries.size();
    auto s = dit.search(base, Scope::Subtree, *all).entries.size();
    EXPECT_LE(b, 1u);
    EXPECT_GE(s, b + o) << base_text;  // subtree covers base and children
  }
}

// ---- DN normalization laws ----

class DnNormalization : public ::testing::TestWithParam<const char*> {};

TEST_P(DnNormalization, NormalizeIsIdempotent) {
  auto dn = Dn::parse(GetParam());
  auto again = Dn::parse(dn.normalized());
  EXPECT_EQ(dn, again);
  EXPECT_EQ(dn.normalized(), again.normalized());
}

TEST_P(DnNormalization, ToStringParsesBackEqual) {
  auto dn = Dn::parse(GetParam());
  EXPECT_EQ(dn, Dn::parse(dn.to_string()));
}

TEST_P(DnNormalization, ParentIsStrictPrefix) {
  auto dn = Dn::parse(GetParam());
  if (dn.depth() > 1) {
    EXPECT_TRUE(dn.is_child_of(dn.parent()));
    EXPECT_TRUE(dn.is_descendant_of(dn.parent()));
    EXPECT_EQ(dn.parent().depth(), dn.depth() - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, DnNormalization,
    ::testing::Values("o=grid", "CN=Foo, O=Grid",
                      "mds-device-name=CPU, mds-host-hn=Lucky7, o=Grid",
                      "a=1, b=2, c=3, d=4, e=5",
                      "cn = spaced out , o = grid"));

// ---- differential: Dit vs a string-keyed reference tree ----

/// The reference semantics of a DIT, kept deliberately naive: nodes in a
/// map keyed by normalized DN, each holding the set of its children's
/// keys, and every walk resolving a child back through the map.
class RefDit {
 public:
  void add(Entry entry) {
    const Dn& dn = entry.dn();
    std::string key = dn.normalized();
    Dn parent = dn.parent();
    if (!parent.empty()) {
      auto pit = nodes_.find(parent.normalized());
      if (pit == nodes_.end()) throw DnError("no parent");
      pit->second.children.insert(key);
    }
    nodes_[key].entry = std::move(entry);
  }

  std::size_t remove_subtree(const Dn& dn) {
    std::string key = dn.normalized();
    auto it = nodes_.find(key);
    if (it == nodes_.end()) return 0;
    std::size_t removed = 1;
    for (const auto& child : std::set<std::string>(it->second.children)) {
      removed += remove_subtree(nodes_.at(child).entry.dn());
    }
    Dn parent = dn.parent();
    if (!parent.empty()) nodes_.at(parent.normalized()).children.erase(key);
    nodes_.erase(key);
    return removed;
  }

  SearchResult search(const Dn& base, Scope scope, const Filter& filter,
                      const std::vector<std::string>& attrs,
                      std::size_t size_limit) const {
    SearchResult r;
    auto consider = [&](const Entry& e) {
      ++r.entries_examined;
      if (!filter.matches(e)) return true;
      if (size_limit != 0 && r.entries.size() >= size_limit) {
        r.size_limit_exceeded = true;
        return false;
      }
      r.entries.push_back(e.project(attrs));
      return true;
    };
    auto bit = nodes_.find(base.normalized());
    if (base.empty()) {
      if (scope == Scope::Subtree) {
        for (const auto& [key, node] : nodes_) {
          if (!consider(node.entry)) break;
        }
      }
      return r;
    }
    if (bit == nodes_.end()) return r;
    if (scope == Scope::Base) {
      consider(bit->second.entry);
    } else if (scope == Scope::One) {
      for (const auto& child : bit->second.children) {
        if (!consider(nodes_.at(child).entry)) break;
      }
    } else {
      std::vector<std::string> stack{bit->first};
      while (!stack.empty()) {
        const Node& node = nodes_.at(stack.back());
        stack.pop_back();
        if (!consider(node.entry)) break;
        for (const auto& child : node.children) stack.push_back(child);
      }
    }
    return r;
  }

  std::size_t size() const { return nodes_.size(); }
  void clear() { nodes_.clear(); }

 private:
  struct Node {
    Entry entry;
    std::set<std::string> children;
  };
  std::map<std::string, Node> nodes_;
};

/// Flattened view of a result: every DN and attribute, in result order.
std::vector<std::string> dump(const SearchResult& r) {
  std::vector<std::string> out;
  for (const auto& e : r.entries) {
    out.push_back(e.dn().to_string());
    for (const auto& name : e.attribute_names()) {
      for (const auto& v : e.values(name)) out.push_back(name + ": " + v);
    }
  }
  out.push_back("examined=" + std::to_string(r.entries_examined) +
                " limited=" + std::to_string(r.size_limit_exceeded) +
                " bytes=" + std::to_string(r.wire_bytes()));
  return out;
}

template <typename T>
const T& pick(sim::Rng& rng, const std::vector<T>& from) {
  return from[rng.below(from.size())];
}

/// Random case, so the same node is addressed through many spellings.
std::string shuffle_case(sim::Rng& rng, std::string s) {
  for (char& c : s) {
    if (c >= 'a' && c <= 'z' && rng.below(3) == 0) c = c - 'a' + 'A';
  }
  return s;
}

/// A DN somewhere in a three-level namespace under two suffixes; small
/// enough that adds, replaces and removals keep colliding.
std::string random_dn(sim::Rng& rng) {
  std::string dn = rng.below(5) == 0 ? "o=other" : "o=grid";
  const auto depth = rng.below(4);
  if (depth >= 1) {
    dn = "Mds-Host-hn=h" + std::to_string(rng.below(6)) + ", " + dn;
  }
  if (depth >= 2) {
    dn = "Mds-Device-name=d" + std::to_string(rng.below(5)) + ", " + dn;
  }
  if (depth >= 3) dn = "cn=leaf" + std::to_string(rng.below(3)) + ", " + dn;
  return shuffle_case(rng, dn);
}

Entry random_entry(sim::Rng& rng, const Dn& dn) {
  static const std::vector<std::string> kNames = {
      "objectclass", "Mds-Os-name", "size", "Mds-Cpu-Total-count", "descr"};
  static const std::vector<std::string> kValues = {
      "MdsHost", "MdsDevice", "linux", "Solaris", "0", "4", "16", "250",
      "x y", "nan"};
  Entry e(dn);
  const auto n = rng.below(5);
  for (std::uint64_t i = 0; i < n; ++i) {
    e.add(shuffle_case(rng, pick(rng, kNames)), pick(rng, kValues));
  }
  return e;
}

class DitDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DitDifferential, EveryScopeMatchesTheReference) {
  static const std::vector<std::string> kFilterTexts = {
      "(objectclass=*)",  "(objectclass=MdsHost)",   "(size>=16)",
      "(size<=4)",        "(Mds-Os-name=LINUX)",     "(descr=*)",
      "(Mds-Os-name=s*)", "(!(objectclass=MdsDevice))",
      "(|(size=250)(Mds-Cpu-Total-count>=4))",
      "(&(objectclass=*)(size=nan))",
  };
  static const std::vector<std::vector<std::string>> kSelections = {
      {}, {"SIZE"}, {"objectclass", "mds-os-name"}, {"missing"}};
  std::vector<FilterPtr> filters;
  for (const auto& f : kFilterTexts) filters.push_back(Filter::parse(f));

  sim::Rng rng(GetParam());
  Dit dit;
  RefDit ref;
  // The previous search, repeated after every step: a memo hit when the
  // step left the tree alone, a fresh walk when it changed it.
  struct Query {
    Dn base;
    Scope scope;
    const Filter* filter;
    const std::vector<std::string>* attrs;
    std::size_t limit;
  };
  std::optional<Query> last;
  std::size_t throws = 0, replaces = 0, missing_removes = 0, removes = 0;
  for (int step = 0; step < 400; ++step) {
    const Dn dn = Dn::parse(random_dn(rng));
    const auto op = rng.below(100);
    if (op < 60) {  // add or replace
      Entry e = random_entry(rng, dn);
      const bool existed = dit.contains(dn);
      bool ref_threw = false, dit_threw = false;
      try {
        ref.add(e);
      } catch (const DnError&) {
        ref_threw = true;
      }
      try {
        dit.add(e);
      } catch (const DnError&) {
        dit_threw = true;
      }
      ASSERT_EQ(dit_threw, ref_threw) << "step " << step;
      throws += dit_threw;
      replaces += existed;
    } else if (op < 70) {
      const std::size_t removed = dit.remove_subtree(dn);
      ASSERT_EQ(removed, ref.remove_subtree(dn)) << "step " << step;
      ++(removed ? removes : missing_removes);
    } else if (op < 71) {
      dit.clear();
      ref.clear();
    } else {
      const Dn base = rng.below(8) == 0 ? Dn{} : dn;
      const Filter& filter = *filters[rng.below(filters.size())];
      const auto& attrs = kSelections[rng.below(kSelections.size())];
      const std::size_t limit = rng.below(3) == 0 ? rng.below(4) : 0;
      // Each query differs from the one before it in one key component,
      // so a memo that ignored a component would answer from a neighbour.
      const auto& attrs2 = pick(rng, kSelections);
      const std::size_t limit2 = limit == 0 ? 1 : 0;
      const Filter* filter2 = filters[rng.below(filters.size())].get();
      const Dn base2 = base.empty() ? dn : base.parent();
      const std::vector<Query> queries = {
          {base, Scope::Base, &filter, &attrs, limit},
          {base, Scope::One, &filter, &attrs, limit},
          {base, Scope::Subtree, &filter, &attrs, limit},
          {base, Scope::Subtree, &filter, &attrs2, limit},
          {base, Scope::Subtree, &filter, &attrs2, limit2},
          {base, Scope::Subtree, filter2, &attrs2, limit2},
          {base2, Scope::Subtree, filter2, &attrs2, limit2},
      };
      for (const Query& q : queries) {
        ASSERT_EQ(
            dump(dit.search(q.base, q.scope, *q.filter, *q.attrs, q.limit)),
            dump(ref.search(q.base, q.scope, *q.filter, *q.attrs, q.limit)))
            << "step " << step << " base " << q.base.to_string()
            << " scope " << static_cast<int>(q.scope) << " filter "
            << q.filter->to_string();
      }
      last = queries.back();
    }
    ASSERT_EQ(dit.size(), ref.size()) << "step " << step;
    if (last) {
      const Query& q = *last;
      ASSERT_EQ(
          dump(dit.search(q.base, q.scope, *q.filter, *q.attrs, q.limit)),
          dump(ref.search(q.base, q.scope, *q.filter, *q.attrs, q.limit)))
          << "repeat after step " << step << " base " << q.base.to_string()
          << " filter " << q.filter->to_string();
    }
  }
  // Every kind of step the memo must survive or forget showed up.
  EXPECT_GT(throws, 0u);
  EXPECT_GT(replaces, 0u);
  EXPECT_GT(missing_removes, 0u);
  EXPECT_GT(removes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DitDifferential,
                         ::testing::Values(1u, 2u, 3u, 42u, 1234u, 99991u));

}  // namespace
}  // namespace gridmon::ldap
