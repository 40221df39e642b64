/// Unit tests for the flow-sensitive foundation: CFG construction
/// (cfg.hpp) and the worklist dataflow instances (dataflow.hpp). The
/// fixture tests exercise these through whole checks; here the graph and
/// the lattices are probed directly, so a regression pinpoints the layer
/// that broke rather than the check that happened to notice.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cfg.hpp"
#include "dataflow.hpp"
#include "lexer.hpp"
#include "model.hpp"

using gridmon::lint::Cfg;
using gridmon::lint::Model;
using gridmon::lint::build_cfg;

namespace {

/// Lexed + modeled source, with lookup helpers keyed on token text.
struct Parsed {
  gridmon::lint::LexResult lexed;
  Model m;

  explicit Parsed(const std::string& src)
      : lexed(gridmon::lint::lex(src)),
        m(gridmon::lint::build_model(lexed, nullptr)) {}

  const gridmon::lint::Func& func(const std::string& name) const {
    for (const auto& f : m.funcs) {
      if (f.name == name) return f;
    }
    throw std::runtime_error("no function " + name);
  }

  Cfg cfg_of(const std::string& name) const {
    const auto& f = func(name);
    return build_cfg(m, f.body_begin, f.body_end);
  }

  /// Token index of the nth occurrence of `text` (n is 0-based).
  int tok(const std::string& text, int nth = 0) const {
    for (int i = 0; i < static_cast<int>(m.toks.size()); ++i) {
      if (m.toks[i].text == text && nth-- == 0) return i;
    }
    return -1;
  }
};

int count_suspend_nodes(const Cfg& cfg) {
  int n = 0;
  for (const auto& nd : cfg.nodes) n += nd.is_suspend ? 1 : 0;
  return n;
}

// --- CFG shape ------------------------------------------------------------

TEST(CfgBuild, StraightLineIsSingleBlock) {
  Parsed p(R"cpp(
    int f(int a) {
      int b = a + 1;
      int c = b * 2;
      return c;
    }
  )cpp");
  Cfg cfg = p.cfg_of("f");
  EXPECT_FALSE(cfg.has_suspension);
  EXPECT_EQ(count_suspend_nodes(cfg), 0);
  // All three statements land in one node.
  int nb = cfg.node_of(p.tok("b"));
  EXPECT_EQ(nb, cfg.node_of(p.tok("c")));
  EXPECT_GE(nb, 0);
}

TEST(CfgBuild, SplitsAtEverySuspension) {
  Parsed p(R"cpp(
    Task<void> f(Backend& be) {
      int a = 1;
      co_await be.query(a);
      int b = 2;
      co_await be.query(b);
      int c = a + b;
      (void)c;
    }
  )cpp");
  Cfg cfg = p.cfg_of("f");
  EXPECT_TRUE(cfg.has_suspension);
  EXPECT_EQ(count_suspend_nodes(cfg), 2);
  // The suspension happens at the END of its node: the awaiting
  // statement shares a node with the co_await keyword, and the next
  // statement starts a new node.
  int s1 = cfg.node_of(p.tok("co_await", 0));
  ASSERT_GE(s1, 0);
  EXPECT_TRUE(cfg.nodes[s1].is_suspend);
  EXPECT_EQ(cfg.nodes[s1].suspend_tok, p.tok("co_await", 0));
  EXPECT_NE(s1, cfg.node_of(p.tok("b")));
  EXPECT_NE(cfg.node_of(p.tok("b")), cfg.node_of(p.tok("co_await", 1)));
}

TEST(CfgBuild, LoopHasBackEdge) {
  Parsed p(R"cpp(
    int f(int n) {
      int total = 0;
      while (n > 0) {
        total += n;
        n -= 1;
      }
      return total;
    }
  )cpp");
  Cfg cfg = p.cfg_of("f");
  // Some node must have a successor with a lower id: the back-edge to
  // the loop head.
  bool back_edge = false;
  for (int i = 0; i < static_cast<int>(cfg.nodes.size()); ++i) {
    for (int s : cfg.nodes[i].succ) {
      if (s < i && s != cfg.exit) back_edge = true;
    }
  }
  EXPECT_TRUE(back_edge);
  // pred mirrors succ.
  for (int i = 0; i < static_cast<int>(cfg.nodes.size()); ++i) {
    for (int s : cfg.nodes[i].succ) {
      const auto& preds = cfg.nodes[s].pred;
      EXPECT_NE(std::find(preds.begin(), preds.end(), i), preds.end())
          << "edge " << i << "->" << s << " missing from pred";
    }
  }
}

TEST(CfgBuild, BranchForksAndRejoins) {
  Parsed p(R"cpp(
    int f(bool flip) {
      int r = 0;
      if (flip) {
        r = 1;
      } else {
        r = 2;
      }
      return r;
    }
  )cpp");
  Cfg cfg = p.cfg_of("f");
  int head = cfg.node_of(p.tok("flip", 1));  // the condition use
  ASSERT_GE(head, 0);
  EXPECT_GE(cfg.nodes[head].succ.size(), 2u) << "condition node must fork";
  int ret = cfg.node_of(p.tok("return"));
  ASSERT_GE(ret, 0);
  // Both arms reach the return node (directly or through a join node).
  EXPECT_GE(cfg.nodes[ret].pred.size(), 1u);
}

TEST(CfgBuild, NestedLambdaTokensBelongToNoNode) {
  Parsed p(R"cpp(
    Task<void> f(Sim& sim) {
      auto inner = [&] { co_await sim.tick(); };
      (void)inner;
      co_await sim.tick();
    }
  )cpp");
  Cfg cfg = p.cfg_of("f");
  // The lambda's co_await does not suspend f: only one suspend node, and
  // the node holding the lambda statement is not marked as suspending.
  EXPECT_EQ(count_suspend_nodes(cfg), 1);
  int lam_node = cfg.node_of(p.tok("co_await", 0));
  ASSERT_GE(lam_node, 0);
  EXPECT_FALSE(cfg.nodes[lam_node].is_suspend)
      << "a lambda's suspension must not suspend the enclosing function";
  EXPECT_TRUE(cfg.nodes[cfg.node_of(p.tok("co_await", 1))].is_suspend);
}

// --- Dataflow instances ---------------------------------------------------

TEST(Dataflow, TaintJoinOrsBitsAcrossPaths) {
  // Drive solve_forward directly with a hand-rolled transfer: one branch
  // arm taints x with Env, the other with Clock; the join must OR them.
  Parsed p(R"cpp(
    int f(bool flip) {
      int x = 0;
      if (flip) {
        x = 1;
      } else {
        x = 2;
      }
      return x;
    }
  )cpp");
  Cfg cfg = p.cfg_of("f");
  int arm1 = cfg.node_of(p.tok("1"));
  int arm2 = cfg.node_of(p.tok("2"));
  ASSERT_GE(arm1, 0);
  ASSERT_GE(arm2, 0);
  ASSERT_NE(arm1, arm2);
  auto states = gridmon::lint::solve_forward(
      cfg, gridmon::lint::join_bits, [&](int node, gridmon::lint::VarBits& st) {
        if (node == arm1) st["x"] |= gridmon::lint::kTaintEnv;
        if (node == arm2) st["x"] |= gridmon::lint::kTaintClock;
      });
  int ret = cfg.node_of(p.tok("return"));
  ASSERT_GE(ret, 0);
  EXPECT_EQ(states[ret].at("x"),
            gridmon::lint::kTaintEnv | gridmon::lint::kTaintClock);
}

TEST(Dataflow, TaintLabelNamesBits) {
  EXPECT_EQ(gridmon::lint::taint_label(gridmon::lint::kTaintEnv),
            "environment");
  std::string joined = gridmon::lint::taint_label(
      gridmon::lint::kTaintEnv | gridmon::lint::kTaintClock);
  EXPECT_NE(joined.find("environment"), std::string::npos);
  EXPECT_NE(joined.find("+"), std::string::npos);
}

TEST(Dataflow, VarEventsClassifyDefsAndUses) {
  Parsed p(R"cpp(
    int f(int a) {
      int b = a;
      b += 1;
      return b;
    }
  )cpp");
  const auto& fn = p.func("f");
  auto evs = gridmon::lint::var_events(p.m, fn.body_begin, fn.body_end);
  auto kind_of = [&](const std::string& name, int nth) {
    for (const auto& ev : evs) {
      if (ev.name == name && nth-- == 0) return ev.kind;
    }
    throw std::runtime_error("event not found: " + name);
  };
  EXPECT_EQ(kind_of("b", 0), gridmon::lint::VarEventKind::Def);
  EXPECT_EQ(kind_of("a", 0), gridmon::lint::VarEventKind::Use);
  EXPECT_EQ(kind_of("b", 1), gridmon::lint::VarEventKind::DefUse);
  EXPECT_EQ(kind_of("b", 2), gridmon::lint::VarEventKind::Use);
}

// --- Drain reachability ---------------------------------------------------

TEST(DrainReach, AllPathsDrainWhenRunIsUnconditional) {
  Parsed p(R"cpp(
    void f(Sim& sim) {
      int hits = 0;
      sim.spawn(probe(sim, hits));
      sim.run();
    }
  )cpp");
  Cfg cfg = p.cfg_of("f");
  EXPECT_TRUE(
      gridmon::lint::all_paths_reach_drain(p.m, cfg, p.tok("spawn")));
}

TEST(DrainReach, BranchSkippingRunIsNotDrained) {
  Parsed p(R"cpp(
    void f(Sim& sim, bool fast) {
      int hits = 0;
      sim.spawn(probe(sim, hits));
      if (fast) {
        return;
      }
      sim.run();
    }
  )cpp");
  Cfg cfg = p.cfg_of("f");
  EXPECT_FALSE(
      gridmon::lint::all_paths_reach_drain(p.m, cfg, p.tok("spawn")));
}

TEST(DrainReach, RunInsideNestedLambdaDoesNotCount) {
  Parsed p(R"cpp(
    void f(Sim& sim) {
      int hits = 0;
      sim.spawn(probe(sim, hits));
      auto later = [&] { sim.run(); };
      (void)later;
    }
  )cpp");
  Cfg cfg = p.cfg_of("f");
  EXPECT_FALSE(
      gridmon::lint::all_paths_reach_drain(p.m, cfg, p.tok("spawn")));
}

}  // namespace
