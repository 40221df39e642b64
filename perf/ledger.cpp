/// The replay ledger: after a traced run, time each layer's public entry
/// points on that run's live data. Multiplied by the traced run's counts,
/// these predict how much host time each layer should take; the share of
/// the measured window they account for is the ledger's explained
/// fraction.

#include <algorithm>

#include "bench.hpp"
#include "gridmon/classad/matchmaker.hpp"
#include "gridmon/classad/parser.hpp"
#include "gridmon/hawkeye/manager.hpp"
#include "gridmon/hawkeye/module.hpp"
#include "gridmon/ldap/dit.hpp"
#include "gridmon/sim/rng.hpp"
#include "gridmon/sim/simulation.hpp"
#include "gridmon/trace/breakdown.hpp"

namespace perf {
namespace {

using namespace gridmon;

// Each replay reports its median batch. Batches spread a replay over
// about a second, so a short burst of outside load moves few of them.
constexpr int kBatches = 9;

// Results of replayed work land here so the optimiser cannot drop it.
volatile std::size_t g_sink = 0;

/// Median over kBatches runs of `batch`, in microseconds per operation.
template <typename Fn>
double median_us(HostTimer& timer, const std::string& name,
                 std::size_t ops_per_batch, Fn&& batch) {
  std::vector<double> us;
  for (int i = 0; i < kBatches; ++i) {
    double s = timer.time(name, batch);
    us.push_back(s * 1e6 / static_cast<double>(ops_per_batch));
  }
  return trace::percentile(us, 0.50);
}

}  // namespace

double replay_event_ns(std::size_t depth, std::uint64_t seed,
                       HostTimer& timer) {
  // Each event reschedules itself, so the pending set stays `depth` deep
  // until the budget runs out.
  struct Chain {
    sim::Simulation sim;
    sim::Rng rng;
    std::size_t left = 0;
    void fire() {
      if (left == 0) return;
      --left;
      sim.schedule(rng.uniform(), [this] { fire(); });
    }
  };
  depth = std::max<std::size_t>(depth, 1);
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    Chain chain;
    chain.rng = sim::Rng(seed + static_cast<std::uint64_t>(b));
    chain.left = std::max<std::size_t>(400'000, 4 * depth);
    for (std::size_t i = 0; i < depth; ++i) {
      chain.sim.schedule(chain.rng.uniform(), [c = &chain] { c->fire(); });
    }
    std::size_t executed = 0;
    double s = timer.time("replay.kernel",
                          [&] { executed = chain.sim.run(); });
    ns.push_back(s * 1e9 /
                 static_cast<double>(std::max<std::size_t>(executed, 1)));
  }
  return trace::percentile(ns, 0.50);
}

LdapCost ldap_cost(const ldap::Dit& dit, const std::string& filter,
                   HostTimer& timer) {
  LdapCost c;
  constexpr std::size_t kParses = 20000;
  c.parse_us = median_us(timer, "replay.ldap_parse", kParses, [&] {
    for (std::size_t i = 0; i < kParses; ++i) {
      g_sink = g_sink + (ldap::Filter::parse(filter) != nullptr ? 1 : 0);
    }
  });
  const ldap::FilterPtr parsed = ldap::Filter::parse(filter);
  const ldap::Dn base = ldap::Dn::parse("o=grid");
  // About 400k examined entries per batch, whatever the DIT's size.
  const std::size_t searches =
      std::max<std::size_t>(50, 400000 / std::max<std::size_t>(dit.size(), 1));
  c.entries = static_cast<double>(
      dit.search(base, ldap::Scope::Subtree, *parsed).entries_examined);
  c.search_us = median_us(timer, "replay.ldap_search", searches, [&] {
    for (std::size_t i = 0; i < searches; ++i) {
      g_sink = g_sink + dit.search(base, ldap::Scope::Subtree, *parsed)
                            .entries.size();
    }
  });
  return c;
}

ClassAdCost classad_cost(const hawkeye::Manager& manager, int machines,
                         int modules, const std::string& constraint,
                         HostTimer& timer) {
  ClassAdCost c;
  // Advertising side: the module fragments, the integrated Startd ad and
  // its rendering. Manager::advertise (insert, WAL append) needs a live
  // network and would replay kernel events ledger.kernel_s already counts.
  const std::vector<hawkeye::ModuleSpec> specs =
      hawkeye::scaled_modules(modules);
  constexpr std::size_t kAds = 500;
  c.build_ad_us = median_us(timer, "replay.classad_build", kAds, [&] {
    for (std::size_t i = 0; i < kAds; ++i) {
      std::vector<classad::ClassAd> parts;
      parts.reserve(specs.size());
      for (const hawkeye::ModuleSpec& mod : specs) {
        parts.push_back(hawkeye::run_module(mod, i + 1));
      }
      classad::ClassAd ad =
          hawkeye::build_startd_ad("sim-machine-" + std::to_string(i), parts);
      g_sink = g_sink + ad.to_string().size();
    }
  });

  // Query side: the constraint scan over every resident ad.
  std::vector<const classad::ClassAd*> ads;
  for (int i = 0; i < machines; ++i) {
    if (const classad::ClassAd* ad =
            manager.find_machine("sim-machine-" + std::to_string(i))) {
      ads.push_back(ad);
    }
  }
  if (ads.empty()) return c;
  constexpr std::size_t kScans = 5;
  c.scan_us = median_us(timer, "replay.classad_scan", kScans, [&] {
    for (std::size_t i = 0; i < kScans; ++i) {
      classad::ExprPtr expr = classad::parse_expression(constraint);
      std::size_t matches = 0;
      for (const classad::ClassAd* ad : ads) {
        if (classad::satisfies(*ad, *expr)) ++matches;
      }
      g_sink = g_sink + matches;
    }
  });
  return c;
}

}  // namespace perf
