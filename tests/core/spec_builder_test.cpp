/// SpecBuilder: validating ScenarioSpec construction. The point of the
/// API is that *every* problem is reported at once — setters and the
/// INI path record errors instead of throwing, and build() raises one
/// ConfigError listing them all.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "gridmon/core/scenario_spec.hpp"

namespace gridmon::core {
namespace {

TEST(SpecBuilderTest, CleanBuildMatchesDirectConstruction) {
  ScenarioSpec spec = ScenarioSpec::build()
                          .service(ServiceKind::GrisNocache)
                          .collectors(40)
                          .users({10, 50, 100})
                          .lucky_clients(true)
                          .window(30, 120)
                          .seed(7)
                          .build();
  EXPECT_EQ(spec.service, ServiceKind::GrisNocache);
  EXPECT_EQ(spec.collectors, 40);
  EXPECT_EQ(spec.users, (std::vector<int>{10, 50, 100}));
  EXPECT_TRUE(spec.lucky_clients);
  EXPECT_DOUBLE_EQ(spec.warmup, 30);
  EXPECT_DOUBLE_EQ(spec.duration, 120);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.engine.shards, 0);  // legacy engine by default
}

TEST(SpecBuilderTest, CollectsEveryError) {
  SpecBuilder b;
  b.users({});            // empty sweep
  b.collectors(0);        // must be positive
  b.window(-1, 0);        // negative warmup, zero duration
  b.set("experiment", "service", "frobnicator");  // unknown service
  b.set("experiment", "srevice", "gris");         // typo'd key
  try {
    b.build();
    FAIL() << "build() should have thrown";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("6 errors"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown service 'frobnicator'"), std::string::npos);
    EXPECT_NE(msg.find("unknown key 'srevice'"), std::string::npos);
    EXPECT_NE(msg.find("at least one sweep point"), std::string::npos);
    EXPECT_NE(msg.find("collectors must be positive"), std::string::npos);
    EXPECT_NE(msg.find("warmup must be non-negative"), std::string::npos);
    EXPECT_NE(msg.find("duration must be positive"), std::string::npos);
  }
}

TEST(SpecBuilderTest, IniPathCollectsAllBadKeys) {
  // First-error parsing would stop at the first bad key; the builder
  // reports all three.
  const std::string ini =
      "[experiment]\n"
      "service = gris\n"
      "users = ten\n"
      "collectors = -3\n"
      "[store]\n"
      "mode = paranoid\n";
  try {
    parse_scenario_spec(ini);
    FAIL() << "parse_scenario_spec should have thrown";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bad integer 'ten'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bad integer '-3'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown durability mode 'paranoid'"),
              std::string::npos)
        << msg;
  }
}

TEST(SpecBuilderTest, EngineSectionParses) {
  ScenarioSpec spec = parse_scenario_spec(
      "[experiment]\n"
      "service = gris\n"
      "[engine]\n"
      "shards = 8\n"
      "threads = 2\n"
      "lookahead = 0.005\n");
  EXPECT_EQ(spec.engine.shards, 8);
  EXPECT_EQ(spec.engine.threads, 2);
  EXPECT_DOUBLE_EQ(spec.engine.lookahead, 0.005);
  EXPECT_TRUE(spec.engine.sharded());
}

TEST(SpecBuilderTest, ShardedEngineRejectsUnsupportedCombinations) {
  // Push-only services have no pull query for the sharded frontier.
  EXPECT_THROW(ScenarioSpec::build()
                   .service(ServiceKind::StreamFanout)
                   .shards(4)
                   .build(),
               ConfigError);
  // Fault injection is a legacy-engine feature for now.
  EXPECT_THROW(parse_scenario_spec("[experiment]\nservice = gris\n"
                                   "[engine]\nshards = 4\n"
                                   "[faults]\ncrash = server, 30, 60\n"),
               ConfigError);
  fault::FaultPlan plan;
  plan.crash("server", 30, 60);
  EXPECT_THROW(
      ScenarioSpec::build().faults(std::move(plan)).shards(2).build(),
      ConfigError);
  // And so is the resilience layer.
  resilience::Config res;
  res.enabled = true;
  EXPECT_THROW(
      ScenarioSpec::build().resilience(res).shards(2).build(),
      ConfigError);
  // The frontier clients retry forever from the UC pool: the legacy
  // abandonment knobs and the lucky-client placement are rejected.
  EXPECT_THROW(ScenarioSpec::build().lucky_clients(true).shards(2).build(),
               ConfigError);
  EXPECT_THROW(ScenarioSpec::build().query_deadline(25).shards(2).build(),
               ConfigError);
  EXPECT_THROW(ScenarioSpec::build().max_attempts(5).shards(2).build(),
               ConfigError);
  // All knobs stay legal on the legacy engine.
  EXPECT_NO_THROW(
      ScenarioSpec::build().lucky_clients(true).query_deadline(25).build());
}

// Integer keys take whole integers only, and no number may be infinite:
// each input below used to be truncated, rounded to a neighbouring seed,
// cast out of range, or accepted as a run that never ends.
TEST(SpecBuilderTest, IniNumbersRejectFractionsOverflowAndInfinity) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"[experiment]\nservice = gris\nduration = inf\n", "bad number 'inf'"},
      {"[experiment]\nservice = gris\nseed = 1.5\n", "bad integer '1.5'"},
      {"[experiment]\nservice = gris\nseed = 9007199254740993.0\n",
       "bad integer '9007199254740993.0'"},
      {"[experiment]\nservice = gris\n[engine]\nshards = 2.5\n",
       "bad integer '2.5'"},
      {"[experiment]\nservice = gris\n[faults]\nmax_attempts = 3.7\n",
       "bad integer '3.7'"},
      {"[experiment]\nservice = gris\n[engine]\nshards = 1e10\n",
       "bad integer '1e10'"},
      {"[experiment]\nservice = gris\n[engine]\nthreads = 99999999999\n",
       "bad integer '99999999999'"},
  };
  for (const auto& [ini, why] : bad) {
    try {
      parse_scenario_spec(ini);
      ADD_FAILURE() << "accepted:\n" << ini;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
  // Whole values keep their exact meaning, all 64 bits of a seed included.
  ScenarioSpec spec = parse_scenario_spec(
      "[experiment]\nservice = gris\nseed = 9007199254740993\n"
      "[faults]\nmax_attempts = 3\n");
  EXPECT_EQ(spec.seed, 9007199254740993u);
  EXPECT_EQ(spec.max_attempts, 3);
}

// A seed is a uint64: the largest one is a seed like any other, and the
// first value past it, a sign or a non-decimal spelling is an error
// rather than a wrapped or truncated seed.
TEST(SpecBuilderTest, IniSeedTakesEveryUint64AndNothingBeyond) {
  ScenarioSpec spec = parse_scenario_spec(
      "[experiment]\nservice = gris\nseed = 18446744073709551615\n");
  EXPECT_EQ(spec.seed, 18446744073709551615u);
  for (const std::string bad :
       {"18446744073709551616", "-1", "+7", "0x10", "7 8"}) {
    try {
      parse_scenario_spec("[experiment]\nservice = gris\nseed = " + bad +
                          "\n");
      ADD_FAILURE() << "accepted seed = " << bad;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("bad integer '" + bad + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

// shards, threads and max_attempts are counts: zero is legal (legacy
// engine, hardware threads, no retry), a negative count or trailing text
// is not.
TEST(SpecBuilderTest, IniCountKeysTakeZeroButNotNegativesOrText) {
  ScenarioSpec spec = parse_scenario_spec(
      "[experiment]\nservice = gris\n[engine]\nshards = 0\nthreads = 0\n"
      "[faults]\nmax_attempts = 0\n");
  EXPECT_EQ(spec.engine.shards, 0);
  EXPECT_EQ(spec.engine.threads, 0);
  EXPECT_EQ(spec.max_attempts, 0);
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"[engine]\nshards = -1\n", "bad integer '-1'"},
      {"[engine]\nthreads = -2\n", "bad integer '-2'"},
      {"[faults]\nmax_attempts = -1\n", "bad integer '-1'"},
      {"[engine]\nshards = 4x\n", "bad integer '4x'"},
  };
  for (const auto& [section, why] : bad) {
    const std::string ini = "[experiment]\nservice = gris\n" + section;
    try {
      parse_scenario_spec(ini);
      ADD_FAILURE() << "accepted:\n" << ini;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
}

// Real-valued keys reject every non-finite spelling, in every section:
// an infinite window never ends and a NaN compares false against every
// range check the validation pass makes.
TEST(SpecBuilderTest, IniRealKeysRejectNanAndInfinity) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"[experiment]\nservice = gris\nduration = nan\n", "bad number 'nan'"},
      {"[experiment]\nservice = gris\nwarmup = infinity\n",
       "bad number 'infinity'"},
      {"[experiment]\nservice = gris\n[engine]\nlookahead = inf\n",
       "bad number 'inf'"},
      {"[experiment]\nservice = gris\n[faults]\nquery_deadline = NAN\n",
       "bad number 'NAN'"},
  };
  for (const auto& [ini, why] : bad) {
    try {
      parse_scenario_spec(ini);
      ADD_FAILURE() << "accepted:\n" << ini;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  }
}

TEST(SpecBuilderTest, SeededFromExistingSpecPreset) {
  ScenarioSpec preset;
  preset.service = ServiceKind::Agent;
  preset.collectors = 11;
  ScenarioSpec spec = SpecBuilder(preset).seed(9).build();
  EXPECT_EQ(spec.service, ServiceKind::Agent);
  EXPECT_EQ(spec.collectors, 11);
  EXPECT_EQ(spec.seed, 9u);
}

TEST(SpecBuilderTest, WhereTagPrefixesIniErrors) {
  SpecBuilder b;
  b.set("experiment", "users", "zero", "line 3");
  try {
    b.build();
    FAIL() << "build() should have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3: [experiment] users:"),
              std::string::npos)
        << e.what();
  }
}

TEST(SpecBuilderTest, StoreValidationStillApplies) {
  store::StoreConfig wal;
  wal.mode = store::DurabilityMode::Wal;
  EXPECT_THROW(ScenarioSpec::build()
                   .service(ServiceKind::Gris)
                   .store(wal)
                   .build(),
               ConfigError);
  EXPECT_NO_THROW(ScenarioSpec::build()
                      .service(ServiceKind::Registry)
                      .store(wal)
                      .build());
}

}  // namespace
}  // namespace gridmon::core
