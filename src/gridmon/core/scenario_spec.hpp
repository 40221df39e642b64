#pragma once

/// \file scenario_spec.hpp
/// The unified scenario API: one declarative description (ScenarioSpec)
/// covering every deployment the study measures, one factory
/// (make_scenario) turning a spec into a live deployment on a Testbed.
/// Bench binaries, gridmon_run and the examples all construct through
/// this factory; the concrete scenario structs in scenarios.hpp are an
/// implementation detail reachable (when a bench needs direct member
/// access) via static_cast on the returned Scenario.
///
/// The same spec doubles as the gridmon_run INI format:
///
///   [experiment]
///   service   = gris            ; gris | gris-nocache | giis | agent |
///                               ; manager | registry | rgma-mediated |
///                               ; rgma-direct | rgma-standalone |
///                               ; giis-aggregate | manager-aggregate |
///                               ; hierarchy | rgma-composite |
///                               ; stream-fanout | rgma-replicated
///   query     = default         ; default | all | part | dump |
///                               ; constraint | site-routed
///   users     = 1, 10, 100      ; sweep of concurrent users
///   collectors = 10             ; providers/modules/producers per server
///   clients   = uc              ; uc | lucky
///   warmup    = 120             ; seconds
///   duration  = 600             ; seconds (the paper's 10 minutes)
///   seed      = 42
///
/// Topology keys for the extended services (all optional):
///
///   gris_count = 5        ; GIIS / hierarchy: number of GRIS aggregated
///   machines  = 100       ; manager-aggregate: advertising machines
///   two_level = true      ; hierarchy: route via 6 site GIISes
///   replicas  = 1         ; rgma-replicated: ProducerServlet replicas
///   pool_size = 4         ; rgma-replicated: servlet container pool
///   servlets  = 5         ; registry: ProducerServlet count
///   producers_each = 10   ; registry: producers per servlet
///   subscribers = 100     ; stream-fanout: consumer subscriptions
///   sources   = 10        ; rgma-composite: source servlets
///   table     = cpuload   ; R-GMA table queried
///   constraint = CpuLoad > 100000   ; manager-aggregate scan predicate
///   cachettl  = 45        ; giis/hierarchy cache TTL (seconds)
///   provider_ttl = 30     ; GRIS provider cache TTL override
///   gris_backlog = 512    ; GRIS listen backlog override (0 = default)
///
/// An optional [faults] section schedules deterministic fault injection
/// (times are absolute sim seconds, so warmup is included):
///
///   [faults]
///   crash            = server, 300, 360   ; target, at, restart-at
///   blackhole        = server, 300, 360   ; crash, host vanishes (no RST)
///   partition        = anl, uc, 300, 360  ; site-a, site-b, at, heal-at
///   degrade          = anl, uc, 300, 360, 0.1   ; ... capacity factor
///   slow_host        = lucky7, 300, 360, 0.25   ; host, at, until, factor
///   collector_outage = server, 300, 360   ; sensors hang, server stays up
///   query_deadline   = 25    ; client gives up a query after this long
///   max_attempts     = 5     ; retries before abandoning (0 = forever)
///
/// An optional [store] section turns on durable state for services that
/// support it (registry, manager, manager-aggregate). Omitting it (or
/// mode = volatile) reproduces the paper's soft-state behaviour exactly:
///
///   [store]
///   mode = wal+snapshot       ; volatile | wal | wal+snapshot
///   fsync_latency = 0.008     ; seconds per write barrier
///   write_bandwidth = 25e6    ; sequential bytes/second
///   group_commit_window = 0.005   ; batch appends for this long
///   snapshot_interval = 60    ; seconds between snapshots
///   replay_cpu_per_record = 5e-5  ; recovery CPU per replayed record
///
/// An optional [engine] section selects the execution engine
/// (docs/SCALE.md). Omitting it (or shards = 0) keeps the legacy
/// single-queue sequential engine, byte-identical to every previous
/// release:
///
///   [engine]
///   shards    = 8      ; user partitions for the sharded engine (0 = legacy)
///   lookahead = 0      ; conservative window seconds (0 = derive from the
///                      ; network's minimum cross-site one-way latency)
///
/// An optional [resilience] section turns on the overload-control layer
/// (docs/RESILIENCE.md). Omitting it (or enabled = false) keeps every
/// run byte-identical to a tree without the layer:
///
///   [resilience]
///   enabled  = true           ; master switch (client + server sides)
///   client   = true           ; client side only (budget + breaker)
///   server   = true           ; server side only (queue + shed + stale)
///   retry_budget = 10         ; banked retry tokens (bucket capacity)
///   retry_ratio  = 0.1        ; tokens deposited per fresh request
///   breaker_window = 20       ; outcomes in the failure-rate window
///   breaker_min_samples = 10  ; don't trip before this many outcomes
///   breaker_threshold = 0.5   ; failure fraction that trips Open
///   breaker_open_secs = 10    ; seconds Open before half-open probing
///   breaker_probes = 1        ; concurrent half-open probes
///   discipline = fifo         ; fifo | lifo | edf (freed-slot hand-off)
///   queue_limit = 256         ; parked waiters beyond the listen queue
///   deadline_budget = 0       ; shed after this queue wait (0 = off)
///   serve_stale = false       ; caches answer stale under shed pressure
///   pressure = 0.9            ; in-flight/backlog ratio = "overloaded"
///   goodput_deadline = 0      ; response bound for goodput (0 = all)
///
/// Lines starting with '#' or ';' are comments; inline ';' comments are
/// stripped. Unknown keys are an error (catches typos).

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "gridmon/fault/plan.hpp"
#include "gridmon/resilience/policy.hpp"
#include "gridmon/store/durable.hpp"

namespace gridmon::core {

class Scenario;
class SpecBuilder;
class Testbed;

class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& msg) : std::runtime_error(msg) {}
};

/// The [engine] execution knobs. `shards = 0` keeps the legacy
/// single-queue sequential engine (byte-identical to every previous
/// release); `shards >= 1` opts a scale run into the sharded
/// conservative-lookahead engine with that many user partitions.
struct EngineSpec {
  int shards = 0;     // user partitions (0 = legacy sequential engine)
  double lookahead = 0;  // window seconds (0 = derive from the network)

  bool sharded() const { return shards > 0; }
};

/// Every deployment shape the study measures. The first eight are the
/// paper's own configurations; the rest are this repo's extensions and
/// ablations (multi-level hierarchy, the R-GMA aggregate the paper
/// lists as "None", push fan-out, servlet replication).
enum class ServiceKind {
  Gris,
  GrisNocache,
  Giis,
  Agent,
  Manager,
  Registry,
  RgmaMediated,
  RgmaDirect,
  RgmaStandalone,
  GiisAggregate,
  ManagerAggregate,
  Hierarchy,
  RgmaComposite,
  StreamFanout,
  RgmaReplicated,
};

/// Which canned query the workload issues. Default picks the query the
/// corresponding experiment used (Part scope for a GIIS, status for the
/// Manager, the constraint scan for manager-aggregate, ...).
enum class QueryVariant {
  Default,
  ScopeAll,           // MDS: query all data
  ScopePart,          // MDS: query one provider's slice
  ManagerDump,        // Hawkeye: full-data pool dump (Experiment 3)
  ManagerConstraint,  // Hawkeye: worst-case constraint scan (Experiment 4)
  SiteRouted,         // hierarchy: round-robin over the site GIISes
};

struct ScenarioSpec {
  ServiceKind service = ServiceKind::Gris;
  QueryVariant query = QueryVariant::Default;
  std::vector<int> users{10};
  /// Providers (GRIS), modules (Agent/Manager), producers (R-GMA),
  /// providers-per-GRIS (GIIS). Note the scenario-struct defaults differ
  /// for Hawkeye (11 modules); benches pass that explicitly.
  int collectors = 10;
  bool lucky_clients = false;
  double warmup = 120;
  double duration = 600;
  std::uint64_t seed = 42;

  // ---- topology knobs for specific services (ignored elsewhere) ----
  std::string gris_host = "lucky7";  // Gris*: hosting machine
  int gris_count = 5;       // Giis / GiisAggregate / Hierarchy
  int machines = 100;       // ManagerAggregate: advertisers
  bool two_level = false;   // Hierarchy: route via site GIISes
  int replicas = 1;         // RgmaReplicated
  int pool_size = 4;        // RgmaReplicated: servlet pool
  int servlets = 5;         // Registry
  int producers_each = 10;  // Registry
  int subscribers = 100;    // StreamFanout
  int sources = 10;         // RgmaComposite: source servlets
  std::string table = "cpuload";                // R-GMA table
  std::string constraint = "CpuLoad > 100000";  // ManagerAggregate scan
  double cachettl = 0;      // Giis/Hierarchy TTL (0 = service default)
  /// GRIS provider overrides (0 = keep default_providers() values).
  double provider_ttl = 0;
  /// GRIS listen-backlog override (0 = GrisConfig default). The overload
  /// benches shrink it so admission control, not slapd's worker queue,
  /// bounds in-server latency.
  int gris_backlog = 0;
  int provider_entries = 0;
  int provider_bytes = 0;
  /// RgmaStandalone: flag replies stale once publishers go silent (0 =
  /// never) and self-publish period for the servlet's producers (0 = off).
  double ps_stale_after = 0;
  double self_publish_interval = 0;
  /// Manager ad bookkeeping overrides (0 = service default).
  double manager_ad_lifetime = 0;
  double manager_stale_after = 0;

  /// The [store] durability knobs (volatile = the paper's soft state;
  /// only registry / manager / manager-aggregate honour other modes).
  store::StoreConfig store;

  /// The [faults] schedule (empty = fault-free run, zero overhead).
  fault::FaultPlan faults;
  /// Client-side end-to-end query deadline (0 = wait forever).
  double query_deadline = 0;
  /// Retries before a query is abandoned (0 = retry forever).
  int max_attempts = 0;

  /// The [resilience] overload-control knobs (disabled = byte-identical
  /// legacy behavior).
  resilience::Config resilience;
  /// Response-time bound for a completion to count toward goodput in
  /// measure() (0 = every completion is good).
  double goodput_deadline = 0;

  /// The [engine] execution knobs (shards = 0 keeps the legacy engine).
  EngineSpec engine;

  /// Host whose Ganglia metrics are reported (derived from the service).
  std::string server_host() const;
  std::string service_name() const;

  /// Start a validating builder. Prefer this over mutating fields
  /// directly in new code (gridmon_lint's spec-mutation check enforces
  /// it inside src/gridmon): the builder collects *every* error and
  /// reports them all at once from SpecBuilder::build().
  static SpecBuilder build();
};

/// Validating ScenarioSpec construction. Setters never throw; they (and
/// the INI `set()` path) record malformed input, and `build()` runs the
/// full cross-field validation, throwing one ConfigError that lists
/// every problem found rather than stopping at the first.
class SpecBuilder {
 public:
  SpecBuilder() = default;
  /// Seed the builder from an existing spec (e.g. a bench preset).
  explicit SpecBuilder(ScenarioSpec base) : spec_(std::move(base)) {}

  // ---- typed setters (validated in build()) ----
  SpecBuilder& service(ServiceKind v) { spec_.service = v; return *this; }
  SpecBuilder& query(QueryVariant v) { spec_.query = v; return *this; }
  SpecBuilder& users(std::vector<int> v) { spec_.users = std::move(v); return *this; }
  SpecBuilder& collectors(int v) { spec_.collectors = v; return *this; }
  SpecBuilder& lucky_clients(bool v) { spec_.lucky_clients = v; return *this; }
  SpecBuilder& window(double warmup, double duration) {
    spec_.warmup = warmup;
    spec_.duration = duration;
    return *this;
  }
  SpecBuilder& seed(std::uint64_t v) { spec_.seed = v; return *this; }
  SpecBuilder& gris_host(std::string v) { spec_.gris_host = std::move(v); return *this; }
  SpecBuilder& gris_count(int v) { spec_.gris_count = v; return *this; }
  SpecBuilder& machines(int v) { spec_.machines = v; return *this; }
  SpecBuilder& two_level(bool v) { spec_.two_level = v; return *this; }
  SpecBuilder& replicas(int v) { spec_.replicas = v; return *this; }
  SpecBuilder& pool_size(int v) { spec_.pool_size = v; return *this; }
  SpecBuilder& servlets(int v) { spec_.servlets = v; return *this; }
  SpecBuilder& producers_each(int v) { spec_.producers_each = v; return *this; }
  SpecBuilder& subscribers(int v) { spec_.subscribers = v; return *this; }
  SpecBuilder& sources(int v) { spec_.sources = v; return *this; }
  SpecBuilder& table(std::string v) { spec_.table = std::move(v); return *this; }
  SpecBuilder& constraint(std::string v) { spec_.constraint = std::move(v); return *this; }
  SpecBuilder& cachettl(double v) { spec_.cachettl = v; return *this; }
  SpecBuilder& provider_ttl(double v) { spec_.provider_ttl = v; return *this; }
  SpecBuilder& gris_backlog(int v) { spec_.gris_backlog = v; return *this; }
  SpecBuilder& provider_entries(int v) { spec_.provider_entries = v; return *this; }
  SpecBuilder& provider_bytes(int v) { spec_.provider_bytes = v; return *this; }
  SpecBuilder& ps_stale_after(double v) { spec_.ps_stale_after = v; return *this; }
  SpecBuilder& self_publish_interval(double v) { spec_.self_publish_interval = v; return *this; }
  SpecBuilder& manager_ad_lifetime(double v) { spec_.manager_ad_lifetime = v; return *this; }
  SpecBuilder& manager_stale_after(double v) { spec_.manager_stale_after = v; return *this; }
  SpecBuilder& store(store::StoreConfig v) { spec_.store = std::move(v); return *this; }
  SpecBuilder& faults(fault::FaultPlan v) { spec_.faults = std::move(v); return *this; }
  SpecBuilder& query_deadline(double v) { spec_.query_deadline = v; return *this; }
  SpecBuilder& max_attempts(int v) { spec_.max_attempts = v; return *this; }
  SpecBuilder& resilience(resilience::Config v) { spec_.resilience = std::move(v); return *this; }
  SpecBuilder& goodput_deadline(double v) { spec_.goodput_deadline = v; return *this; }
  SpecBuilder& engine(EngineSpec v) { spec_.engine = v; return *this; }
  SpecBuilder& shards(int v) { spec_.engine.shards = v; return *this; }
  SpecBuilder& lookahead(double v) { spec_.engine.lookahead = v; return *this; }

  /// The INI path: apply one `[section] key = value` triple. Malformed
  /// input is recorded (with `where`, e.g. a line number) instead of
  /// thrown, so a config file reports every bad key at once.
  SpecBuilder& set(const std::string& section, const std::string& key,
                   const std::string& value, const std::string& where = "");

  /// Record an error found outside the builder (e.g. a structural INI
  /// problem) so it joins the final report.
  SpecBuilder& note_error(std::string message);

  /// Errors collected so far (before build()'s validation pass).
  const std::vector<std::string>& errors() const { return errors_; }

  /// Validate everything and return the spec. Throws one ConfigError
  /// listing every collected and validation error; never throws on a
  /// clean spec.
  ScenarioSpec build();

 private:
  ScenarioSpec spec_;
  std::vector<std::string> errors_;
};

/// Build the deployment `spec` describes on `tb`: construct the services,
/// wire registrations, and bind the canonical query (per spec.query) so
/// the result is ready for `UserWorkload(tb, scenario->query_fn())`.
/// Does NOT advance simulated time — call `scenario->prefill()` once
/// afterwards to run the deployment's settling phase (cache warm-up,
/// first advertisements, registration rounds). Throws ConfigError when
/// `spec` fails SpecBuilder's validation pass (the same check build()
/// runs, so a directly mutated spec is held to it too) or names a query
/// variant the service cannot answer.
std::unique_ptr<Scenario> make_scenario(Testbed& tb, const ScenarioSpec& spec);

/// Parse the INI text through a SpecBuilder. Structural problems (a
/// malformed line, a missing [experiment] section) throw immediately
/// with a line number; key-level problems are collected and reported
/// together in one ConfigError from the builder's validation pass.
ScenarioSpec parse_scenario_spec(const std::string& text);

/// Low-level INI scan: section -> key -> value (all trimmed, keys
/// lowercased). Exposed for tests.
std::map<std::string, std::map<std::string, std::string>> parse_ini(
    const std::string& text);

}  // namespace gridmon::core
