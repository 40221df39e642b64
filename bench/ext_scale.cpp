/// Extension: engine-scalability sweep. The paper stops at 600 users
/// because the 2003 testbed did; this bench pushes the exp1-style
/// information-server configurations (MDS GRIS, Hawkeye Agent, R-GMA
/// ProducerServlet) to 100k concurrent clients on the legacy engine and
/// to one million users on the sharded conservative-lookahead engine
/// (core::FrontierWorkload, docs/SCALE.md), recording how fast the
/// *simulator* chews through the work: wall-clock per measurement
/// window, processed events per second, and per-point peak RSS.
///
/// Emits `BENCH_scale.json` — the repo's recorded perf trajectory. The
/// JSON carries the pre-overhaul 10k-user baseline (seed engine,
/// O(n)-rebuild event loop) so the speedup of the indexed-heap +
/// incremental-PS engine stays regression-checked, and in full mode a
/// legacy-vs-sharded pair at one million users so the frontier engine's
/// speedup is measured, not folklore.
///
///   $ ./bench/ext_scale                 # full sweep incl. both 1M points
///   $ ./bench/ext_scale --quick         # CI smoke: 1k/10k + sharded 1M
///   $ ./bench/ext_scale --users 10000   # one legacy point per series
///   $ ./bench/ext_scale --users 1000000 --shards 8   # one sharded point

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>
#if defined(__unix__) || defined(__APPLE__)
#define EXT_SCALE_HAS_FORK 1
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "bench_common.hpp"
#include "gridmon/metrics/report.hpp"

using namespace gridmon;
using bench::BenchOptions;
using core::MetricsReport;
using core::ScenarioSpec;
using core::ServiceKind;

namespace {

// Fixed measurement window, chosen to match the probe that recorded the
// pre-overhaul baseline: 30 s warmup + 60 s measured, 90 sim-seconds
// total per point. An engine benchmark wants identical windows in quick
// and full mode; only the user sweep is thinned.
constexpr double kWarmup = 30.0;
constexpr double kDuration = 60.0;

// Pre-overhaul wall-clock for the reference point (MDS GRIS cache,
// 10000 users, the window above), measured on the seed engine before
// the indexed-heap scheduler and incremental PS-rate rewrite. The
// acceptance bar for the overhaul is >= 3x against this number.
constexpr double kPreOverhaulWall10k = 3.90;

constexpr int kMillion = 1000000;
constexpr int kDefaultShards = 8;

struct ScalePoint {
  std::string series;
  int users = 0;
  MetricsReport m;  // core metrics + engine stats (events, wall, rss)
};

/// Reset the process's peak-RSS high-water mark (VmHWM) so the next
/// reading is per-point, not a process-lifetime monotone. The allocator
/// keeps freed pages resident, so first hand them back to the kernel
/// (else a small point inherits the previous point's arena residue),
/// then write "5" to clear_refs — the documented reset knob. If the
/// kernel refuses, readings degrade to the old monotone behavior.
void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream out("/proc/self/clear_refs");
  out << "5\n";
}

/// Run one point's metric function in a forked child and ship the
/// (all-double, trivially-copyable) MetricsReport back through a pipe.
/// clear_refs + malloc_trim only go so far — glibc cannot return
/// fragmented arena pages, so after a 1M-user point the parent's floor
/// RSS is hundreds of MB and every later point would inherit it. A
/// fresh process starts from a pristine heap, which makes the per-point
/// peak-RSS column measure the point. Falls back to running in-process
/// if fork/pipe fail (readings then degrade as described above).
template <typename Fn>
MetricsReport run_isolated(Fn&& fn) {
  static_assert(std::is_trivially_copyable_v<MetricsReport>);
#if defined(EXT_SCALE_HAS_FORK)
  int fds[2];
  if (pipe(fds) != 0) return fn();
  std::cout.flush();
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return fn();
  }
  if (pid == 0) {
    close(fds[0]);
    MetricsReport m = fn();
    ssize_t n = write(fds[1], &m, sizeof m);
    _exit(n == static_cast<ssize_t>(sizeof m) ? 0 : 1);
  }
  close(fds[1]);
  MetricsReport m;
  char* dst = reinterpret_cast<char*>(&m);
  std::size_t got = 0;
  while (got < sizeof m) {
    ssize_t n = read(fds[0], dst + got, sizeof m - got);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != sizeof m || status != 0) {
    std::cerr << "point child failed (status " << status
              << "); rerunning in-process\n";
    return fn();
  }
  return m;
#else
  return fn();
#endif
}

/// VmHWM from /proc/self/status — peak resident set, in KiB, since the
/// last reset_peak_rss().
std::size_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      std::size_t kb = 0;
      in >> kb;
      return kb;
    }
    in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

void progress(const ScalePoint& p) {
  std::cout << "  [" << p.series << "] users=" << p.users
            << " wall=" << metrics::Table::num(p.m.wall_clock_s, 3)
            << "s events=" << static_cast<std::uint64_t>(p.m.events)
            << " ev/s=" << metrics::Table::num(p.m.events_per_sec, 0)
            << " tput=" << metrics::Table::num(p.m.throughput)
            << " rss=" << static_cast<std::uint64_t>(p.m.peak_rss_kb)
            << "K\n";
}

/// One point on the engine its spec selects, in a forked child: the
/// spec's core::Deployment and one measurement window (which counts the
/// events), with the wall clock and peak RSS taken around the window.
ScalePoint run_scale_point(const std::string& series, const ScenarioSpec& spec,
                           int users) {
  auto measure = [&] {
    core::Deployment deployment(spec, users);
    reset_peak_rss();
    // gridmon-lint: suppress(determinism.wall-clock) -- measures the real
    // cost of running the simulator; never feeds sim state
    auto w0 = std::chrono::steady_clock::now();
    MetricsReport m = deployment.measure(users);
    // gridmon-lint: suppress(determinism.wall-clock) -- measures the real
    // cost of running the simulator; never feeds sim state
    auto w1 = std::chrono::steady_clock::now();
    m.wall_clock_s = std::chrono::duration<double>(w1 - w0).count();
    m.events_per_sec = m.wall_clock_s > 0 ? m.events / m.wall_clock_s : 0;
    m.peak_rss_kb = static_cast<double>(peak_rss_kb());
    return m;
  };
  ScalePoint p{series, users, run_isolated(measure)};
  progress(p);
  return p;
}

void write_json(const std::string& path, bool quick,
                const std::vector<ScalePoint>& points, double speedup_10k,
                double sharded_speedup_1m) {
  std::ofstream out(path);
  out.precision(6);
  out << "{\n"
      << "  \"bench\": \"ext_scale\",\n"
      << "  \"engine\": \"indexed-heap scheduler, incremental PS rates, "
      << "sharded conservative-lookahead frontier\",\n"
      << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
      << "  \"warmup_s\": " << kWarmup << ",\n"
      << "  \"duration_s\": " << kDuration << ",\n"
      << "  \"baseline_pre_overhaul\": {\"series\": \"MDS GRIS (cache)\", "
      << "\"users\": 10000, \"wall_clock_s\": " << kPreOverhaulWall10k
      << "},\n";
  if (speedup_10k > 0) {
    out << "  \"speedup_at_10k\": " << speedup_10k << ",\n";
  }
  if (sharded_speedup_1m > 0) {
    out << "  \"sharded_speedup_at_1m\": " << sharded_speedup_1m << ",\n";
  }
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    // "users" duplicates the schema's "x" under the name the perf-smoke
    // checks (and humans) expect; the rest flows through the shared
    // MetricsReport serializer.
    out << "    {\"series\": \"" << p.series << "\", \"users\": " << p.users
        << ", ";
    core::write_json_fields(out, p.m, core::kMetricCore | core::kMetricEngine);
    out << "}" << (i + 1 < points.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  // --shards is this bench's own flag; peel it off before the shared
  // parser (which rejects unknown options).
  int shard_override = 0;
  // The whole value must be a positive integer; anything else is a usage
  // error.
  auto parse_shards = [argv](const std::string& v) {
    int k = 0;
    auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), k);
    if (ec != std::errc() || end != v.data() + v.size() || k <= 0) {
      std::cerr << argv[0] << ": --shards needs a positive integer\n";
      std::exit(2);
    }
    return k;
  };
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      shard_override = parse_shards(arg.substr(9));
    } else if (arg == "--shards") {
      if (i + 1 >= argc) {
        std::cerr << argv[0] << ": --shards needs a value\n";
        std::exit(2);
      }
      shard_override = parse_shards(argv[++i]);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  BenchOptions opt = bench::parse_options(
      static_cast<int>(passthrough.size()), passthrough.data(), false,
      "[--shards K]");
  int shards = shard_override > 0 ? shard_override : kDefaultShards;

  std::vector<int> sweep;
  if (opt.users > 0) {
    sweep = {opt.users};
  } else if (opt.quick) {
    sweep = {1000, 10000};
  } else {
    sweep = {1000, 10000, 100000};
  }

  // The CLI's --seed, then this bench's fixed window: quick mode thins
  // only the sweep.
  auto scale_spec = [&opt](core::SpecBuilder builder) {
    return opt.apply(std::move(builder)).window(kWarmup, kDuration).build();
  };
  struct Config {
    std::string name;
    ScenarioSpec spec;
  };
  std::vector<Config> configs;
  configs.push_back(
      {"MDS GRIS (cache)",
       scale_spec(ScenarioSpec::build().service(ServiceKind::Gris))});
  configs.push_back(
      {"Hawkeye Agent",
       scale_spec(
           ScenarioSpec::build().service(ServiceKind::Agent).collectors(11))});
  configs.push_back(
      {"R-GMA ProducerServlet",
       scale_spec(ScenarioSpec::build().service(ServiceKind::RgmaMediated))});
  const ScenarioSpec sharded =
      scale_spec(core::SpecBuilder(configs[0].spec).shards(shards));

  std::vector<ScalePoint> points;
  if (opt.users > 0 && shard_override > 0) {
    // One explicit sharded point: the operator asked for a specific
    // (users, shards) pair; skip the legacy series sweep.
    std::cout << "Engine scalability: sharded GRIS point, " << opt.users
              << " users, " << shards << " shards\n";
    points.push_back(
        run_scale_point("MDS GRIS (cache, sharded)", sharded, opt.users));
  } else {
    std::cout << "Engine scalability: exp1-style services, " << sweep.front()
              << "-" << sweep.back() << " users, " << kWarmup << "+"
              << kDuration << " s windows\n";
    for (const Config& config : configs) {
      for (int n : sweep) {
        points.push_back(run_scale_point(config.name, config.spec, n));
      }
    }
    if (opt.users == 0) {
      // The million-user frontier. Full mode runs the legacy engine at
      // 1M too, so BENCH_scale.json carries the measured speedup pair;
      // quick mode (CI) runs only the sharded point.
      if (!opt.quick) {
        points.push_back(
            run_scale_point("MDS GRIS (cache)", configs[0].spec, kMillion));
      }
      points.push_back(
          run_scale_point("MDS GRIS (cache, sharded)", sharded, kMillion));
    }
  }

  double speedup_10k = 0;
  double legacy_1m_wall = 0;
  double sharded_1m_wall = 0;
  for (const ScalePoint& p : points) {
    if (p.series == "MDS GRIS (cache)" && p.users == 10000 &&
        p.m.wall_clock_s > 0) {
      speedup_10k = kPreOverhaulWall10k / p.m.wall_clock_s;
    }
    if (p.series == "MDS GRIS (cache)" && p.users == kMillion) {
      legacy_1m_wall = p.m.wall_clock_s;
    }
    if (p.series == "MDS GRIS (cache, sharded)" && p.users == kMillion) {
      sharded_1m_wall = p.m.wall_clock_s;
    }
  }
  if (speedup_10k > 0) {
    std::cout << "GRIS 10k-user window: "
              << metrics::Table::num(speedup_10k, 1)
              << "x faster than the pre-overhaul engine ("
              << kPreOverhaulWall10k << " s)\n";
  }
  double sharded_speedup_1m =
      legacy_1m_wall > 0 && sharded_1m_wall > 0
          ? legacy_1m_wall / sharded_1m_wall
          : 0;
  if (sharded_speedup_1m > 0) {
    std::cout << "GRIS 1M-user window: sharded engine "
              << metrics::Table::num(sharded_speedup_1m, 1)
              << "x faster than the legacy engine ("
              << metrics::Table::num(legacy_1m_wall, 1) << " s -> "
              << metrics::Table::num(sharded_1m_wall, 1) << " s)\n";
  }

  write_json("BENCH_scale.json", opt.quick, points, speedup_10k,
             sharded_speedup_1m);
  return 0;
}
