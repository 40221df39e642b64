/// gridmon_bench — the end-to-end benchmark. See perf/README.md.
///
///   gridmon_bench [--workload W] [--seed N] [--runs N] [--seconds S]
///                 [--trace 0|1] [--out DIR] [--trace-dir DIR]
///
/// Each timed run is one forked child, started one after another, so
/// every run starts from a fresh heap and its peak RSS is the child's
/// own. Prints every metric as `workload metric value unit`, writes
/// <out>/<workload>.json plus <out>/host_spans.json, and ends stdout with
/// one JSON summary line. Exits 1 when a correctness check fails, 2 on a
/// usage error.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "gridmon/trace/breakdown.hpp"

namespace perf {
namespace {

struct Metric {
  std::string name;
  std::string unit;
};

const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> kMetrics{
      {"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}};
  return kMetrics;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> kMetrics = [] {
    std::vector<Metric> m{
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.slice_ms_p50", "ms"},
        {"sim.slice_ms_p97", "ms"},
        {"sim.live_tasks_peak", "count"},
        {"sim.shard_msgs", "count"},
        {"sim.replay_event_ns", "ns"},
        {"core.fast_refused", "count"},
        {"core.queries", "count"},
        {"core.attempts", "count"},
        {"core.completions", "count"},
        {"core.useful_ratio", "ratio"},
        {"core.setup_testbed_s", "s"},
        {"core.setup_scenario_s", "s"},
        {"core.setup_prefill_s", "s"},
        {"core.setup_spawn_s", "s"},
        {"net.port_admitted", "count"},
        {"net.port_refused", "count"},
        {"net.server_nic_flows_mean", "flows"},
        {"host.server_runq_mean", "jobs"},
        {"host.server_cpu_pct", "%"},
        {"host.server_load1", "load"},
        {"mds.giis_registrations", "count"},
        {"mds.giis_entries", "count"},
        {"hawkeye.ads_received", "count"},
        {"hawkeye.ads_dropped", "count"},
        {"store.wal_bytes", "bytes"},
        {"store.flushes", "count"},
        {"ldap.filter_parse_us", "us"},
        {"ldap.search_us", "us"},
        {"ldap.search_entries", "count"},
        {"classad.build_ad_us", "us"},
        {"classad.scan_us", "us"},
        {"ledger.kernel_s", "s"},
        {"ledger.ldap_s", "s"},
        {"ledger.classad_s", "s"},
        {"ledger.explained_frac", "ratio"},
        {"trace.overhead_x", "x"},
        {"trace.spans", "count"},
        {"trace.counter_samples", "count"},
        {"model.tput_qps", "1/s"},
        {"model.resp_p50_s", "sim_s"},
        {"model.resp_p99_s", "sim_s"},
        {"model.refused_per_s", "1/s"},
        {"model.digest", "hash"},
    };
    for (const char* kind : kStageKinds) {
      const std::string key = std::string("stage.") + kind;
      m.push_back({key + ".count", "count"});
      m.push_back({key + ".self_share", "ratio"});
      m.push_back({key + ".p50_ms", "sim_ms"});
    }
    return m;
  }();
  return kMetrics;
}

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 42;
  int runs = 0;        // 0: 5, or the --seconds minimum
  double seconds = 0;  // > 0: keep starting runs until this much has passed
  bool trace = true;
  std::string out = "build-perf/results";
  std::string trace_dir;
};

[[noreturn]] void usage(const std::string& error) {
  std::ostream& os = error.empty() ? std::cout : std::cerr;
  if (!error.empty()) os << "gridmon_bench: " << error << "\n";
  os << "usage: gridmon_bench [--workload W|all] [--seed N] [--runs N]\n"
        "                     [--seconds S] [--trace 0|1] [--out DIR]\n"
        "                     [--trace-dir DIR]\nworkloads:";
  for (const std::string& w : workload_names()) os << " " << w;
  os << "\n";
  std::exit(error.empty() ? 0 : 2);
}

template <typename T>
T parse_number(const std::string& flag, const std::string& text) {
  T v{};
  auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size()) {
    usage(flag + " needs a number, got '" + text + "'");
  }
  return v;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  std::string workload = "all";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage("");
    std::string value;
    if (auto eq = arg.find('='); arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(arg + " needs a value");
    }
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      opt.seed = parse_number<std::uint64_t>(arg, value);
    } else if (arg == "--runs") {
      opt.runs = parse_number<int>(arg, value);
      if (opt.runs < 1) usage("--runs must be at least 1");
    } else if (arg == "--seconds") {
      opt.seconds = parse_number<double>(arg, value);
      if (!(opt.seconds > 0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--out") {
      opt.out = value;
    } else if (arg == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      usage("unknown option '" + arg + "'");
    }
  }
  if (workload == "all") {
    opt.workloads = workload_names();
  } else if (std::find(workload_names().begin(), workload_names().end(),
                       workload) != workload_names().end()) {
    opt.workloads = {workload};
  } else {
    usage("unknown workload '" + workload + "'");
  }
  return opt;
}

/// Shortest round-trip decimal form; JSON has no NaN or infinity.
std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  return std::string(buf, end);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---- child runs ----

std::string encode(const RunRecord& r) {
  std::ostringstream os;
  for (const auto& [key, value] : r.values) os << "v " << key << " " << num(value) << "\n";
  for (double ms : r.slice_ms) os << "s " << num(ms) << "\n";
  for (const HostSpan& s : r.spans) {
    os << "h " << num(s.ts_us) << " " << num(s.dur_us) << " " << s.name << "\n";
  }
  if (!r.error.empty()) {
    std::string e = r.error;
    std::replace(e.begin(), e.end(), '\n', ' ');
    os << "e " << e << "\n";
  }
  return os.str();
}

RunRecord decode(const std::string& blob) {
  RunRecord r;
  std::istringstream in(blob);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "v") {
      std::string key;
      double v = 0;
      ls >> key >> v;
      r.values[key] = v;
    } else if (tag == "s") {
      double v = 0;
      ls >> v;
      r.slice_ms.push_back(v);
    } else if (tag == "h") {
      HostSpan s;
      ls >> s.ts_us >> s.dur_us;
      std::getline(ls >> std::ws, s.name);
      r.spans.push_back(std::move(s));
    } else if (tag == "e") {
      std::getline(ls >> std::ws, r.error);
    }
  }
  return r;
}

/// Run `fn` in a forked child and wait for it. The child's peak RSS
/// (ru_maxrss, via wait4) goes to `rss_mb`.
RunRecord in_child(const std::function<RunRecord()>& fn, double& rss_mb) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  std::cerr.flush();
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    RunRecord r;
    try {
      r = fn();
    } catch (const std::exception& e) {
      r.error = e.what();
    } catch (...) {
      r.error = "unknown exception";
    }
    const std::string blob = encode(r);
    std::size_t sent = 0;
    while (sent < blob.size()) {
      ssize_t n = write(fds[1], blob.data() + sent, blob.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(3);
      sent += static_cast<std::size_t>(n);
    }
    // Skip teardown: freeing a million users' state is not the run.
    _exit(r.error.empty() ? 0 : 1);
  }
  close(fds[1]);
  std::string blob;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    blob.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  RunRecord r = decode(blob);
  if (r.error.empty() && !(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    r.error = "child ended with status " + std::to_string(status);
  }
  rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return r;
}

// ---- statistics ----

double median(const std::vector<double>& v) {
  return gridmon::trace::percentile(v, 0.50);
}

/// Quartiles as Python's statistics.quantiles(v, n=4) (exclusive
/// method), so this program and compare.py agree.
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  if (v.size() == 1) return {v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  auto cut = [&](long i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    long delta = i * m - j * 4;
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4;
  };
  return {cut(1), cut(3)};
}

// ---- one workload ----

struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::vector<double> values;
};

struct WorkloadResult {
  std::string name;
  std::vector<RunRecord> runs;
  std::vector<double> rss_mb;
  bool traced = false;
  RunRecord trace_run;
  std::vector<std::string> problems;
  double attempted = 0;
  double failed = 0;
  std::map<std::string, Summary> end_to_end;
  std::map<std::string, double> per_layer;
};

double value(const RunRecord& r, const std::string& key) {
  auto it = r.values.find(key);
  return it == r.values.end() ? 0 : it->second;
}

/// The correctness gate: every run healthy, deterministic across runs
/// (same digest, same event count), completing queries with no errors;
/// the traced run (tracing on, unsliced) must reproduce the same outputs.
/// A run that fails a check counts all its operations as failed; a run
/// that produced no record counts as one failed operation.
void check(WorkloadResult& w) {
  std::map<double, int> digests;
  for (const RunRecord& r : w.runs) {
    if (r.error.empty()) ++digests[value(r, "model.digest")];
  }
  double ref_digest = 0;
  int best = 0;
  for (const auto& [d, n] : digests) {
    if (n > best) {
      best = n;
      ref_digest = d;
    }
  }
  double ref_events = -1;
  for (const RunRecord& r : w.runs) {
    if (r.error.empty() && value(r, "model.digest") == ref_digest) {
      ref_events = value(r, "sim.events");
      break;
    }
  }
  auto judge = [&](const RunRecord& r, const std::string& label) {
    std::vector<std::string> found;
    if (!r.error.empty()) {
      found.push_back(label + ": " + r.error);
    } else {
      if (value(r, "model.digest") != ref_digest) {
        found.push_back(label + ": model digest differs from the other runs");
      }
      if (value(r, "sim.events") != ref_events) {
        found.push_back(label + ": event count differs from the other runs");
      }
      if (!(value(r, "core.completions") > 0)) {
        found.push_back(label + ": no query completed in the window");
      }
      if (value(r, "core.errors") != 0) {
        found.push_back(label + ": queries errored on a fault-free workload");
      }
    }
    double ops = r.error.empty() ? value(r, "core.queries") : 1;
    w.attempted += ops;
    w.failed += found.empty() ? value(r, "core.errors") : ops;
    w.problems.insert(w.problems.end(), found.begin(), found.end());
  };
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    judge(w.runs[i], "run " + std::to_string(i));
  }
  if (w.traced) judge(w.trace_run, "traced run");
}

void aggregate(WorkloadResult& w) {
  std::vector<const RunRecord*> ok;
  std::vector<double> wall, window, setup, rss, slices;
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    const RunRecord& r = w.runs[i];
    if (!r.error.empty()) continue;
    ok.push_back(&r);
    wall.push_back(value(r, "wall_s"));
    window.push_back(value(r, "window_s"));
    setup.push_back(value(r, "setup_s"));
    rss.push_back(w.rss_mb[i]);
    slices.insert(slices.end(), r.slice_ms.begin(), r.slice_ms.end());
  }
  auto summarize = [](const std::vector<double>& v) {
    Summary s;
    s.values = v;
    s.median = median(v);
    std::tie(s.q1, s.q3) = quartiles(v);
    return s;
  };
  w.end_to_end["wall_s"] = summarize(wall);
  w.end_to_end["setup_s"] = summarize(setup);
  w.end_to_end["peak_rss_mb"] = summarize(rss);
  if (!w.traced || ok.empty() || !w.trace_run.error.empty()) return;

  // Deterministic counts are identical in every healthy run; take the
  // first. Host times are medians over the runs.
  const double wall_med = w.end_to_end["wall_s"].median;
  const double window_med = median(window);
  const RunRecord& first = *ok.front();
  const RunRecord& t = w.trace_run;
  auto& p = w.per_layer;
  for (const char* key :
       {"sim.events", "sim.shard_msgs", "core.fast_refused", "core.queries",
        "core.attempts", "core.completions", "net.port_admitted",
        "net.port_refused", "host.server_cpu_pct", "host.server_load1",
        "mds.giis_registrations", "mds.giis_entries", "hawkeye.ads_received",
        "hawkeye.ads_dropped", "store.wal_bytes", "store.flushes",
        "model.tput_qps", "model.resp_p50_s", "model.resp_p99_s",
        "model.refused_per_s", "model.digest"}) {
    p[key] = value(first, key);
  }
  double live_peak = 0;
  for (const RunRecord* r : ok) {
    live_peak = std::max(live_peak, value(*r, "sim.live_tasks_peak"));
  }
  p["sim.live_tasks_peak"] = live_peak;
  p["sim.ns_per_event"] =
      p["sim.events"] > 0 ? wall_med * 1e9 / p["sim.events"] : 0;
  p["sim.slice_ms_p50"] = gridmon::trace::percentile(slices, 0.50);
  p["sim.slice_ms_p97"] = gridmon::trace::percentile(slices, 0.97);
  p["core.useful_ratio"] = p["core.attempts"] > 0
                               ? p["core.completions"] / p["core.attempts"]
                               : 0;
  for (const char* key : {"core.setup_testbed_s", "core.setup_scenario_s",
                          "core.setup_prefill_s", "core.setup_spawn_s"}) {
    std::vector<double> v;
    for (const RunRecord* r : ok) v.push_back(value(*r, key));
    p[key] = median(v);
  }
  for (const Metric& m : per_layer_metrics()) {
    if (m.name.rfind("stage.", 0) == 0) p[m.name] = value(t, m.name);
  }
  for (const char* key :
       {"host.server_runq_mean", "net.server_nic_flows_mean",
        "ldap.filter_parse_us", "ldap.search_us", "ldap.search_entries",
        "classad.build_ad_us", "classad.scan_us", "sim.replay_event_ns",
        "trace.spans", "trace.counter_samples"}) {
    p[key] = value(t, key);
  }

  // The ledger: replayed per-operation cost times the operation counts,
  // against the host time of the measured 60 simulated seconds.
  p["ledger.kernel_s"] =
      p["sim.replay_event_ns"] * 1e-9 * value(first, "sim.events_window");
  // Each admitted query runs one search; the traced span count also
  // catches the searches cache refreshes make, where a trace exists.
  double searches = p["stage.ldap_search.count"] > 0
                        ? p["stage.ldap_search.count"]
                        : p["net.port_admitted"];
  p["ledger.ldap_s"] =
      (p["ldap.filter_parse_us"] + p["ldap.search_us"]) * 1e-6 * searches;
  p["ledger.classad_s"] =
      (p["classad.build_ad_us"] *
           (p["hawkeye.ads_received"] + p["hawkeye.ads_dropped"]) +
       p["classad.scan_us"] * p["stage.classad_eval.count"]) *
      1e-6;
  p["ledger.explained_frac"] =
      window_med > 0 ? (p["ledger.kernel_s"] + p["ledger.ldap_s"] +
                        p["ledger.classad_s"]) /
                           window_med
                     : 0;
  p["trace.overhead_x"] =
      window_med > 0 ? value(t, "window_s") / window_med : 0;
}

WorkloadResult bench_workload(const std::string& name, const Options& opt,
                              Clock::time_point epoch,
                              std::vector<std::pair<int, HostSpan>>& spans,
                              int pid) {
  WorkloadResult w;
  w.name = name;
  const int min_runs =
      opt.runs > 0 ? opt.runs : opt.seconds > 0 ? (opt.trace ? 4 : 3) : 5;
  const auto begin = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - begin).count();
  };
  auto keep = [&](int tid, RunRecord& r, const std::string& label,
                  Clock::time_point t0) {
    for (HostSpan& s : r.spans) spans.emplace_back(pid * 1000 + tid, std::move(s));
    r.spans.clear();
    double ts = std::chrono::duration<double, std::micro>(t0 - epoch).count();
    double dur = std::chrono::duration<double, std::micro>(Clock::now() - t0)
                     .count();
    spans.emplace_back(pid * 1000 + tid, HostSpan{label, ts, dur});
  };
  for (int i = 0; i < min_runs || (opt.seconds > 0 && elapsed() < opt.seconds);
       ++i) {
    double rss = 0;
    auto t0 = Clock::now();
    RunRecord r = in_child(
        [&] { return timed_run(name, opt.seed, epoch); }, rss);
    keep(i, r, "run " + std::to_string(i), t0);
    std::cerr << "[" << name << "] run " << i << ": wall "
              << num(value(r, "wall_s")) << " s, setup "
              << num(value(r, "setup_s")) << " s, rss " << num(rss) << " MB"
              << (r.error.empty() ? "" : ", FAILED: " + r.error) << "\n";
    w.runs.push_back(std::move(r));
    w.rss_mb.push_back(rss);
  }
  if (opt.trace) {
    double depth = 0;
    for (const RunRecord& r : w.runs) {
      depth = std::max(depth, value(r, "sim.live_tasks_peak"));
    }
    double rss = 0;
    auto t0 = Clock::now();
    w.trace_run = in_child(
        [&] {
          return traced_run(name, opt.seed, epoch,
                            static_cast<std::size_t>(depth), opt.trace_dir);
        },
        rss);
    keep(999, w.trace_run, "traced run", t0);
    w.traced = true;
    std::cerr << "[" << name << "] traced run: window "
              << num(value(w.trace_run, "window_s")) << " s"
              << (w.trace_run.error.empty()
                      ? ""
                      : ", FAILED: " + w.trace_run.error)
              << "\n";
  }
  check(w);
  aggregate(w);
  return w;
}

// ---- output ----

void print_metrics(const WorkloadResult& w) {
  for (const Metric& m : end_to_end_metrics()) {
    const Summary& s = w.end_to_end.at(m.name);
    std::cout << w.name << " " << m.name << " " << num(s.median) << " "
              << m.unit << "\n";
    std::cerr << "[" << w.name << "] " << m.name << " median "
              << num(s.median) << " " << m.unit << " (q1 " << num(s.q1)
              << ", q3 " << num(s.q3) << ", n=" << s.values.size() << ")\n";
  }
  for (const Metric& m : per_layer_metrics()) {
    auto it = w.per_layer.find(m.name);
    if (it == w.per_layer.end()) continue;
    std::cout << w.name << " " << m.name << " " << num(it->second) << " "
              << m.unit << "\n";
  }
  for (const std::string& p : w.problems) {
    std::cerr << "[" << w.name << "] CHECK FAILED: " << p << "\n";
  }
}

void write_result(const WorkloadResult& w, const Options& opt) {
  const std::string path = opt.out + "/" + w.name + ".json";
  std::ofstream out(path);
  out << "{\"workload\": " << json_string(w.name)
      << ", \"seed\": " << opt.seed << ", \"trace\": " << (w.traced ? 1 : 0)
      << ", \"runs\": " << w.runs.size()
      << ", \"correct\": " << (w.problems.empty() ? "true" : "false")
      << ", \"attempted\": " << num(w.attempted)
      << ", \"failed\": " << num(w.failed) << ",\n \"problems\": [";
  for (std::size_t i = 0; i < w.problems.size(); ++i) {
    out << (i ? ", " : "") << json_string(w.problems[i]);
  }
  out << "],\n \"digests\": [";
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    out << (i ? ", " : "") << num(value(w.runs[i], "model.digest"));
  }
  out << "],\n \"events\": [";
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    out << (i ? ", " : "") << num(value(w.runs[i], "sim.events"));
  }
  out << "],\n \"end_to_end\": {";
  bool first = true;
  for (const Metric& m : end_to_end_metrics()) {
    const Summary& s = w.end_to_end.at(m.name);
    out << (first ? "\n  " : ",\n  ") << json_string(m.name)
        << ": {\"unit\": " << json_string(m.unit)
        << ", \"median\": " << num(s.median) << ", \"q1\": " << num(s.q1)
        << ", \"q3\": " << num(s.q3) << ", \"values\": [";
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      out << (i ? ", " : "") << num(s.values[i]);
    }
    out << "]}";
    first = false;
  }
  out << "},\n \"per_layer\": {";
  first = true;
  for (const Metric& m : per_layer_metrics()) {
    auto it = w.per_layer.find(m.name);
    if (it == w.per_layer.end()) continue;
    out << (first ? "\n  " : ",\n  ") << json_string(m.name)
        << ": {\"value\": " << num(it->second)
        << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  out << "}}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// The benchmark's own host-time spans as Chrome trace JSON: one process
/// per workload, one thread per run.
void write_host_spans(const std::vector<std::pair<int, HostSpan>>& spans,
                      const std::vector<std::string>& workloads,
                      const Options& opt) {
  const std::string path = opt.out + "/host_spans.json";
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << i + 1
        << ", \"args\": {\"name\": " << json_string(workloads[i]) << "}},\n";
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& [id, s] = spans[i];
    out << "{\"name\": " << json_string(s.name)
        << ", \"ph\": \"X\", \"pid\": " << id / 1000
        << ", \"tid\": " << id % 1000 << ", \"ts\": " << num(s.ts_us)
        << ", \"dur\": " << num(s.dur_us) << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// The last stdout line. With one workload the metric names are the
/// benchmark's own; with several each is prefixed "<workload>/".
void print_summary(const std::vector<WorkloadResult>& results, bool trace) {
  bool correct = true;
  double attempted = 0;
  double failed = 0;
  std::ostringstream metrics;
  bool first = true;
  for (const WorkloadResult& w : results) {
    correct = correct && w.problems.empty();
    attempted += w.attempted;
    failed += w.failed;
    const std::string prefix = results.size() > 1 ? w.name + "/" : "";
    auto emit = [&](const std::string& name, double v,
                    const std::string& unit) {
      metrics << (first ? "" : ", ") << json_string(prefix + name)
              << ": {\"value\": " << num(v)
              << ", \"unit\": " << json_string(unit) << "}";
      first = false;
    };
    if (trace) {
      for (const Metric& m : per_layer_metrics()) {
        auto it = w.per_layer.find(m.name);
        emit(m.name, it == w.per_layer.end() ? 0 : it->second, m.unit);
      }
    } else {
      for (const Metric& m : end_to_end_metrics()) {
        emit(m.name, w.end_to_end.at(m.name).median, m.unit);
      }
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << num(std::max(attempted, 1.0))
            << ", \"failed\": " << num(failed) << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  using namespace perf;
  Options opt = parse_options(argc, argv);
  try {
    std::filesystem::create_directories(opt.out);
    if (!opt.trace_dir.empty()) {
      std::filesystem::create_directories(opt.trace_dir);
    }
    const auto epoch = Clock::now();
    std::vector<std::pair<int, HostSpan>> spans;
    std::vector<WorkloadResult> results;
    for (std::size_t i = 0; i < opt.workloads.size(); ++i) {
      results.push_back(bench_workload(opt.workloads[i], opt, epoch, spans,
                                       static_cast<int>(i) + 1));
      print_metrics(results.back());
      write_result(results.back(), opt);
    }
    write_host_spans(spans, opt.workloads, opt);
    print_summary(results, opt.trace);
    for (const WorkloadResult& w : results) {
      if (!w.problems.empty()) return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "gridmon_bench: " << e.what() << "\n";
    return 1;
  }
}
