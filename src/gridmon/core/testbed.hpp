#pragma once

/// \file testbed.hpp
/// The experiment platform of the paper, rebuilt in the simulator:
/// the "Lucky" testbed at ANL (seven dual-PIII-1133 Linux nodes named
/// lucky0, lucky1, lucky3..lucky7 on a 100 Mbps switched LAN) plus the
/// twenty UChicago client machines (fifteen 1208 MHz and five 756 MHz
/// uniprocessors) reached over a WAN, with a Ganglia-style sampler
/// polling every host at 5-second intervals.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gridmon/host/host.hpp"
#include "gridmon/metrics/sampler.hpp"
#include "gridmon/net/network.hpp"
#include "gridmon/sim/rng.hpp"
#include "gridmon/sim/simulation.hpp"

namespace gridmon::core {

/// The paper's client placement (§3.1): at most 50 simulated users per
/// UC client machine. When the users run on the server's LAN instead,
/// each of the seven dual-CPU lucky nodes takes 100.
inline constexpr int kUcUsersPerHost = 50;
inline constexpr int kLuckyUsersPerHost = 100;
inline constexpr int kLuckyNodes = 7;

struct TestbedConfig {
  int uc_clients = 20;
  int uc_fast_clients = 15;  // 1208 MHz; remainder run at 756 MHz
  double lan_bandwidth_bytes = 12.5e6;  // 100 Mbps NICs
  double lan_latency = 0.0001;
  double wan_bandwidth_bytes = 20e6;    // shared ANL<->UC path
  double wan_one_way_latency = 0.005;
  double wan_per_flow_cap = 2.5e6;      // TCP window / RTT
  double sample_interval = 5.0;         // Ganglia cadence in the paper
  std::uint64_t seed = 42;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;
  ~Testbed();

  sim::Simulation& sim() noexcept { return sim_; }
  net::Network& network() noexcept { return net_; }
  metrics::Sampler& sampler() noexcept { return sampler_; }
  sim::Rng& rng() noexcept { return rng_; }
  const TestbedConfig& config() const noexcept { return config_; }

  host::Host& host(const std::string& name);
  net::Interface& nic(const std::string& name);

  /// Lucky node names, in the paper's numbering (no lucky2).
  const std::vector<std::string>& lucky_names() const noexcept {
    return lucky_;
  }
  const std::vector<std::string>& uc_names() const noexcept { return uc_; }

  /// Add an extra machine (e.g. an admin workstation for examples).
  host::Host& add_host(const std::string& name, const std::string& site,
                       int cores, double mhz);

 private:
  TestbedConfig config_;
  sim::Simulation sim_;  // first member: destroyed last, shut down first
  net::Network net_;
  metrics::Sampler sampler_;
  sim::Rng rng_;
  std::map<std::string, std::unique_ptr<host::Host>> hosts_;
  std::vector<std::string> lucky_;
  std::vector<std::string> uc_;
};

}  // namespace gridmon::core
