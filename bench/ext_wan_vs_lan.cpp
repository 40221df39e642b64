/// Extension (the paper's §4 future work): "the testbeds in our study
/// were built in a LAN environment; the experiments should be repeated to
/// study performance in a WAN environment." Reruns the Experiment 2
/// directory-server sweep with the same user population placed either on
/// the server LAN (lucky nodes) or across the WAN (UC nodes), for MDS
/// GIIS and Hawkeye Manager.

#include <iostream>

#include "bench_common.hpp"

using namespace gridmon;
using namespace gridmon::bench;
using namespace gridmon::core;

int main(int argc, char** argv) {
  BenchOptions opt = parse_options(argc, argv);
  auto users = opt.sweep({10, 100, 300, 600}, 2);

  std::vector<Series> figures;

  struct Config {
    std::string base;
    ScenarioSpec spec;
  };
  std::vector<Config> configs;
  configs.push_back({"MDS GIIS",
                     ScenarioSpec::build().service(ServiceKind::Giis).build()});
  configs.push_back({"Hawkeye Manager", ScenarioSpec::build()
                                            .service(ServiceKind::Manager)
                                            .collectors(11)
                                            .build()});

  for (const auto& config : configs) {
    for (bool wan : {false, true}) {
      Series s{config.base + " (" + (wan ? "WAN" : "LAN") + " clients)", {}};
      std::cout << s.name << "\n";
      ScenarioSpec spec = SpecBuilder(config.spec).lucky_clients(!wan).build();
      for (int n : users) {
        s.points.push_back(run_point(opt, s.name, spec, n));
      }
      figures.push_back(std::move(s));
    }
  }

  std::cout << "\n";
  print_figures(std::cout, 21, "Directory Server (WAN vs LAN clients)",
                "No. of Users", figures);
  emit_csv(opt, "ext_wan_vs_lan", figures);
  return 0;
}
