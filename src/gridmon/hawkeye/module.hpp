#pragma once

/// \file module.hpp
/// Hawkeye Modules: sensors that emit a ClassAd fragment (e.g. the
/// "vmstat" module). An Agent integrates module fragments into a single
/// Startd ClassAd.

#include <cstdint>
#include <string>
#include <vector>

#include "gridmon/classad/classad.hpp"

namespace gridmon::hawkeye {

struct ModuleSpec {
  std::string name = "vmstat";
  /// Attributes the module contributes to the Startd ad.
  int attrs = 6;
  /// Reference CPU-seconds to collect this module's data at query /
  /// integration time (reading the sensor pipe, parsing).
  double collect_cpu_ref = 0.0018;
};

/// Synthesize one module's ClassAd fragment. `sequence` marks the
/// collection round; `load_value` feeds attributes like CpuLoad that the
/// examples/triggers evaluate.
classad::ClassAd run_module(const ModuleSpec& spec, std::uint64_t sequence,
                            double load_value = 0.0);

/// Integrate module fragments plus identity attributes into a Startd ad.
/// The fragments' attributes are moved into the ad, not copied.
classad::ClassAd build_startd_ad(const std::string& machine,
                                 std::vector<classad::ClassAd> parts);

/// The 11 modules of a default Hawkeye install.
std::vector<ModuleSpec> default_modules();

/// `extra` additional instances of the vmstat module (the paper's
/// Experiment 3 scaled module counts this way).
std::vector<ModuleSpec> scaled_modules(int total);

}  // namespace gridmon::hawkeye
