#include "gridmon/hawkeye/module.hpp"

namespace gridmon::hawkeye {

classad::ClassAd run_module(const ModuleSpec& spec, std::uint64_t sequence,
                            double load_value) {
  classad::ClassAd ad;
  ad.insert(spec.name + "_sequence", static_cast<std::int64_t>(sequence));
  if (spec.name == "vmstat" || spec.name == "cpuload") {
    ad.insert("CpuLoad", load_value);
  }
  for (int i = 0; i < spec.attrs; ++i) {
    ad.insert(spec.name + "_attr" + std::to_string(i),
              static_cast<std::int64_t>(sequence * 31 + i));
  }
  return ad;
}

classad::ClassAd build_startd_ad(const std::string& machine,
                                 std::vector<classad::ClassAd> parts) {
  classad::ClassAd ad;
  ad.insert("MyType", "Machine");
  ad.insert("Name", machine);
  ad.insert("OpSys", "LINUX");
  ad.insert_text("Requirements", "true");
  for (classad::ClassAd& part : parts) ad.update(std::move(part));
  return ad;
}

std::vector<ModuleSpec> default_modules() {
  std::vector<ModuleSpec> mods;
  for (const char* name :
       {"vmstat", "df", "netstat", "uptime", "memory", "processes", "users",
        "syslog", "ckpt", "condor_status", "openfiles"}) {
    ModuleSpec spec;
    spec.name = name;
    mods.push_back(spec);
  }
  return mods;
}

std::vector<ModuleSpec> scaled_modules(int total) {
  auto mods = default_modules();
  int extra = total - static_cast<int>(mods.size());
  for (int i = 0; i < extra; ++i) {
    ModuleSpec spec;
    spec.name = "vmstat_copy" + std::to_string(i);
    mods.push_back(spec);
  }
  if (total < static_cast<int>(mods.size())) {
    mods.resize(static_cast<std::size_t>(total));
  }
  return mods;
}

}  // namespace gridmon::hawkeye
