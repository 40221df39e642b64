/// \file sarif.cpp
/// SARIF 2.1.0 serialization of findings, for CI annotation upload
/// (github/codeql-action/upload-sarif renders results inline on PRs).
/// Hand-rolled emission: the container ships no JSON library, and the
/// subset SARIF needs — objects, arrays, strings, ints — is small enough
/// to write safely.

#include <cstdio>
#include <set>
#include <sstream>

#include "lint.hpp"

namespace gridmon::lint {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string sarif_report(const std::vector<Diagnostic>& findings) {
  std::ostringstream out;
  out << "{\n"
         "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"runs\": [\n"
         "    {\n"
         "      \"tool\": {\n"
         "        \"driver\": {\n"
         "          \"name\": \"gridmon_lint\",\n"
         "          \"informationUri\": \"docs/STATIC_ANALYSIS.md\",\n"
         "          \"rules\": [\n";
  // Emit metadata only for rules that fired: SARIF requires every
  // result's ruleIndex to resolve, not the full catalogue.
  std::set<std::string> fired;
  for (const Diagnostic& d : findings) fired.insert(d.check);
  std::vector<CheckInfo> catalogue = all_checks();
  std::vector<const CheckInfo*> rules;
  for (const CheckInfo& c : catalogue) {
    if (fired.count(c.id)) rules.push_back(&c);
  }
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out << "            {\n"
           "              \"id\": \"" << json_escape(rules[i]->id) << "\",\n"
           "              \"shortDescription\": { \"text\": \""
        << json_escape(rules[i]->summary) << "\" },\n"
           "              \"fullDescription\": { \"text\": \""
        << json_escape(rules[i]->contract) << "\" },\n"
           "              \"help\": { \"text\": \""
        << json_escape(rules[i]->fix) << "\" }\n"
           "            }" << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  out << "          ]\n"
         "        }\n"
         "      },\n"
         "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Diagnostic& d = findings[i];
    std::size_t rule_index = 0;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      if (rules[r]->id == d.check) rule_index = r;
    }
    out << "        {\n"
           "          \"ruleId\": \"" << json_escape(d.check) << "\",\n"
           "          \"ruleIndex\": " << rule_index << ",\n"
           "          \"level\": \"error\",\n"
           "          \"message\": { \"text\": \"" << json_escape(d.message)
        << "\" },\n"
           "          \"locations\": [\n"
           "            {\n"
           "              \"physicalLocation\": {\n"
           "                \"artifactLocation\": { \"uri\": \""
        << json_escape(d.file) << "\" },\n"
           "                \"region\": { \"startLine\": " << d.line
        << ", \"startColumn\": " << d.col << " }\n"
           "              }\n"
           "            }\n"
           "          ]";
    // Flow-sensitive findings carry a witness path (def -> suspension ->
    // use); SARIF renders it as a codeFlow so CI reviewers can step it.
    if (!d.path.empty()) {
      out << ",\n"
             "          \"codeFlows\": [\n"
             "            { \"threadFlows\": [ { \"locations\": [\n";
      for (std::size_t s = 0; s < d.path.size(); ++s) {
        const WitnessStep& step = d.path[s];
        const std::string& uri = step.file.empty() ? d.file : step.file;
        out << "              { \"location\": {\n"
               "                \"physicalLocation\": {\n"
               "                  \"artifactLocation\": { \"uri\": \""
            << json_escape(uri) << "\" },\n"
               "                  \"region\": { \"startLine\": " << step.line
            << ", \"startColumn\": " << step.col << " }\n"
               "                },\n"
               "                \"message\": { \"text\": \""
            << json_escape(step.note) << "\" }\n"
               "              } }" << (s + 1 < d.path.size() ? "," : "")
            << "\n";
      }
      out << "            ] } ] }\n"
             "          ]";
    }
    out << "\n        }" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "      ]\n"
         "    }\n"
         "  ]\n"
         "}\n";
  return out.str();
}

}  // namespace gridmon::lint
