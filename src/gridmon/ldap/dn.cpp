#include "gridmon/ldap/dn.hpp"

#include <algorithm>

#include "gridmon/ascii.hpp"

namespace gridmon::ldap {
namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), ascii::to_lower);
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = s.find_first_not_of(" \t");
  if (b == std::string_view::npos) return {};
  std::size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

}  // namespace

bool operator==(const Rdn& a, const Rdn& b) {
  return a.attr == b.attr && to_lower(a.value) == to_lower(b.value);
}

Dn Dn::parse(std::string_view text) {
  Dn dn;
  text = trim(text);
  if (text.empty()) return dn;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    std::string_view part =
        text.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                         : comma - pos);
    pos = (comma == std::string_view::npos) ? text.size() + 1 : comma + 1;
    part = trim(part);
    if (part.empty()) throw DnError("empty RDN in DN");
    std::size_t eq = part.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw DnError("RDN missing attribute=value: " + std::string(part));
    }
    Rdn rdn;
    rdn.attr = to_lower(trim(part.substr(0, eq)));
    rdn.value = std::string(trim(part.substr(eq + 1)));
    if (rdn.value.empty()) throw DnError("RDN missing value: " + std::string(part));
    dn.rdns_.push_back(std::move(rdn));
  }
  return dn;
}

Dn Dn::rebased(const Dn& from, const Dn& to) const {
  if (!(*this == from) && !is_descendant_of(from)) {
    throw DnError("rebase: " + to_string() + " is not under " +
                  from.to_string());
  }
  Dn out;
  std::size_t keep = rdns_.size() - from.rdns_.size();
  out.rdns_.assign(rdns_.begin(),
                   rdns_.begin() + static_cast<std::ptrdiff_t>(keep));
  out.rdns_.insert(out.rdns_.end(), to.rdns_.begin(), to.rdns_.end());
  return out;
}

Dn Dn::parent() const {
  Dn p;
  if (rdns_.size() > 1) {
    p.rdns_.assign(rdns_.begin() + 1, rdns_.end());
  }
  return p;
}

bool Dn::is_child_of(const Dn& ancestor) const {
  return rdns_.size() == ancestor.rdns_.size() + 1 &&
         is_descendant_of(ancestor);
}

bool Dn::is_descendant_of(const Dn& ancestor) const {
  if (ancestor.rdns_.size() >= rdns_.size()) return false;
  std::size_t offset = rdns_.size() - ancestor.rdns_.size();
  for (std::size_t i = 0; i < ancestor.rdns_.size(); ++i) {
    if (!(rdns_[offset + i] == ancestor.rdns_[i])) return false;
  }
  return true;
}

std::string Dn::normalized() const {
  std::string out;
  for (std::size_t i = 0; i < rdns_.size(); ++i) {
    if (i) out += ',';
    out += rdns_[i].attr;
    out += '=';
    out += to_lower(rdns_[i].value);
  }
  return out;
}

std::string Dn::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < rdns_.size(); ++i) {
    if (i) out += ", ";
    out += rdns_[i].attr;
    out += '=';
    out += rdns_[i].value;
  }
  return out;
}

bool operator==(const Dn& a, const Dn& b) {
  if (a.rdns_.size() != b.rdns_.size()) return false;
  for (std::size_t i = 0; i < a.rdns_.size(); ++i) {
    if (!(a.rdns_[i] == b.rdns_[i])) return false;
  }
  return true;
}

}  // namespace gridmon::ldap
