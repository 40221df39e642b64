#include "gridmon/ldap/entry.hpp"

#include <algorithm>

#include "gridmon/ascii.hpp"

namespace gridmon::ldap {
namespace {

bool iequal(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii::to_lower(a[i]) != ascii::to_lower(b[i])) return false;
  }
  return true;
}

const Dn& empty_dn() {
  static const Dn kEmpty;
  return kEmpty;
}

const std::vector<std::string> kNoValues;

}  // namespace

std::string Entry::norm(const std::string& s) {
  std::string out = s;
  std::transform(out.begin(), out.end(), out.begin(), ascii::to_lower);
  return out;
}

bool Entry::is_norm(const std::string& s) noexcept {
  return std::none_of(s.begin(), s.end(), ascii::is_upper);
}

Entry::Entry(Dn dn) : rep_(std::make_shared<Rep>()) {
  rep_->dn = std::move(dn);
}

Entry::Rep& Entry::mut() {
  if (!rep_) {
    rep_ = std::make_shared<Rep>();
  } else if (rep_.use_count() > 1) {
    rep_ = std::make_shared<Rep>(*rep_);
  }
  rep_->wire_cache = -1;
  return *rep_;
}

const Entry::Attr* Entry::find(std::string_view lc) const noexcept {
  if (!rep_) return nullptr;
  const auto& attrs = rep_->attrs;
  auto it = std::lower_bound(
      attrs.begin(), attrs.end(), lc,
      [](const Attr& a, std::string_view n) { return a.name < n; });
  return it != attrs.end() && it->name == lc ? &*it : nullptr;
}

std::vector<std::string>& Entry::slot(std::string lc) {
  auto& attrs = mut().attrs;
  auto it = std::lower_bound(
      attrs.begin(), attrs.end(), lc,
      [](const Attr& a, const std::string& n) { return a.name < n; });
  if (it == attrs.end() || it->name != lc) {
    it = attrs.insert(it, Attr{std::move(lc), {}});
  }
  return it->values;
}

const Dn& Entry::dn() const noexcept { return rep_ ? rep_->dn : empty_dn(); }

void Entry::set_dn(Dn dn) { mut().dn = std::move(dn); }

void Entry::add(const std::string& attr, std::string value) {
  slot(norm(attr)).push_back(std::move(value));
}

void Entry::set(const std::string& attr, std::string value) {
  auto& vals = slot(norm(attr));
  vals.clear();
  vals.push_back(std::move(value));
}

bool Entry::has_attribute(const std::string& attr) const {
  return (is_norm(attr) ? find(attr) : find(norm(attr))) != nullptr;
}

const std::vector<std::string>& Entry::values(const std::string& attr) const {
  return is_norm(attr) ? values_lc(attr) : values_lc(norm(attr));
}

const std::vector<std::string>& Entry::values_lc(std::string_view attr) const {
  const Attr* a = find(attr);
  return a ? a->values : kNoValues;
}

const std::string& Entry::value(const std::string& attr) const {
  static const std::string kEmpty;
  const auto& v = values(attr);
  return v.empty() ? kEmpty : v.front();
}

bool Entry::matches_value(const std::string& attr,
                          const std::string& v) const {
  for (const auto& candidate : values(attr)) {
    if (iequal(candidate, v)) return true;
  }
  return false;
}

std::vector<std::string> Entry::attribute_names() const {
  std::vector<std::string> names;
  if (!rep_) return names;
  names.reserve(rep_->attrs.size());
  for (const auto& a : rep_->attrs) names.push_back(a.name);
  return names;
}

std::size_t Entry::attribute_count() const noexcept {
  return rep_ ? rep_->attrs.size() : 0;
}

Entry Entry::project(const std::vector<std::string>& attrs) const {
  if (attrs.empty()) return *this;  // shares the representation
  Entry out(dn());
  for (const auto& want : attrs) {
    const Attr* a = find(norm(want));
    if (a) out.slot(a->name) = a->values;
  }
  return out;
}

double Entry::wire_bytes() const {
  if (!rep_) return 8;  // bare envelope: empty DN + no attributes
  if (rep_->wire_cache >= 0) return rep_->wire_cache;
  double bytes = static_cast<double>(rep_->dn.to_string().size()) + 8;
  for (const auto& a : rep_->attrs) {
    for (const auto& v : a.values) {
      bytes += static_cast<double>(a.name.size() + v.size() + 3);
    }
  }
  rep_->wire_cache = bytes;
  return bytes;
}

}  // namespace gridmon::ldap
