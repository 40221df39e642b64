#pragma once

/// \file entry.hpp
/// An LDAP entry: a DN plus multi-valued attributes with case-insensitive
/// attribute names and case-insensitive value matching (the directory
/// string syntax MDS uses everywhere).
///
/// Entries are copy-on-write: copying (including the identity projection a
/// search result returns) shares the underlying representation, and only
/// the mutators clone it. Search-heavy services hand out thousands of
/// entry copies per simulated query, so the share-on-copy behaviour is
/// what keeps the hot query path allocation-free.
///
/// Attributes live in one vector sorted by lowercased name, so a lookup is
/// a binary search over contiguous storage and iteration yields the names
/// in the same order a name-keyed map would.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gridmon/ldap/dn.hpp"

namespace gridmon::ldap {

class Entry {
 public:
  Entry() = default;
  explicit Entry(Dn dn);

  const Dn& dn() const noexcept;
  void set_dn(Dn dn);

  /// Append a value to an attribute (attributes are multi-valued).
  void add(const std::string& attr, std::string value);
  /// Replace all values of an attribute.
  void set(const std::string& attr, std::string value);

  bool has_attribute(const std::string& attr) const;
  /// All values of an attribute ([] if absent).
  const std::vector<std::string>& values(const std::string& attr) const;
  /// values() for a name the caller already lowercased (search filters
  /// normalize theirs once at parse time).
  const std::vector<std::string>& values_lc(std::string_view attr) const;
  /// First value, or "" if absent.
  const std::string& value(const std::string& attr) const;

  /// True if any value of `attr` equals `v` case-insensitively.
  bool matches_value(const std::string& attr, const std::string& v) const;

  /// Attribute names (normalized lowercase), insertion-independent order.
  std::vector<std::string> attribute_names() const;

  std::size_t attribute_count() const noexcept;

  /// Copy of this entry keeping only the named attributes (empty selection
  /// keeps everything) — LDAP attribute selection on search.
  Entry project(const std::vector<std::string>& attrs) const;

  /// Approximate serialized size (drives the network model). Cached per
  /// representation; mutation through this class invalidates the cache.
  double wire_bytes() const;

 private:
  struct Attr {
    std::string name;  // lowercased
    std::vector<std::string> values;
  };
  struct Rep {
    Dn dn;
    std::vector<Attr> attrs;  // sorted by unique name; values never empty
    double wire_cache = -1;   // < 0: not yet computed
  };

  static std::string norm(const std::string& s);
  /// True if `s` contains no character that normalization would change —
  /// lets lookups with already-lowercase names skip the allocation.
  static bool is_norm(const std::string& s) noexcept;

  /// The attribute named `lc` (lowercase), or null.
  const Attr* find(std::string_view lc) const noexcept;
  /// Values of the attribute named `lc` (lowercase), inserted empty if
  /// absent.
  std::vector<std::string>& slot(std::string lc);

  /// Writable rep, cloned first if shared (copy-on-write).
  Rep& mut();
  const Rep* rep() const noexcept { return rep_.get(); }

  std::shared_ptr<Rep> rep_;
};

}  // namespace gridmon::ldap
