#pragma once

/// \file dit.hpp
/// Directory Information Tree: the hierarchical entry store behind a GRIS
/// or GIIS. Supports add/replace/remove and base/one-level/subtree search
/// with filter, attribute selection and a size limit (slapd semantics).
///
/// Nodes live in a map keyed by normalized DN (which owns them and gives
/// the whole-tree order); each node links straight to its children, kept
/// in key order, so a scoped search walks pointers and never looks a DN up
/// again. The links point into the map's own nodes, which stay put when
/// the map is moved, so a Dit moves but never copies; a moved-from Dit is
/// empty.
///
/// The last search's result is memoized until the tree next changes, so a
/// service that answers the same query over an unchanged tree (a GIIS
/// between cache refreshes) walks it once. Searching writes the memo
/// without a lock; the simulator runs on one thread.

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gridmon/ldap/entry.hpp"
#include "gridmon/ldap/filter.hpp"

namespace gridmon::ldap {

enum class Scope { Base, One, Subtree };

struct SearchResult {
  std::vector<Entry> entries;
  bool size_limit_exceeded = false;
  /// Entries visited during evaluation (drives simulated search cost).
  std::size_t entries_examined = 0;

  double wire_bytes() const {
    double b = 64;  // result envelope
    for (const auto& e : entries) b += e.wire_bytes();
    return b;
  }
};

class Dit {
 public:
  Dit() = default;
  Dit(Dit&& other) noexcept;
  Dit& operator=(Dit&& other) noexcept;
  Dit(const Dit&) = delete;
  Dit& operator=(const Dit&) = delete;

  /// Add an entry; its parent must already exist unless the entry is a
  /// suffix (top-level) entry. Replaces an existing entry at the same DN.
  void add(Entry entry);

  /// Remove an entry and its whole subtree. Returns entries removed.
  std::size_t remove_subtree(const Dn& dn);

  bool contains(const Dn& dn) const;
  const Entry* find(const Dn& dn) const;
  std::size_t size() const noexcept { return nodes_.size(); }

  /// LDAP search. `attrs` empty means all attributes; size_limit 0 means
  /// unlimited. Repeating the previous search (same normalized base,
  /// scope, filter rendering, selection and limit) on an unchanged tree
  /// returns the memoized result, entries_examined included, without
  /// walking the tree.
  SearchResult search(const Dn& base, Scope scope, const Filter& filter,
                      const std::vector<std::string>& attrs = {},
                      std::size_t size_limit = 0) const;

  /// All DNs in the tree (normalized), sorted — handy for tests/dumps.
  std::vector<std::string> dns() const;

  void clear() noexcept {
    nodes_.clear();
    memo_.reset();
  }

 private:
  struct Node {
    Entry entry;
    std::string_view key;         // this node's key in nodes_
    Node* parent = nullptr;       // null for a suffix entry
    std::vector<Node*> children;  // ordered by key
  };

  /// Where a child keyed `key` sits (or belongs) in `children`.
  static std::vector<Node*>::iterator child_slot(std::vector<Node*>& children,
                                                 std::string_view key);

  /// The last search and its result. Every mutation resets it, which also
  /// releases the entry representations the result shares.
  struct Memo {
    std::string base;    // normalized
    Scope scope;
    std::string filter;  // Filter::to_string(), which re-parses to itself
    std::vector<std::string> attrs;
    std::size_t size_limit;
    SearchResult result;
  };

  /// The uncached walk; `base` is the normalized base DN.
  SearchResult scan(const std::string& base, Scope scope,
                    const Filter& filter,
                    const std::vector<std::string>& attrs,
                    std::size_t size_limit) const;

  std::map<std::string, Node, std::less<>> nodes_;
  mutable std::optional<Memo> memo_;
};

}  // namespace gridmon::ldap
