#include "gridmon/ldap/dit.hpp"

#include <algorithm>
#include <stdexcept>

namespace gridmon::ldap {

std::vector<Dit::Node*>::iterator Dit::child_slot(std::vector<Node*>& children,
                                                  std::string_view key) {
  return std::lower_bound(
      children.begin(), children.end(), key,
      [](const Node* c, std::string_view k) { return c->key < k; });
}

Dit::Dit(Dit&& other) noexcept : nodes_(std::move(other.nodes_)) {
  other.clear();
}

Dit& Dit::operator=(Dit&& other) noexcept {
  nodes_ = std::move(other.nodes_);
  memo_.reset();
  other.clear();
  return *this;
}

void Dit::add(Entry entry) {
  const Dn& dn = entry.dn();
  if (dn.empty()) throw DnError("cannot add entry with empty DN");
  Node* parent = nullptr;
  Dn parent_dn = dn.parent();
  if (!parent_dn.empty()) {
    auto pit = nodes_.find(parent_dn.normalized());
    if (pit == nodes_.end()) {
      throw DnError("parent entry does not exist: " + parent_dn.to_string());
    }
    parent = &pit->second;
  }
  memo_.reset();
  auto [it, inserted] = nodes_.try_emplace(dn.normalized());
  Node& node = it->second;
  node.entry = std::move(entry);  // a replace keeps the children
  if (!inserted) return;
  node.key = it->first;
  node.parent = parent;
  if (parent) {
    parent->children.insert(child_slot(parent->children, node.key), &node);
  }
}

std::size_t Dit::remove_subtree(const Dn& dn) {
  auto it = nodes_.find(dn.normalized());
  if (it == nodes_.end()) return 0;
  memo_.reset();
  Node* top = &it->second;
  if (Node* parent = top->parent) {
    parent->children.erase(child_slot(parent->children, top->key));
  }
  std::vector<Node*> doomed{top};
  for (std::size_t i = 0; i < doomed.size(); ++i) {
    doomed.insert(doomed.end(), doomed[i]->children.begin(),
                  doomed[i]->children.end());
  }
  for (Node* node : doomed) nodes_.erase(nodes_.find(node->key));
  return doomed.size();
}

bool Dit::contains(const Dn& dn) const {
  return nodes_.find(dn.normalized()) != nodes_.end();
}

const Entry* Dit::find(const Dn& dn) const {
  auto it = nodes_.find(dn.normalized());
  return it == nodes_.end() ? nullptr : &it->second.entry;
}

SearchResult Dit::search(const Dn& base, Scope scope, const Filter& filter,
                         const std::vector<std::string>& attrs,
                         std::size_t size_limit) const {
  std::string key = base.normalized();
  std::string rendered = filter.to_string();
  if (memo_ && memo_->scope == scope && memo_->size_limit == size_limit &&
      memo_->base == key && memo_->filter == rendered &&
      memo_->attrs == attrs) {
    return memo_->result;
  }
  memo_.reset();
  SearchResult result = scan(key, scope, filter, attrs, size_limit);
  memo_ = Memo{std::move(key), scope, std::move(rendered), attrs, size_limit,
               result};
  return result;
}

SearchResult Dit::scan(const std::string& base, Scope scope,
                       const Filter& filter,
                       const std::vector<std::string>& attrs,
                       std::size_t size_limit) const {
  SearchResult result;
  auto consider = [&](const Entry& e) -> bool {
    ++result.entries_examined;
    if (!filter.matches(e)) return true;
    if (size_limit != 0 && result.entries.size() >= size_limit) {
      result.size_limit_exceeded = true;
      return false;  // stop the walk
    }
    result.entries.push_back(e.project(attrs));
    return true;
  };

  if (base.empty()) {
    // Whole-tree search from the (virtual) root, in key order.
    if (scope != Scope::Subtree) return result;
    for (const auto& [key, node] : nodes_) {
      if (!consider(node.entry)) break;
    }
    return result;
  }
  auto base_it = nodes_.find(base);
  if (base_it == nodes_.end()) return result;
  const Node& top = base_it->second;

  switch (scope) {
    case Scope::Base:
      consider(top.entry);
      break;
    case Scope::One:
      for (const Node* child : top.children) {
        if (!consider(child->entry)) break;
      }
      break;
    case Scope::Subtree: {
      // Iterative DFS: children pushed in key order, so popped in reverse.
      std::vector<const Node*> stack{&top};
      while (!stack.empty()) {
        const Node* node = stack.back();
        stack.pop_back();
        if (!consider(node->entry)) break;
        stack.insert(stack.end(), node->children.begin(),
                     node->children.end());
      }
      break;
    }
  }
  return result;
}

std::vector<std::string> Dit::dns() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [key, node] : nodes_) out.push_back(key);
  return out;
}

}  // namespace gridmon::ldap
