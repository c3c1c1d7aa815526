// Consistent-hash ring for sharding users across read replicas.
//
// Every node is placed on a 64-bit ring at `vnodes` pseudo-random points
// (virtual nodes); a user id hashes to a point and is owned by the first
// node clockwise from it. Properties the tests pin down:
//
//  - Determinism: placement depends only on (node name, vnode index) and
//    the key only on the user id — no process state, no RNG — so every
//    process (the router in forumcast-netctl, each daemon, the tests)
//    computes identical ownership from the same member list.
//  - Minimal movement: adding or removing one of N nodes reassigns about
//    1/N of the keys (only those whose ring segment changed hands), which
//    is what makes follower join/leave cheap.
//  - Balance: per-node key share concentrates around 1/N like
//    1/sqrt(vnodes) — within ~20% at the default 160 vnodes, within 10%
//    at 1024 (the property test pins both bounds).
//
// Hashing is FNV-1a over the identity bytes finished with the splitmix64
// mixer — FNV alone clusters sequential ids; the mix spreads them.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "forum/post.hpp"

namespace forumcast::replica {

class Ring {
 public:
  /// `vnodes` points per node; higher = smoother balance, larger ring map.
  explicit Ring(std::size_t vnodes = 160);

  /// Adds `name` (idempotent). Names are node identities; two processes
  /// building rings from the same name set agree on every owner.
  void add_node(const std::string& name);
  /// Removes `name` (idempotent); only its segments change hands.
  void remove_node(const std::string& name);

  /// The owning node's name. Requires at least one node.
  const std::string& owner(forum::UserId user) const;

  std::size_t num_nodes() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  /// The ring position a user id hashes to (exposed for balance tests).
  static std::uint64_t key_point(forum::UserId user);

 private:
  std::size_t vnodes_;
  std::set<std::string> nodes_;
  /// ring position -> owning node name
  std::map<std::uint64_t, std::string> points_;
};

}  // namespace forumcast::replica
