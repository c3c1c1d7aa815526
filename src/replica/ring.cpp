#include "replica/ring.hpp"

#include "util/check.hpp"
#include "util/digest.hpp"

namespace forumcast::replica {

namespace {

/// splitmix64 finalizer: a cheap full-avalanche mix so nearby FNV outputs
/// (sequential user ids, "node-1"/"node-2") land far apart on the ring.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t vnode_point(const std::string& name, std::uint64_t index) {
  util::Fnv1a hash;
  hash.str(name);
  hash.u64(index);
  return mix64(hash.value());
}

}  // namespace

Ring::Ring(std::size_t vnodes) : vnodes_(vnodes) {
  FORUMCAST_CHECK_MSG(vnodes_ >= 1, "ring needs at least one vnode per node");
}

void Ring::add_node(const std::string& name) {
  FORUMCAST_CHECK_MSG(!name.empty(), "ring node name must be non-empty");
  if (!nodes_.insert(name).second) return;
  for (std::uint64_t i = 0; i < vnodes_; ++i) {
    // Collisions resolve by name order so insertion order never matters —
    // two processes with the same member set agree point for point.
    auto [it, inserted] = points_.emplace(vnode_point(name, i), name);
    if (!inserted && name < it->second) it->second = name;
  }
}

void Ring::remove_node(const std::string& name) {
  if (nodes_.erase(name) == 0) return;
  for (auto it = points_.begin(); it != points_.end();) {
    if (it->second == name) {
      it = points_.erase(it);
    } else {
      ++it;
    }
  }
  // Re-add surviving nodes' points that a collision may have suppressed.
  for (const std::string& survivor : nodes_) {
    for (std::uint64_t i = 0; i < vnodes_; ++i) {
      auto [it, inserted] = points_.emplace(vnode_point(survivor, i), survivor);
      if (!inserted && survivor < it->second) it->second = survivor;
    }
  }
}

std::uint64_t Ring::key_point(forum::UserId user) {
  util::Fnv1a hash;
  hash.u64(static_cast<std::uint64_t>(user));
  return mix64(hash.value());
}

const std::string& Ring::owner(forum::UserId user) const {
  FORUMCAST_CHECK_MSG(!points_.empty(), "ring has no nodes");
  const auto it = points_.lower_bound(key_point(user));
  return it == points_.end() ? points_.begin()->second : it->second;
}

}  // namespace forumcast::replica
