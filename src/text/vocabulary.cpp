#include "text/vocabulary.hpp"

namespace forumcast::text {

TokenId Vocabulary::add(std::string_view token) {
  auto it = index_.find(std::string(token));
  if (it != index_.end()) return it->second;
  const auto id = static_cast<TokenId>(tokens_.size());
  tokens_.emplace_back(token);
  index_.emplace(tokens_.back(), id);
  return id;
}

std::optional<TokenId> Vocabulary::lookup(std::string_view token) const {
  auto it = index_.find(std::string(token));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::vector<TokenId> Vocabulary::encode(std::span<const std::string> tokens) {
  std::vector<TokenId> ids;
  ids.reserve(tokens.size());
  for (const auto& tok : tokens) ids.push_back(add(tok));
  return ids;
}

std::vector<TokenId> Vocabulary::encode_existing(std::span<const std::string> tokens) const {
  std::vector<TokenId> ids;
  ids.reserve(tokens.size());
  for (const auto& tok : tokens) {
    if (auto id = lookup(tok)) ids.push_back(*id);
  }
  return ids;
}

}  // namespace forumcast::text
