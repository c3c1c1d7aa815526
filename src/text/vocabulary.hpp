// Token <-> integer id mapping shared by the topic model.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace forumcast::text {

using TokenId = std::uint32_t;

class Vocabulary {
 public:
  /// Returns the id of `token`, interning it if new.
  TokenId add(std::string_view token);

  /// Returns the id if known.
  std::optional<TokenId> lookup(std::string_view token) const;

  std::size_t size() const { return tokens_.size(); }

  /// Interns every token of a document into ids.
  std::vector<TokenId> encode(std::span<const std::string> tokens);

  /// Encodes without interning; unknown tokens are dropped.
  std::vector<TokenId> encode_existing(std::span<const std::string> tokens) const;

  /// All interned tokens in id order (serialization: re-adding them in order
  /// into an empty vocabulary reproduces the exact same id assignment).
  std::span<const std::string> tokens() const { return tokens_; }

 private:
  std::unordered_map<std::string, TokenId> index_;
  std::vector<std::string> tokens_;
};

}  // namespace forumcast::text
