#include "text/post_text.hpp"

#include <algorithm>
#include <cctype>

namespace forumcast::text {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

// Returns the tag name (lowercased) if `html[pos]` starts a tag, and sets
// `end` to one past the closing '>'. Returns empty if malformed.
std::string parse_tag(std::string_view html, std::size_t pos, std::size_t& end,
                      bool& is_closing) {
  is_closing = false;
  std::size_t i = pos + 1;
  if (i < html.size() && html[i] == '/') {
    is_closing = true;
    ++i;
  }
  std::string name;
  while (i < html.size() && (std::isalnum(static_cast<unsigned char>(html[i])))) {
    name += static_cast<char>(std::tolower(static_cast<unsigned char>(html[i])));
    ++i;
  }
  // Skip attributes until '>'.
  while (i < html.size() && html[i] != '>') ++i;
  if (i >= html.size()) return {};  // malformed: no closing '>'
  end = i + 1;
  return name;
}

bool is_code_tag(std::string_view name) {
  return iequals(name, "code") || iequals(name, "pre");
}

void decode_entity(std::string_view html, std::size_t pos, std::string& out,
                   std::size_t& consumed) {
  struct Entity {
    std::string_view name;
    char replacement;
  };
  static constexpr Entity kEntities[] = {
      {"&amp;", '&'}, {"&lt;", '<'},   {"&gt;", '>'},
      {"&quot;", '"'}, {"&#39;", '\''}, {"&nbsp;", ' '},
  };
  for (const auto& entity : kEntities) {
    if (html.substr(pos, entity.name.size()) == entity.name) {
      out += entity.replacement;
      consumed = entity.name.size();
      return;
    }
  }
  out += '&';
  consumed = 1;
}

}  // namespace

SplitBody split_post_body(std::string_view html) {
  SplitBody split;
  std::size_t depth = 0;  // nesting depth inside code/pre blocks
  std::size_t i = 0;
  while (i < html.size()) {
    const char ch = html[i];
    if (ch == '<') {
      std::size_t tag_end = 0;
      bool closing = false;
      const std::string name = parse_tag(html, i, tag_end, closing);
      if (name.empty() && tag_end == 0) {
        // Malformed tag: treat the '<' literally.
        (depth > 0 ? split.code : split.words) += ch;
        ++i;
        continue;
      }
      if (is_code_tag(name)) {
        if (closing) {
          if (depth > 0) --depth;
        } else {
          ++depth;
        }
      } else if (depth == 0) {
        // Non-code tags outside code act as word separators.
        split.words += ' ';
      } else {
        split.code += ' ';
      }
      i = tag_end;
      continue;
    }
    if (ch == '&' && depth == 0) {
      std::size_t consumed = 0;
      decode_entity(html, i, split.words, consumed);
      i += consumed;
      continue;
    }
    (depth > 0 ? split.code : split.words) += ch;
    ++i;
  }
  return split;
}

}  // namespace forumcast::text
