// Splitting a forum post body into word text x(p) and code c(p).
//
// The paper exploits the fact that code on Stack Overflow is delimited by
// specific HTML tags; we recognize <code>…</code> and <pre>…</pre> blocks
// (case-insensitive, attributes allowed) and route their contents to the code
// channel, everything else to the word channel with remaining tags stripped.
#pragma once

#include <string>
#include <string_view>

namespace forumcast::text {

/// A post body separated into its natural-language and code components.
struct SplitBody {
  std::string words;  ///< x(p): prose with markup removed
  std::string code;   ///< c(p): concatenated contents of code blocks
};

/// Splits an HTML post body into word text and code per the rule above.
/// Unterminated code blocks run to the end of the input.
SplitBody split_post_body(std::string_view html);

}  // namespace forumcast::text
