#include <gtest/gtest.h>

#include "text/post_text.hpp"
#include "text/tokenizer.hpp"
#include "text/vocabulary.hpp"

namespace forumcast::text {
namespace {

// ---------- split_post_body ----------

TEST(PostText, SeparatesCodeFromWords) {
  const auto split = split_post_body(
      "<p>How do I loop?</p><pre><code>for i in x:\n  pass</code></pre>");
  EXPECT_NE(split.words.find("How do I loop?"), std::string::npos);
  EXPECT_NE(split.code.find("for i in x:"), std::string::npos);
  EXPECT_EQ(split.words.find("for i in x"), std::string::npos);
}

TEST(PostText, InlineCodeTag) {
  const auto split = split_post_body("Use <code>len(x)</code> here");
  EXPECT_NE(split.words.find("Use"), std::string::npos);
  EXPECT_NE(split.words.find("here"), std::string::npos);
  EXPECT_EQ(split.code, "len(x)");
}

TEST(PostText, CaseInsensitiveTagsWithAttributes) {
  const auto split =
      split_post_body("<CODE class=\"py\">print(1)</CODE> text");
  EXPECT_EQ(split.code, "print(1)");
  EXPECT_NE(split.words.find("text"), std::string::npos);
}

TEST(PostText, UnterminatedCodeRunsToEnd) {
  const auto split = split_post_body("before <code>x = 1");
  EXPECT_EQ(split.code, "x = 1");
  EXPECT_NE(split.words.find("before"), std::string::npos);
}

TEST(PostText, NonCodeTagsBecomeSeparators) {
  const auto split = split_post_body("a<br/>b");
  EXPECT_NE(split.words.find("a b"), std::string::npos);
}

TEST(PostText, DecodesEntitiesInProse) {
  const auto split = split_post_body("x &lt; y &amp;&amp; y &gt; z");
  EXPECT_NE(split.words.find("x < y && y > z"), std::string::npos);
}

TEST(PostText, MalformedTagTreatedLiterally) {
  const auto split = split_post_body("a < b");
  EXPECT_NE(split.words.find("a < b"), std::string::npos);
}

TEST(PostText, EmptyInput) {
  const auto split = split_post_body("");
  EXPECT_TRUE(split.words.empty());
  EXPECT_TRUE(split.code.empty());
}

TEST(PostText, NestedCodeInsidePre) {
  const auto split = split_post_body("<pre><code>x</code></pre>done");
  EXPECT_NE(split.code.find('x'), std::string::npos);
  EXPECT_NE(split.words.find("done"), std::string::npos);
}

// ---------- Tokenizer ----------

TEST(Tokenizer, LowercasesAndSplits) {
  const Tokenizer tokenizer;
  const auto tokens = tokenizer.tokenize("Hello World, Pandas DataFrame!");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "pandas");
  EXPECT_EQ(tokens[3], "dataframe");
}

TEST(Tokenizer, DropsStopwordsAndNumbers) {
  const Tokenizer tokenizer;
  const auto tokens = tokenizer.tokenize("the answer is 42 not known");
  EXPECT_EQ(tokens, (std::vector<std::string>{"answer", "known"}));
}

TEST(Tokenizer, KeepsAlphanumericIdentifiers) {
  const Tokenizer tokenizer;
  const auto tokens = tokenizer.tokenize("python3 utf8 b2b");
  EXPECT_EQ(tokens, (std::vector<std::string>{"python3", "utf8", "b2b"}));
}

TEST(Tokenizer, MinLengthFilter) {
  Tokenizer tokenizer({.min_token_length = 4, .drop_numbers = true,
                       .drop_stopwords = false});
  const auto tokens = tokenizer.tokenize("cat dogs bird");
  EXPECT_EQ(tokens, (std::vector<std::string>{"dogs", "bird"}));
}

TEST(Tokenizer, OptionsCanDisableFilters) {
  Tokenizer tokenizer({.min_token_length = 1, .drop_numbers = false,
                       .drop_stopwords = false});
  const auto tokens = tokenizer.tokenize("the 42 a");
  EXPECT_EQ(tokens, (std::vector<std::string>{"the", "42", "a"}));
}

TEST(Tokenizer, EmptyAndPunctuationOnly) {
  const Tokenizer tokenizer;
  EXPECT_TRUE(tokenizer.tokenize("").empty());
  EXPECT_TRUE(tokenizer.tokenize("!!! ... ???").empty());
}

TEST(Tokenizer, StopwordLookup) {
  EXPECT_TRUE(Tokenizer::is_stopword("the"));
  EXPECT_FALSE(Tokenizer::is_stopword("python"));
}

// ---------- Vocabulary ----------

TEST(Vocabulary, InternsAndLooksUp) {
  Vocabulary vocab;
  const TokenId a = vocab.add("alpha");
  const TokenId b = vocab.add("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(vocab.add("alpha"), a);  // idempotent
  EXPECT_EQ(vocab.size(), 2u);
  EXPECT_EQ(vocab.lookup("alpha"), a);
  EXPECT_EQ(vocab.lookup("gamma"), std::nullopt);
  EXPECT_EQ(vocab.tokens()[a], "alpha");
  EXPECT_EQ(vocab.tokens()[b], "beta");
}

TEST(Vocabulary, EncodeInternsNewTokens) {
  Vocabulary vocab;
  const std::vector<std::string> doc = {"a", "b", "a"};
  const auto ids = vocab.encode(doc);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], ids[2]);
  EXPECT_EQ(vocab.size(), 2u);
}

TEST(Vocabulary, EncodeExistingDropsUnknown) {
  Vocabulary vocab;
  vocab.add("known");
  const std::vector<std::string> doc = {"known", "unknown", "known"};
  const auto ids = vocab.encode_existing(doc);
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_EQ(vocab.size(), 1u);  // unchanged
}

}  // namespace
}  // namespace forumcast::text
