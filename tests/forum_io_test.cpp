#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "forum/generator.hpp"
#include "forum/io.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"

namespace forumcast::forum {
namespace {

// ---------- CSV parser primitives ----------

TEST(Csv, ParsesSimpleRecords) {
  std::istringstream in("a,b,c\n1,2,3\n");
  const auto rows = util::parse_csv(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Csv, HandlesQuotedFields) {
  std::istringstream in("\"has,comma\",\"has\"\"quote\",\"multi\nline\"\n");
  const auto rows = util::parse_csv(in);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "has,comma");
  EXPECT_EQ(rows[0][1], "has\"quote");
  EXPECT_EQ(rows[0][2], "multi\nline");
}

TEST(Csv, HandlesCrLfAndMissingFinalNewline) {
  std::istringstream in("a,b\r\nc,d");
  const auto rows = util::parse_csv(in);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, EmptyFieldsPreserved) {
  std::istringstream in(",x,\n");
  const auto rows = util::parse_csv(in);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"", "x", ""}));
}

TEST(Csv, UnterminatedQuoteThrows) {
  std::istringstream in("\"oops\n");
  EXPECT_THROW(util::parse_csv(in), util::CheckError);
}

TEST(Csv, RoundTripEscaping) {
  const std::string nasty = "a\"b,c\nd";
  std::istringstream in(util::csv_escape_field(nasty) + "\n");
  const auto rows = util::parse_csv(in);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], nasty);
}

// ---------- posts CSV round trip ----------

TEST(ForumIo, RoundTripsGeneratedForum) {
  GeneratorConfig config;
  config.num_users = 120;
  config.num_questions = 80;
  config.seed = 33;
  const auto original = generate_forum(config).dataset;

  std::stringstream buffer;
  save_posts_csv(original, buffer);
  const auto loaded = load_posts_csv(buffer);

  ASSERT_EQ(loaded.num_questions(), original.num_questions());
  EXPECT_EQ(loaded.num_users(), original.num_users());
  for (QuestionId q = 0; q < original.num_questions(); ++q) {
    const auto& a = original.thread(q);
    const auto& b = loaded.thread(q);
    EXPECT_EQ(a.question.creator, b.question.creator);
    EXPECT_NEAR(a.question.timestamp_hours, b.question.timestamp_hours, 1e-6);
    EXPECT_EQ(a.question.net_votes, b.question.net_votes);
    EXPECT_EQ(a.question.body_html, b.question.body_html);
    ASSERT_EQ(a.answers.size(), b.answers.size());
    for (std::size_t i = 0; i < a.answers.size(); ++i) {
      EXPECT_EQ(a.answers[i].creator, b.answers[i].creator);
      EXPECT_EQ(a.answers[i].net_votes, b.answers[i].net_votes);
      EXPECT_EQ(a.answers[i].body_html, b.answers[i].body_html);
    }
  }
}

TEST(ForumIo, LoadsHandWrittenCsv) {
  const std::string csv =
      "question_id,is_question,user_id,timestamp_hours,net_votes,body_html\n"
      "10,1,0,1.5,3,\"<p>how?</p>\"\n"
      "10,0,1,2.5,5,\"<p>like <code>this()</code></p>\"\n"
      "42,1,2,4.0,-1,plain body\n";
  std::istringstream in(csv);
  const auto dataset = load_posts_csv(in);
  ASSERT_EQ(dataset.num_questions(), 2u);
  EXPECT_EQ(dataset.num_users(), 3u);
  EXPECT_EQ(dataset.thread(0).answers.size(), 1u);
  EXPECT_EQ(dataset.thread(0).answers[0].net_votes, 5);
  EXPECT_EQ(dataset.thread(1).answers.size(), 0u);
  EXPECT_EQ(dataset.thread(1).question.net_votes, -1);
}

TEST(ForumIo, RejectsAnswerWithoutQuestion) {
  const std::string csv =
      "question_id,is_question,user_id,timestamp_hours,net_votes,body_html\n"
      "7,0,1,2.5,5,orphan answer\n";
  std::istringstream in(csv);
  EXPECT_THROW(load_posts_csv(in), util::CheckError);
}

TEST(ForumIo, RejectsDuplicateQuestionRow) {
  const std::string csv =
      "question_id,is_question,user_id,timestamp_hours,net_votes,body_html\n"
      "7,1,0,1.0,0,first\n"
      "7,1,1,2.0,0,second\n";
  std::istringstream in(csv);
  EXPECT_THROW(load_posts_csv(in), util::CheckError);
}

TEST(ForumIo, RejectsMalformedNumbers) {
  // Each bad row follows one good question row, so the error must name
  // row 2. Every field parses in full and in range: no wrap-around user ids,
  // no prefix parses, no NaN timestamps for the time sort to choke on.
  const std::string header =
      "question_id,is_question,user_id,timestamp_hours,net_votes,body_html\n"
      "7,1,3,1.0,0,x\n";
  for (const char* bad_row : {
           "8,1,zero,1.0,0,x",       // not a number
           "8,1,4294967296,1.0,0,x",  // user id past UserId
           "8,1,-1,1.0,0,x",         // negative user id
           "8,1,2x,1.0,0,x",         // trailing characters
           "8,1,2,1.5abc,0,x",       // trailing characters
           "8,1,2,nan,0,x",          // non-finite timestamp
           "8,1,2,inf,0,x",          // non-finite timestamp
           "8,1,2,1e400,0,x",        // timestamp out of double range
           "8,1,2,,0,x",             // empty field
           "8,1,2,1.0,99999999999,x",  // net votes past int
           "99999999999999999999,1,2,1.0,0,x",  // question id past long long
       }) {
    std::istringstream in(header + bad_row + "\n");
    try {
      load_posts_csv(in);
      ADD_FAILURE() << "accepted: " << bad_row;
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("row 2:"), std::string::npos)
          << bad_row << " -> " << e.what();
    }
  }
}

TEST(ForumIo, RejectsWrongColumnCount) {
  const std::string csv = "a,b\n1,2\n";
  std::istringstream in(csv);
  EXPECT_THROW(load_posts_csv(in), util::CheckError);
}

TEST(ForumIo, FilePathRoundTrip) {
  GeneratorConfig config;
  config.num_users = 40;
  config.num_questions = 20;
  config.seed = 77;
  const auto original = generate_forum(config).dataset;
  const std::string path = ::testing::TempDir() + "/forumcast_posts.csv";
  save_posts_csv(original, path);
  const auto loaded = load_posts_csv(path);
  EXPECT_EQ(loaded.num_questions(), original.num_questions());
  EXPECT_THROW(load_posts_csv(path + ".missing"), util::CheckError);
}

}  // namespace
}  // namespace forumcast::forum
