#include "forum/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <ostream>
#include <system_error>

#include "util/check.hpp"
#include "util/csv.hpp"

namespace forumcast::forum {

namespace {
constexpr const char* kHeader =
    "question_id,is_question,user_id,timestamp_hours,net_votes,body_html";

void write_post(std::ostream& out, std::size_t question_id, bool is_question,
                const Post& post) {
  out << question_id << ',' << (is_question ? 1 : 0) << ',' << post.creator
      << ',' << post.timestamp_hours << ',' << post.net_votes << ','
      << util::csv_escape_field(post.body_html) << '\n';
}

// Parses one numeric field in full: trailing characters, values outside T's
// range (a negative or > 2^32 - 1 user id included) and an empty field are
// errors naming the row and column.
template <typename T>
T parse_field(const std::string& text, std::size_t row, const char* column) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  FORUMCAST_CHECK_MSG(ec != std::errc::result_out_of_range,
                      "row " << row << ": " << column << " '" << text
                             << "' is out of range");
  FORUMCAST_CHECK_MSG(ec == std::errc() && ptr == end,
                      "row " << row << ": " << column << " '" << text
                             << "' is not a number");
  return value;
}
}  // namespace

void save_posts_csv(const Dataset& dataset, std::ostream& out) {
  // Round-trippable double formatting for the timestamps.
  out.precision(17);
  out << kHeader << '\n';
  for (const auto& thread : dataset.threads()) {
    write_post(out, thread.id, true, thread.question);
    for (const auto& answer : thread.answers) {
      write_post(out, thread.id, false, answer);
    }
  }
}

void save_posts_csv(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path);
  FORUMCAST_CHECK_MSG(out.good(), "cannot open " << path);
  save_posts_csv(dataset, out);
  FORUMCAST_CHECK_MSG(out.good(), "write failed for " << path);
}

Dataset load_posts_csv(std::istream& in) {
  const auto rows = util::parse_csv(in);
  FORUMCAST_CHECK_MSG(!rows.empty(), "empty posts CSV");
  FORUMCAST_CHECK_MSG(rows.front().size() == 6,
                      "posts CSV must have 6 columns, got " << rows.front().size());

  struct PendingThread {
    bool has_question = false;
    Post question;
    std::vector<Post> answers;
  };
  // std::map keeps threads ordered by their external id for determinism.
  std::map<long long, PendingThread> threads;
  std::size_t max_user = 0;

  for (std::size_t r = 1; r < rows.size(); ++r) {  // row 0 = header
    const auto& row = rows[r];
    FORUMCAST_CHECK_MSG(row.size() == 6, "row " << r << " has " << row.size()
                                                << " fields");
    Post post;
    const auto question_id = parse_field<long long>(row[0], r, "question_id");
    const auto is_question = parse_field<int>(row[1], r, "is_question");
    post.creator = parse_field<UserId>(row[2], r, "user_id");
    post.timestamp_hours = parse_field<double>(row[3], r, "timestamp_hours");
    // The dataset sorts posts by time; NaN has no order and ±inf no day.
    FORUMCAST_CHECK_MSG(std::isfinite(post.timestamp_hours),
                        "row " << r << ": timestamp_hours '" << row[3]
                               << "' is not finite");
    post.net_votes = parse_field<int>(row[4], r, "net_votes");
    FORUMCAST_CHECK_MSG(is_question == 0 || is_question == 1,
                        "row " << r << ": is_question must be 0/1");
    post.body_html = row[5];
    max_user = std::max<std::size_t>(max_user, post.creator);

    auto& thread = threads[question_id];
    if (is_question) {
      FORUMCAST_CHECK_MSG(!thread.has_question,
                          "duplicate question row for thread " << question_id);
      thread.has_question = true;
      thread.question = std::move(post);
    } else {
      thread.answers.push_back(std::move(post));
    }
  }

  std::vector<Thread> result;
  result.reserve(threads.size());
  for (auto& [external_id, pending] : threads) {
    FORUMCAST_CHECK_MSG(pending.has_question,
                        "thread " << external_id << " has answers but no question");
    Thread thread;
    thread.question = std::move(pending.question);
    thread.answers = std::move(pending.answers);
    result.push_back(std::move(thread));
  }
  return Dataset(std::move(result), max_user + 1);
}

Dataset load_posts_csv(const std::string& path) {
  std::ifstream in(path);
  FORUMCAST_CHECK_MSG(in.good(), "cannot open " << path);
  return load_posts_csv(in);
}

}  // namespace forumcast::forum
