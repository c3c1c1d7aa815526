#include "stream/event_json.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace forumcast::stream {

namespace {

// Minimal scanner for one flat JSON object of string/number values — the
// whole event schema. Strings support the standard escapes (\" \\ \/ \b \f
// \n \r \t \uXXXX, the latter emitted as UTF-8).
class FlatJsonScanner {
 public:
  explicit FlatJsonScanner(std::string_view text) : text_(text) {}

  void fail(const std::string& why) const {
    FORUMCAST_CHECK_MSG(false, "malformed event JSON at byte " +
                                   std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    skip_ws();
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // post bodies in this pipeline are generated ASCII/UTF-8).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number: " + token);
    return value;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

// A whole number that fits T: "user":4294967297 is rejected, not wrapped to
// user 1, and an out-of-range double is never cast.
template <typename T>
T as_integer(double value, const char* key) {
  using limits = std::numeric_limits<T>;
  FORUMCAST_CHECK_MSG(
      std::nearbyint(value) == value &&
          value >= static_cast<double>(limits::min()) &&
          value < static_cast<double>(limits::max()) + 1.0,
      std::string("event field '") + key + "' must be an integer in range");
  return static_cast<T>(value);
}

}  // namespace

ForumEvent parse_event_json(std::string_view line) {
  FlatJsonScanner scanner(line);
  ForumEvent event;
  std::string type_name;
  bool saw_type = false, saw_time = false, saw_user = false;
  bool saw_question = false, saw_delta = false;

  scanner.skip_ws();
  scanner.expect('{');
  if (!scanner.consume('}')) {
    do {
      const std::string key = scanner.parse_string();
      scanner.skip_ws();
      scanner.expect(':');
      if (key == "type") {
        type_name = scanner.parse_string();
        saw_type = true;
      } else if (key == "body") {
        event.body = scanner.parse_string();
      } else if (key == "time") {
        event.timestamp_hours = scanner.parse_number();
        FORUMCAST_CHECK_MSG(std::isfinite(event.timestamp_hours),
                            "event field 'time' must be finite");
        saw_time = true;
      } else if (key == "seq") {
        event.seq = as_integer<std::uint64_t>(scanner.parse_number(), "seq");
      } else if (key == "user") {
        event.user = as_integer<forum::UserId>(scanner.parse_number(), "user");
        saw_user = true;
      } else if (key == "question") {
        event.question =
            as_integer<forum::QuestionId>(scanner.parse_number(), "question");
        saw_question = true;
      } else if (key == "answer") {
        event.answer_index =
            as_integer<std::int32_t>(scanner.parse_number(), "answer");
      } else if (key == "votes") {
        event.net_votes =
            as_integer<std::int32_t>(scanner.parse_number(), "votes");
      } else if (key == "delta") {
        event.vote_delta =
            as_integer<std::int32_t>(scanner.parse_number(), "delta");
        saw_delta = true;
      } else {
        scanner.fail("unknown key '" + key + "'");
      }
    } while (scanner.consume(','));
    scanner.skip_ws();
    scanner.expect('}');
  }
  FORUMCAST_CHECK_MSG(scanner.at_end(), "trailing bytes after event object");

  FORUMCAST_CHECK_MSG(saw_type, "event missing 'type'");
  FORUMCAST_CHECK_MSG(saw_time, "event missing 'time'");
  if (type_name == "question") {
    event.type = EventType::kNewQuestion;
    FORUMCAST_CHECK_MSG(saw_user, "question event missing 'user'");
  } else if (type_name == "answer") {
    event.type = EventType::kNewAnswer;
    FORUMCAST_CHECK_MSG(saw_user, "answer event missing 'user'");
    FORUMCAST_CHECK_MSG(saw_question, "answer event missing 'question'");
    event.answer_index = -1;  // assigned on apply
  } else if (type_name == "vote") {
    event.type = EventType::kVote;
    FORUMCAST_CHECK_MSG(saw_question, "vote event missing 'question'");
    FORUMCAST_CHECK_MSG(saw_delta, "vote event missing 'delta'");
  } else {
    FORUMCAST_CHECK_MSG(false, "unknown event type '" + type_name + "'");
  }
  return event;
}

std::string event_to_json(const ForumEvent& event) {
  std::string out = "{\"type\":\"";
  out += event_type_name(event.type);
  out += "\"";
  if (event.seq != 0) {
    out += ",\"seq\":" + std::to_string(event.seq);
  }
  out += ",\"time\":";
  obs::detail::append_json_number(out, event.timestamp_hours);
  switch (event.type) {
    case EventType::kNewQuestion:
      out += ",\"user\":" + std::to_string(event.user);
      out += ",\"votes\":" + std::to_string(event.net_votes);
      out += ",\"body\":";
      obs::detail::append_json_escaped(out, event.body);
      break;
    case EventType::kNewAnswer:
      out += ",\"user\":" + std::to_string(event.user);
      out += ",\"question\":" + std::to_string(event.question);
      out += ",\"votes\":" + std::to_string(event.net_votes);
      out += ",\"body\":";
      obs::detail::append_json_escaped(out, event.body);
      break;
    case EventType::kVote:
      out += ",\"question\":" + std::to_string(event.question);
      out += ",\"answer\":" + std::to_string(event.answer_index);
      out += ",\"delta\":" + std::to_string(event.vote_delta);
      break;
  }
  out += "}";
  return out;
}

std::vector<ForumEvent> load_events_jsonl(const std::string& path) {
  std::ifstream in(path);
  FORUMCAST_CHECK_MSG(in.good(), "cannot open events file: " + path);
  std::vector<ForumEvent> events;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      events.push_back(parse_event_json(line));
    } catch (const util::CheckError& error) {
      FORUMCAST_CHECK_MSG(false, path + ":" + std::to_string(line_number) +
                                     ": " + error.what());
    }
  }
  return events;
}

void save_events_jsonl(const std::string& path,
                       std::span<const ForumEvent> events) {
  std::ofstream out(path);
  FORUMCAST_CHECK_MSG(out.good(), "cannot write events file: " + path);
  for (const ForumEvent& event : events) {
    out << event_to_json(event) << '\n';
  }
  FORUMCAST_CHECK_MSG(out.good(), "failed writing events file: " + path);
}

}  // namespace forumcast::stream
