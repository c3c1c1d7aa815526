// Event codec, JSONL interchange, WAL durability, and snapshot recovery for
// the streaming ingestion subsystem (src/stream/).
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "forum/generator.hpp"
#include "stream/event.hpp"
#include "stream/event_json.hpp"
#include "stream/live_state.hpp"
#include "stream/split.hpp"
#include "stream/wal.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::stream {
namespace {

ForumEvent question_event(std::uint64_t seq, forum::UserId user, double time,
                          std::string body = "<p>hello</p>") {
  ForumEvent event;
  event.seq = seq;
  event.type = EventType::kNewQuestion;
  event.timestamp_hours = time;
  event.user = user;
  event.body = std::move(body);
  return event;
}

ForumEvent answer_event(std::uint64_t seq, forum::UserId user,
                        forum::QuestionId question, double time,
                        std::string body = "<p>try this</p>") {
  ForumEvent event;
  event.seq = seq;
  event.type = EventType::kNewAnswer;
  event.timestamp_hours = time;
  event.user = user;
  event.question = question;
  event.body = std::move(body);
  return event;
}

ForumEvent vote_event(std::uint64_t seq, forum::QuestionId question,
                      std::int32_t answer_index, int delta, double time) {
  ForumEvent event;
  event.seq = seq;
  event.type = EventType::kVote;
  event.timestamp_hours = time;
  event.question = question;
  event.answer_index = answer_index;
  event.vote_delta = delta;
  return event;
}

void expect_events_equal(const ForumEvent& a, const ForumEvent& b) {
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.timestamp_hours, b.timestamp_hours);  // bitwise via double ==
  EXPECT_EQ(a.user, b.user);
  EXPECT_EQ(a.question, b.question);
  EXPECT_EQ(a.answer_index, b.answer_index);
  EXPECT_EQ(a.vote_delta, b.vote_delta);
  EXPECT_EQ(a.net_votes, b.net_votes);
  EXPECT_EQ(a.body, b.body);
}

std::vector<ForumEvent> sample_events() {
  return {question_event(1, 3, 100.5),
          answer_event(2, 7, 42, 101.25, "<p>w1 w2</p><pre><code>x=1\n</code></pre>"),
          vote_event(3, 42, 0, 1, 101.5),
          vote_event(4, 42, -1, -2, 102.0),
          question_event(5, 9, 103.0, "")};  // empty body round-trips too
}

std::string fresh_dir(const std::string& name) {
  // PID-suffixed so concurrent test invocations (e.g. two ctest trees at
  // once) cannot stomp each other's WAL files.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      (name + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void dump(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

// Copies `bytes` into a heap block of exactly that size, so a decoder that
// reads one byte past its input trips AddressSanitizer (a std::string's
// spare capacity or inline buffer would hide the overread).
std::unique_ptr<char[]> exact_copy(const std::string& bytes) {
  auto block = std::make_unique<char[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), block.get());
  return block;
}

// Deterministic hostile-input corpus, as for the wire codec: even rounds are
// random byte strings, odd rounds a valid encoding from `valid` with 1-4
// random bytes XOR-flipped.
std::string fuzz_input(util::Rng& rng, int round,
                       const std::vector<std::string>& valid) {
  std::string bytes;
  if (round % 2 == 0) {
    const std::size_t length = rng.uniform_index(64);
    for (std::size_t i = 0; i < length; ++i) {
      bytes.push_back(static_cast<char>(rng.uniform_index(256)));
    }
    return bytes;
  }
  bytes = valid[rng.uniform_index(valid.size())];
  const std::size_t flips = 1 + rng.uniform_index(4);
  for (std::size_t f = 0; f < flips; ++f) {
    bytes[rng.uniform_index(bytes.size())] ^=
        static_cast<char>(1 + rng.uniform_index(255));
  }
  return bytes;
}

// ---------- binary codec ----------

TEST(EventCodec, RoundTripsAllEventTypes) {
  for (const ForumEvent& event : sample_events()) {
    std::string record;
    append_event_record(record, event);
    const DecodeResult decoded = decode_event_record(record);
    ASSERT_EQ(decoded.bytes_consumed, record.size());
    EXPECT_FALSE(decoded.corrupt);
    expect_events_equal(decoded.event, event);
  }
}

TEST(EventCodec, RoundTripsBinaryAndLargeBodies) {
  ForumEvent event = question_event(9, 1, 5.0);
  event.body.assign("\x00\x01\xff binary \n\t", 11);
  std::string record;
  append_event_record(record, event);
  auto decoded = decode_event_record(record);
  ASSERT_GT(decoded.bytes_consumed, 0u);
  expect_events_equal(decoded.event, event);

  event.body.assign(100000, 'x');
  record.clear();
  append_event_record(record, event);
  decoded = decode_event_record(record);
  ASSERT_EQ(decoded.bytes_consumed, record.size());
  EXPECT_EQ(decoded.event.body.size(), 100000u);
}

TEST(EventCodec, TruncatedRecordIsATornTailNotCorruption) {
  std::string record;
  append_event_record(record, answer_event(1, 2, 3, 4.0));
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 std::size_t{8}, record.size() - 1}) {
    const DecodeResult decoded = decode_event_record(record.substr(0, keep));
    EXPECT_EQ(decoded.bytes_consumed, 0u) << "keep=" << keep;
    EXPECT_FALSE(decoded.corrupt) << "keep=" << keep;
  }
}

TEST(EventCodec, CorruptedPayloadFailsChecksum) {
  std::string record;
  append_event_record(record, answer_event(1, 2, 3, 4.0));
  record[10] = static_cast<char>(record[10] ^ 0x40);  // flip a payload bit
  const DecodeResult decoded = decode_event_record(record);
  EXPECT_EQ(decoded.bytes_consumed, 0u);
  EXPECT_TRUE(decoded.corrupt);
}

TEST(EventCodec, FuzzCorpusNeverCrashesOrOverConsumes) {
  // The WAL decoder must stay within its buffer, and a corrupt verdict
  // (framing or CRC failure) must consume nothing.
  std::vector<std::string> records;
  for (const ForumEvent& event : sample_events()) {
    append_event_record(records.emplace_back(), event);
  }
  util::Rng rng(20261018);
  for (int round = 0; round < 2000; ++round) {
    const std::string bytes = fuzz_input(rng, round, records);
    const auto block = exact_copy(bytes);
    const DecodeResult decoded =
        decode_event_record(std::string_view(block.get(), bytes.size()));
    EXPECT_LE(decoded.bytes_consumed, bytes.size());
    if (decoded.corrupt) {
      EXPECT_EQ(decoded.bytes_consumed, 0u);
    }
  }
}

// ---------- JSONL codec ----------

TEST(EventJson, RoundTripsAllEventTypes) {
  for (const ForumEvent& event : sample_events()) {
    const ForumEvent parsed = parse_event_json(event_to_json(event));
    expect_events_equal(parsed, event);
  }
}

TEST(EventJson, ParsesDocumentedSchema) {
  const ForumEvent q = parse_event_json(
      R"({"type":"question","user":12,"time":725.5,"votes":0,"body":"w1 w2"})");
  EXPECT_EQ(q.type, EventType::kNewQuestion);
  EXPECT_EQ(q.user, 12u);
  EXPECT_DOUBLE_EQ(q.timestamp_hours, 725.5);
  EXPECT_EQ(q.body, "w1 w2");
  EXPECT_EQ(q.seq, 0u);  // unassigned until applied

  const ForumEvent a = parse_event_json(
      R"({"type":"answer","user":9,"question":140,"time":726.0,"votes":1,"body":""})");
  EXPECT_EQ(a.type, EventType::kNewAnswer);
  EXPECT_EQ(a.question, 140u);
  EXPECT_EQ(a.net_votes, 1);
  EXPECT_EQ(a.answer_index, -1);  // assigned on apply

  // A vote without "answer" targets the question post.
  const ForumEvent v =
      parse_event_json(R"({"type":"vote","question":140,"time":726.5,"delta":-1})");
  EXPECT_EQ(v.type, EventType::kVote);
  EXPECT_EQ(v.answer_index, -1);
  EXPECT_EQ(v.vote_delta, -1);
}

TEST(EventJson, EscapesSpecialCharacters) {
  ForumEvent event = question_event(0, 4, 1.0);
  event.body = "quote \" backslash \\ newline \n tab \t";
  const std::string json = event_to_json(event);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // JSONL stays one line
  expect_events_equal(parse_event_json(json), event);
  // \uXXXX escapes decode to UTF-8.
  EXPECT_EQ(parse_event_json(
                R"({"type":"question","user":1,"time":2.0,"body":"é"})")
                .body,
            "\xc3\xa9");
}

TEST(EventJson, RejectsMalformedInput) {
  const char* bad[] = {
      "",                                                     // not an object
      "{}",                                                   // missing type
      R"({"type":"question","user":1})",                      // missing time
      R"({"type":"answer","user":1,"time":2.0})",             // missing question
      R"({"type":"vote","question":1,"time":2.0})",           // missing delta
      R"({"type":"merge","time":2.0})",                       // unknown type
      R"({"type":"question","user":1,"time":2.0,"x":3})",     // unknown key
      R"({"type":"question","user":1.5,"time":2.0})",         // non-integer id
      R"({"type":"question","user":1,"time":2.0} extra)",     // trailing bytes
      R"({"type":"question","user":1,"time":2.0,"body":"\q"})",  // bad escape
      R"({"type":"question","user":1,"time":oops})",          // bad number
      R"({"type":"question","user":4294967297,"time":2.0})",  // id past 2^32-1
      R"({"type":"vote","question":1,"time":2.0,"delta":3e9})",  // int32 overflow
      R"({"type":"question","user":1,"time":1e999})",         // non-finite time
  };
  for (const char* line : bad) {
    EXPECT_THROW(parse_event_json(line), util::CheckError) << line;
  }
}

TEST(EventJson, FuzzCorpusRejectsOnlyWithCheckError) {
  // Every rejection of a hostile JSONL line is a typed util::CheckError:
  // never another exception type, a crash or an out-of-bounds read.
  std::vector<std::string> lines;
  for (const ForumEvent& event : sample_events()) {
    lines.push_back(event_to_json(event));
  }
  util::Rng rng(20261019);
  for (int round = 0; round < 2000; ++round) {
    const std::string bytes = fuzz_input(rng, round, lines);
    const auto block = exact_copy(bytes);
    try {
      parse_event_json(std::string_view(block.get(), bytes.size()));
    } catch (const util::CheckError&) {
      // The one allowed rejection.
    } catch (const std::exception& error) {
      ADD_FAILURE() << "round " << round << ": untyped rejection '"
                    << error.what() << "' for input: " << bytes;
    }
  }
}

TEST(EventJson, JsonlFileRoundTrip) {
  const std::string dir = fresh_dir("events_jsonl");
  const auto events = sample_events();
  const std::string path = dir + "/events.jsonl";
  save_events_jsonl(path, events);
  const auto loaded = load_events_jsonl(path);
  ASSERT_EQ(loaded.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_events_equal(loaded[i], events[i]);
  }
  // Malformed line errors carry the line number.
  dump(path, "{\"type\":\"question\",\"user\":1,\"time\":2.0}\nnot json\n");
  try {
    load_events_jsonl(path);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find(":2:"), std::string::npos)
        << error.what();
  }
}

// ---------- WAL ----------

TEST(Wal, AppendReplayRoundTrip) {
  const std::string dir = fresh_dir("wal_roundtrip");
  const auto events = sample_events();
  {
    WalWriter writer(wal_path(dir));
    for (const auto& event : events) writer.append(event);
    EXPECT_EQ(writer.records_appended(), events.size());
  }  // destructor syncs
  const ReplayResult replayed = replay_wal(wal_path(dir));
  EXPECT_FALSE(replayed.truncated_tail);
  ASSERT_EQ(replayed.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_events_equal(replayed.events[i], events[i]);
  }
  // Reopening appends instead of truncating.
  {
    WalWriter writer(wal_path(dir));
    writer.append(question_event(6, 1, 200.0));
  }
  EXPECT_EQ(replay_wal(wal_path(dir)).events.size(), events.size() + 1);
}

TEST(Wal, MissingFileIsAnEmptyLog) {
  const ReplayResult replayed = replay_wal(fresh_dir("wal_none") + "/wal.bin");
  EXPECT_TRUE(replayed.events.empty());
  EXPECT_FALSE(replayed.truncated_tail);
}

TEST(Wal, TornTailKeepsThePrefix) {
  const std::string dir = fresh_dir("wal_torn");
  const auto events = sample_events();
  {
    WalWriter writer(wal_path(dir));
    for (const auto& event : events) writer.append(event);
  }
  std::string contents = slurp(wal_path(dir));
  contents.resize(contents.size() - 5);  // crash mid-append
  dump(wal_path(dir), contents);
  const ReplayResult replayed = replay_wal(wal_path(dir));
  EXPECT_TRUE(replayed.truncated_tail);
  ASSERT_EQ(replayed.events.size(), events.size() - 1);
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    expect_events_equal(replayed.events[i], events[i]);
  }

  // valid_bytes marks the clean prefix: cutting the file there removes the
  // torn record and nothing else.
  ASSERT_LT(replayed.valid_bytes, contents.size());
  std::filesystem::resize_file(wal_path(dir), replayed.valid_bytes);
  const ReplayResult clean = replay_wal(wal_path(dir));
  EXPECT_FALSE(clean.truncated_tail);
  EXPECT_EQ(clean.events.size(), events.size() - 1);
}

TEST(Wal, CorruptRecordEndsTheUsableLog) {
  const std::string dir = fresh_dir("wal_corrupt");
  std::string first, second;
  append_event_record(first, question_event(1, 2, 3.0));
  append_event_record(second, question_event(2, 2, 4.0));
  second[second.size() / 2] ^= 0x01;
  dump(wal_path(dir), first + second);
  const ReplayResult replayed = replay_wal(wal_path(dir));
  EXPECT_TRUE(replayed.truncated_tail);
  ASSERT_EQ(replayed.events.size(), 1u);
  EXPECT_EQ(replayed.events[0].seq, 1u);
}

// ---------- snapshots + combined recovery ----------

TEST(Snapshot, RoundTrip) {
  const std::string dir = fresh_dir("snap_roundtrip");
  const auto events = sample_events();
  write_snapshot(snapshot_path(dir), events, 5);
  const SnapshotData snapshot = read_snapshot(snapshot_path(dir));
  EXPECT_TRUE(snapshot.present);
  EXPECT_EQ(snapshot.last_seq, 5u);
  ASSERT_EQ(snapshot.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_events_equal(snapshot.events[i], events[i]);
  }
  EXPECT_FALSE(read_snapshot(dir + "/absent.bin").present);
}

TEST(Snapshot, MalformedFileThrows) {
  const std::string dir = fresh_dir("snap_bad");
  dump(snapshot_path(dir), "garbage that is no snapshot");
  EXPECT_THROW(read_snapshot(snapshot_path(dir)), util::CheckError);
}

TEST(Snapshot, ModelRefRoundTrips) {
  const std::string dir = fresh_dir("snap_model_ref");
  const auto events = sample_events();
  write_snapshot(snapshot_path(dir), events, 5, "model.fcm");
  const SnapshotData snapshot = read_snapshot(snapshot_path(dir));
  EXPECT_TRUE(snapshot.present);
  EXPECT_EQ(snapshot.model_ref, "model.fcm");
  ASSERT_EQ(snapshot.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_events_equal(snapshot.events[i], events[i]);
  }

  // Default: no reference.
  write_snapshot(snapshot_path(dir), events, 5);
  EXPECT_EQ(read_snapshot(snapshot_path(dir)).model_ref, "");
}

TEST(Snapshot, ReadsVersion1FilesWithoutModelRef) {
  // Hand-craft the v1 layout (header + records, no model-ref field): logs
  // written before the bundle reference existed must keep recovering.
  const std::string dir = fresh_dir("snap_v1");
  const auto events = sample_events();
  std::string blob = "FCSN";
  const std::uint32_t version = 1;
  const std::uint64_t last_seq = 5;
  const std::uint64_t count = events.size();
  blob.append(reinterpret_cast<const char*>(&version), sizeof version);
  blob.append(reinterpret_cast<const char*>(&last_seq), sizeof last_seq);
  blob.append(reinterpret_cast<const char*>(&count), sizeof count);
  for (const ForumEvent& event : events) append_event_record(blob, event);
  dump(snapshot_path(dir), blob);

  const SnapshotData snapshot = read_snapshot(snapshot_path(dir));
  EXPECT_TRUE(snapshot.present);
  EXPECT_EQ(snapshot.last_seq, 5u);
  EXPECT_EQ(snapshot.model_ref, "");
  ASSERT_EQ(snapshot.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    expect_events_equal(snapshot.events[i], events[i]);
  }
}

TEST(Snapshot, TruncatedModelRefThrows) {
  const std::string dir = fresh_dir("snap_ref_trunc");
  write_snapshot(snapshot_path(dir), sample_events(), 5, "model.fcm");
  const std::string whole = slurp(snapshot_path(dir));
  // Cut inside the model-ref bytes (header is 28 bytes, then the ref).
  dump(snapshot_path(dir), whole.substr(0, 30));
  EXPECT_THROW(read_snapshot(snapshot_path(dir)), util::CheckError);
}

TEST(Snapshot, HostileEventCountThrowsCheckError) {
  // A v2 header claiming 2^60 events over an empty record section must fail
  // validation, not the allocator (vector::reserve's length_error).
  const std::string dir = fresh_dir("snap_hostile_count");
  std::string blob = "FCSN";
  const std::uint32_t version = 2;
  const std::uint64_t last_seq = 5;
  const std::uint64_t count = std::uint64_t{1} << 60;
  const std::uint64_t ref_length = 0;
  blob.append(reinterpret_cast<const char*>(&version), sizeof version);
  blob.append(reinterpret_cast<const char*>(&last_seq), sizeof last_seq);
  blob.append(reinterpret_cast<const char*>(&count), sizeof count);
  blob.append(reinterpret_cast<const char*>(&ref_length), sizeof ref_length);
  append_event_record(blob, sample_events().front());
  dump(snapshot_path(dir), blob);
  EXPECT_THROW(read_snapshot(snapshot_path(dir)), util::CheckError);
}

TEST(WriteFileAtomic, ReplacesContentsAndLeavesNoTemp) {
  const std::string dir = fresh_dir("atomic_write");
  const std::string path = dir + "/file.bin";
  write_file_atomic(path, "first");
  EXPECT_EQ(slurp(path), "first");
  write_file_atomic(path, "second, longer contents");
  EXPECT_EQ(slurp(path), "second, longer contents");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

std::size_t open_fd_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(WriteFileAtomic, FailedWriteThrowsAndReleasesItsDescriptor) {
  // A file-size limit makes write() fail with EFBIG (SIGXFSZ ignored) partway
  // through: the call must throw CheckError without leaking the temp fd, and
  // the old contents must survive.
  const std::string dir = fresh_dir("atomic_write_fail");
  const std::string path = dir + "/file.bin";
  write_file_atomic(path, "old");

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto previous_handler = std::signal(SIGXFSZ, SIG_IGN);
  const std::size_t fds_before = open_fd_count();
  rlimit small = saved;
  small.rlim_cur = 4096;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &small), 0);
  EXPECT_THROW(write_file_atomic(path, std::string(64 * 1024, 'x')),
               util::CheckError);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, previous_handler);

  EXPECT_EQ(open_fd_count(), fds_before);
  EXPECT_EQ(slurp(path), "old");
}

TEST(RecoverLog, MergesSnapshotWithNewerWalRecords) {
  const std::string dir = fresh_dir("recover_merge");
  std::vector<ForumEvent> events;
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    events.push_back(question_event(seq, 1, 10.0 + static_cast<double>(seq)));
  }
  {
    WalWriter writer(wal_path(dir));
    for (const auto& event : events) writer.append(event);
  }
  // Snapshot compacts the first 5; WAL still holds all 8.
  write_snapshot(snapshot_path(dir),
                 std::span<const ForumEvent>(events).first(5), 5, "model.fcm");
  const RecoveredLog recovered = recover_log(dir);
  EXPECT_EQ(recovered.model_ref, "model.fcm");
  EXPECT_EQ(recovered.from_snapshot, 5u);
  EXPECT_EQ(recovered.last_seq, 8u);
  ASSERT_EQ(recovered.events.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    expect_events_equal(recovered.events[i], events[i]);
  }
}

TEST(RecoverLog, EmptyDirectoryIsAFreshStart) {
  const RecoveredLog recovered = recover_log(fresh_dir("recover_empty"));
  EXPECT_TRUE(recovered.events.empty());
  EXPECT_EQ(recovered.last_seq, 0u);
  EXPECT_EQ(recovered.from_snapshot, 0u);
}

// ---------- dataset split / event replay ----------

TEST(Split, ReplayingTheStreamReproducesTheForum) {
  forum::GeneratorConfig config;
  config.num_users = 80;
  config.num_questions = 90;
  config.seed = 515;
  const forum::Dataset original =
      forum::generate_forum(config).dataset.preprocessed();
  const double cutoff = 20.0 * 24.0;
  const EventSplit split = split_events_after(original, cutoff);
  ASSERT_GT(split.events.size(), 0u);
  ASSERT_GT(split.base.num_questions(), 0u);
  EXPECT_LT(split.base.num_questions(), original.num_questions());
  EXPECT_LE(split.base.last_post_time(), cutoff);
  double previous = cutoff;
  for (const ForumEvent& event : split.events) {
    EXPECT_GE(event.timestamp_hours, previous);
    previous = event.timestamp_hours;
  }

  // Stamp sequence numbers the way LiveState would and replay.
  std::vector<ForumEvent> events = split.events;
  for (std::size_t i = 0; i < events.size(); ++i) events[i].seq = i + 1;
  const forum::Dataset rebuilt = dataset_from_events(split.base, events);

  ASSERT_EQ(rebuilt.num_questions(), original.num_questions());
  // Thread ids shift (streamed questions append after the base), so compare
  // threads matched by their question post.
  auto post_key = [](const forum::Post& post) {
    return std::tuple(post.creator, post.timestamp_hours, post.net_votes,
                      post.body_html);
  };
  for (const forum::Thread& thread : original.threads()) {
    const forum::Thread* match = nullptr;
    for (const forum::Thread& candidate : rebuilt.threads()) {
      if (post_key(candidate.question) == post_key(thread.question)) {
        match = &candidate;
        break;
      }
    }
    ASSERT_NE(match, nullptr);
    ASSERT_EQ(match->answers.size(), thread.answers.size());
    for (std::size_t i = 0; i < thread.answers.size(); ++i) {
      EXPECT_EQ(post_key(match->answers[i]), post_key(thread.answers[i]));
    }
  }
}

// ---------- incremental tail reader ----------

TEST(WalReader, PollsNothingFromAMissingFile) {
  const std::string dir = fresh_dir("walreader_missing");
  WalReader reader(wal_path(dir));
  std::vector<ForumEvent> out;
  EXPECT_EQ(reader.poll(out), 0u);
  EXPECT_EQ(reader.offset(), 0u);

  // The file appearing later (a writer starting up) is not an error: the
  // next poll picks it up from the start.
  {
    WalWriter writer(wal_path(dir));
    writer.append(question_event(1, 3, 100.5));
    writer.sync();
  }
  EXPECT_EQ(reader.poll(out), 1u);
  EXPECT_EQ(out[0].seq, 1u);
}

TEST(WalReader, TailsAWalWhileAWriterAppends) {
  const std::string dir = fresh_dir("walreader_tail");
  WalWriter writer(wal_path(dir));
  WalReader reader(wal_path(dir));
  std::vector<ForumEvent> out;

  // Durability boundary: appends sit in the writer's user-space buffer
  // until sync(), so the reader sees nothing yet.
  writer.append(question_event(1, 3, 100.5));
  writer.append(answer_event(2, 7, 0, 101.0));
  EXPECT_EQ(reader.poll(out), 0u);

  writer.sync();
  EXPECT_EQ(reader.poll(out), 2u);
  EXPECT_EQ(reader.last_seq(), 2u);

  // Interleaved append/sync/poll keeps extending the same positions.
  writer.append(vote_event(3, 0, 0, 1, 101.5));
  writer.sync();
  EXPECT_EQ(reader.poll(out), 1u);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].seq, i + 1);
  }
  EXPECT_EQ(reader.poll(out), 0u);  // caught up
}

TEST(WalReader, TornTailMeansWaitNotCorruption) {
  const std::string dir = fresh_dir("walreader_torn");
  {
    WalWriter writer(wal_path(dir));
    writer.append(question_event(1, 3, 100.5));
    writer.append(question_event(2, 4, 101.5));
    writer.sync();
  }
  const std::string full = slurp(wal_path(dir));

  // Cut the second record short: a writer mid-append looks exactly like
  // this on disk.
  dump(wal_path(dir), full.substr(0, full.size() - 7));

  WalReader reader(wal_path(dir));
  std::vector<ForumEvent> out;
  EXPECT_EQ(reader.poll(out), 1u);  // the complete first record
  const std::uint64_t held = reader.offset();
  EXPECT_EQ(reader.poll(out), 0u);  // torn tail: hold position, wait
  EXPECT_EQ(reader.offset(), held);

  // The "writer" finishes the append; the reader resumes where it held.
  dump(wal_path(dir), full);
  EXPECT_EQ(reader.poll(out), 1u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].seq, 2u);
}

TEST(WalReader, MaxRecordsBoundsEachPoll) {
  const std::string dir = fresh_dir("walreader_bounded");
  {
    WalWriter writer(wal_path(dir));
    for (std::uint64_t seq = 1; seq <= 5; ++seq) {
      writer.append(question_event(seq, 3, 100.0 + static_cast<double>(seq)));
    }
    writer.sync();
  }
  WalReader reader(wal_path(dir));
  std::vector<ForumEvent> out;
  EXPECT_EQ(reader.poll(out, 2), 2u);
  EXPECT_EQ(reader.poll(out, 2), 2u);
  EXPECT_EQ(reader.poll(out, 2), 1u);
  EXPECT_EQ(reader.last_seq(), 5u);
}

TEST(WalReader, SeekAfterSkipsConsumedPrefix) {
  const std::string dir = fresh_dir("walreader_seek");
  {
    WalWriter writer(wal_path(dir));
    for (std::uint64_t seq = 1; seq <= 4; ++seq) {
      writer.append(question_event(seq, 3, 100.0 + static_cast<double>(seq)));
    }
    writer.sync();
  }
  WalReader reader(wal_path(dir));
  reader.seek_after(2);
  std::vector<ForumEvent> out;
  EXPECT_EQ(reader.poll(out), 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].seq, 3u);
  EXPECT_EQ(out[1].seq, 4u);
}

TEST(WalReader, SeekAfterPastATornTailResumesOnCompletion) {
  const std::string dir = fresh_dir("walreader_seek_torn");
  {
    WalWriter writer(wal_path(dir));
    writer.append(question_event(1, 3, 100.5));
    writer.append(question_event(2, 4, 101.5));
    writer.append(question_event(3, 5, 102.5));
    writer.sync();
  }
  const std::string full = slurp(wal_path(dir));
  dump(wal_path(dir), full.substr(0, full.size() - 5));

  // The seek target sits beyond the torn record: the skip scans what it
  // can, holds at the tear, and the pending target survives into poll().
  WalReader reader(wal_path(dir));
  reader.seek_after(2);
  std::vector<ForumEvent> out;
  EXPECT_EQ(reader.poll(out), 0u);

  dump(wal_path(dir), full);
  EXPECT_EQ(reader.poll(out), 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 3u);
}

TEST(WalReader, TailsThroughAConcurrentWriterThread) {
  const std::string dir = fresh_dir("walreader_concurrent");
  constexpr std::uint64_t kTotal = 400;

  std::thread writer_thread([&] {
    WalWriter writer(wal_path(dir));
    for (std::uint64_t seq = 1; seq <= kTotal; ++seq) {
      writer.append(question_event(seq, 3, 100.0 + static_cast<double>(seq)));
      // Sync in small irregular bursts so the reader observes many
      // different durable frontiers, including mid-burst ones.
      if (seq % 7 == 0 || seq == kTotal) writer.sync();
    }
  });

  WalReader reader(wal_path(dir));
  std::vector<ForumEvent> out;
  while (out.size() < kTotal) {
    reader.poll(out);
  }
  writer_thread.join();

  ASSERT_EQ(out.size(), kTotal);
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(out[i].seq, i + 1);  // every record, in order, exactly once
  }
  EXPECT_EQ(reader.poll(out), 0u);
}

}  // namespace
}  // namespace forumcast::stream
