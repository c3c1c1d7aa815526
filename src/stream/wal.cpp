#include "stream/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace forumcast::stream {

namespace {

constexpr char kSnapshotMagic[4] = {'F', 'C', 'S', 'N'};
// v1: header + event records. v2 appends a model-bundle reference (u64
// length + bytes) between the header and the records; v1 files still read.
constexpr std::uint32_t kSnapshotVersion = 2;

std::string read_file(const std::string& path, bool& exists) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    exists = false;
    return {};
  }
  exists = true;
  std::ostringstream contents;
  contents << in.rdbuf();
  return std::move(contents).str();
}

void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  while (size > 0) {
    const ssize_t written = ::write(fd, data, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      FORUMCAST_CHECK_MSG(false, "write failed: " + path + ": " +
                                     std::strerror(errno));
    }
    data += written;
    size -= static_cast<std::size_t>(written);
  }
}

// Owns a file descriptor so every error path releases it; close() is the
// success path, where the caller must learn whether the close failed.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }

  int get() const { return fd_; }
  bool close() { return ::close(std::exchange(fd_, -1)) == 0; }

 private:
  int fd_;
};

}  // namespace

std::string wal_path(const std::string& dir) { return dir + "/wal.bin"; }
std::string snapshot_path(const std::string& dir) {
  return dir + "/snapshot.bin";
}
std::string model_bundle_path(const std::string& dir) {
  return dir + "/model.fcm";
}

WalWriter::WalWriter(const std::string& path) {
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  FORUMCAST_CHECK_MSG(fd_ >= 0, "cannot open WAL for append: " + path + ": " +
                                    std::strerror(errno));
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    sync();
    ::close(fd_);
  }
}

void WalWriter::append(const ForumEvent& event) {
  append_event_record(buffer_, event);
  ++records_appended_;
  FORUMCAST_COUNTER_ADD("stream.wal.records", 1);
}

void WalWriter::sync() {
  const auto start = std::chrono::steady_clock::now();
  if (!buffer_.empty()) {
    write_all(fd_, buffer_.data(), buffer_.size(), "wal");
    FORUMCAST_COUNTER_ADD("stream.wal.bytes", buffer_.size());
    buffer_.clear();
  }
  FORUMCAST_CHECK_MSG(::fsync(fd_) == 0,
                      std::string("WAL fsync failed: ") + std::strerror(errno));
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  FORUMCAST_HISTOGRAM_OBSERVE("stream.wal.fsync_ms", ms, 0.01, 0.1, 1, 10,
                              100);
  FORUMCAST_COUNTER_ADD("stream.wal.fsyncs", 1);
}

WalReader::WalReader(std::string path, std::uint64_t start_offset)
    : path_(std::move(path)), offset_(start_offset) {}

std::size_t WalReader::poll(std::vector<ForumEvent>& out,
                            std::size_t max_records) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return 0;  // not written yet; the writer may create it later
  in.seekg(static_cast<std::streamoff>(offset_));
  if (!in.good()) return 0;
  std::ostringstream tail;
  tail << in.rdbuf();
  const std::string bytes = std::move(tail).str();

  std::string_view cursor(bytes);
  std::size_t added = 0;
  while (added < max_records && !cursor.empty()) {
    DecodeResult decoded = decode_event_record(cursor);
    if (decoded.bytes_consumed == 0) {
      // Torn tail: the writer is mid-append (or a crash left a partial
      // record that recovery will truncate). Hold position and retry on
      // the next poll — this is "wait", never "corrupt".
      break;
    }
    cursor.remove_prefix(decoded.bytes_consumed);
    offset_ += decoded.bytes_consumed;
    last_seq_ = decoded.event.seq;
    if (skip_through_seq_ != 0) {
      if (decoded.event.seq <= skip_through_seq_) continue;  // still seeking
      skip_through_seq_ = 0;
    }
    out.push_back(std::move(decoded.event));
    ++added;
  }
  return added;
}

void WalReader::seek_after(std::uint64_t seq) {
  if (seq <= last_seq_) return;  // already past it
  // Lazy: the next poll() decodes and discards records up to the target
  // (they do not count toward its max_records), surviving torn tails the
  // same way normal reads do.
  skip_through_seq_ = seq;
}

ReplayResult replay_wal(const std::string& path) {
  ReplayResult result;
  bool exists = false;
  const std::string contents = read_file(path, exists);
  if (!exists) return result;
  std::string_view cursor(contents);
  while (!cursor.empty()) {
    DecodeResult decoded = decode_event_record(cursor);
    if (decoded.bytes_consumed == 0) {
      // Torn tail (record cut short by a crash) or CRC failure: the log is
      // usable up to here.
      result.truncated_tail = true;
      break;
    }
    result.events.push_back(std::move(decoded.event));
    cursor.remove_prefix(decoded.bytes_consumed);
    result.valid_bytes += decoded.bytes_consumed;
  }
  return result;
}

void write_file_atomic(const std::string& path, std::string_view contents) {
  const std::string tmp = path + ".tmp";
  ScopedFd fd(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
  FORUMCAST_CHECK_MSG(fd.get() >= 0, "cannot write " + tmp + ": " +
                                         std::strerror(errno));
  write_all(fd.get(), contents.data(), contents.size(), tmp);
  FORUMCAST_CHECK_MSG(::fsync(fd.get()) == 0, "fsync failed: " + tmp + ": " +
                                                  std::strerror(errno));
  FORUMCAST_CHECK_MSG(fd.close(), "close failed: " + tmp + ": " +
                                      std::strerror(errno));
  FORUMCAST_CHECK_MSG(::rename(tmp.c_str(), path.c_str()) == 0,
                      "rename failed: " + path + ": " + std::strerror(errno));
  // The rename lives in the directory entry: without this fsync a power
  // loss can bring back the old file.
  // (Built as one initializer: GCC 12 flags `dir = "."` with a false
  // -Wrestrict in Release.)
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  const ScopedFd dir_fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
  FORUMCAST_CHECK_MSG(dir_fd.get() >= 0, "cannot open directory " + dir +
                                             ": " + std::strerror(errno));
  FORUMCAST_CHECK_MSG(::fsync(dir_fd.get()) == 0, "directory fsync failed: " +
                                                      dir + ": " +
                                                      std::strerror(errno));
}

void write_snapshot(const std::string& path, std::span<const ForumEvent> events,
                    std::uint64_t last_seq, std::string_view model_ref) {
  std::string blob;
  blob.append(kSnapshotMagic, sizeof kSnapshotMagic);
  const std::uint32_t version = kSnapshotVersion;
  const std::uint64_t count = events.size();
  const std::uint64_t ref_length = model_ref.size();
  blob.append(reinterpret_cast<const char*>(&version), sizeof version);
  blob.append(reinterpret_cast<const char*>(&last_seq), sizeof last_seq);
  blob.append(reinterpret_cast<const char*>(&count), sizeof count);
  blob.append(reinterpret_cast<const char*>(&ref_length), sizeof ref_length);
  blob.append(model_ref.data(), model_ref.size());
  for (const ForumEvent& event : events) {
    append_event_record(blob, event);
  }

  write_file_atomic(path, blob);
  FORUMCAST_COUNTER_ADD("stream.snapshots_written", 1);
  FORUMCAST_GAUGE_SET("stream.snapshot_events", static_cast<double>(count));
}

SnapshotData read_snapshot(const std::string& path) {
  SnapshotData snapshot;
  bool exists = false;
  const std::string contents = read_file(path, exists);
  if (!exists) return snapshot;
  snapshot.present = true;
  const std::size_t header_size =
      sizeof kSnapshotMagic + sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);
  FORUMCAST_CHECK_MSG(contents.size() >= header_size &&
                          std::memcmp(contents.data(), kSnapshotMagic,
                                      sizeof kSnapshotMagic) == 0,
                      "malformed snapshot header: " + path);
  std::uint32_t version = 0;
  std::uint64_t count = 0;
  std::size_t off = sizeof kSnapshotMagic;
  std::memcpy(&version, contents.data() + off, sizeof version);
  off += sizeof version;
  FORUMCAST_CHECK_MSG(version == 1 || version == kSnapshotVersion,
                      "unsupported snapshot version: " + path);
  std::memcpy(&snapshot.last_seq, contents.data() + off,
              sizeof snapshot.last_seq);
  off += sizeof snapshot.last_seq;
  std::memcpy(&count, contents.data() + off, sizeof count);
  off += sizeof count;
  if (version >= 2) {
    std::uint64_t ref_length = 0;
    FORUMCAST_CHECK_MSG(contents.size() - off >= sizeof ref_length,
                        "truncated snapshot model ref: " + path);
    std::memcpy(&ref_length, contents.data() + off, sizeof ref_length);
    off += sizeof ref_length;
    FORUMCAST_CHECK_MSG(contents.size() - off >= ref_length,
                        "truncated snapshot model ref: " + path);
    snapshot.model_ref.assign(contents.data() + off, ref_length);
    off += ref_length;
  }

  std::string_view cursor(contents.data() + off, contents.size() - off);
  // Every record carries at least its 8-byte [len][crc] header, so the
  // remaining bytes bound what the count can honestly claim: a hostile
  // count reaches the truncation CHECK below instead of the allocator.
  const std::size_t min_record_bytes = 2 * sizeof(std::uint32_t);
  snapshot.events.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, cursor.size() / min_record_bytes)));
  for (std::uint64_t i = 0; i < count; ++i) {
    DecodeResult decoded = decode_event_record(cursor);
    FORUMCAST_CHECK_MSG(decoded.bytes_consumed != 0,
                        "truncated snapshot record: " + path);
    snapshot.events.push_back(std::move(decoded.event));
    cursor.remove_prefix(decoded.bytes_consumed);
  }
  return snapshot;
}

RecoveredLog recover_log(const std::string& dir) {
  RecoveredLog recovered;
  const SnapshotData snapshot = read_snapshot(snapshot_path(dir));
  recovered.events = snapshot.events;
  recovered.from_snapshot = snapshot.events.size();
  recovered.last_seq = snapshot.last_seq;
  recovered.model_ref = snapshot.model_ref;

  ReplayResult wal = replay_wal(wal_path(dir));
  recovered.truncated_tail = wal.truncated_tail;
  recovered.wal_valid_bytes = wal.valid_bytes;
  for (ForumEvent& event : wal.events) {
    if (event.seq <= snapshot.last_seq) continue;  // already compacted
    recovered.last_seq = event.seq;
    recovered.events.push_back(std::move(event));
  }
  if (!recovered.events.empty()) {
    recovered.last_seq = recovered.events.back().seq;
  }
  return recovered;
}

}  // namespace forumcast::stream
