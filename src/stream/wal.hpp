// Write-ahead log + snapshots for the streaming ingestion path.
//
// Durability model: every applied event is appended to `<dir>/wal.bin`
// before it is acknowledged; sync() fsyncs the fd (timed into the
// stream.wal.fsync_ms histogram). A snapshot is a *compacted log* — the
// full applied-event sequence re-encoded into `<dir>/snapshot.bin` behind a
// header carrying the last covered sequence number — written to a temp file
// and renamed, so a crash never leaves a half snapshot in place. LiveState
// is a deterministic function of (base fit, event sequence), so replaying
// snapshot events + the WAL records with seq beyond the snapshot
// reconstructs the exact pre-crash state (same digest).
//
// Replay is tolerant of a torn tail: a record cut short by a crash, or one
// failing its CRC, ends the usable log; everything before it is applied.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "stream/event.hpp"

namespace forumcast::stream {

/// Appends framed event records to a WAL file (created if missing, opened
/// for append otherwise). Writes go through a small user-space buffer;
/// sync() flushes it and fsyncs.
class WalWriter {
 public:
  explicit WalWriter(const std::string& path);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  void append(const ForumEvent& event);
  /// Flush + fsync. Called automatically by the destructor.
  void sync();

  std::uint64_t records_appended() const { return records_appended_; }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::uint64_t records_appended_ = 0;
};

/// Incremental reader over a WAL that a live WalWriter may still be
/// appending to — the replication shipping path tails the primary's log
/// through one of these. poll() decodes whatever *complete* records lie
/// past the current offset; a torn tail (a record cut short, or one whose
/// bytes are only partially visible because the writer is mid-append) means
/// "wait, try again after the next sync" — the position holds at the last
/// valid record boundary and is retried on the next poll, never treated as
/// corruption. A reader that stops advancing while the file keeps growing
/// is the caller's signal of real (persistent) corruption.
class WalReader {
 public:
  /// `start_offset` positions past an already-consumed prefix (for example
  /// RecoveredLog::wal_valid_bytes after a recovery read). A missing file
  /// is an empty log; it may appear later.
  explicit WalReader(std::string path, std::uint64_t start_offset = 0);

  /// Appends newly durable records to `out` (at most `max_records`) and
  /// returns how many were added. Returns 0 when nothing new is complete.
  std::size_t poll(std::vector<ForumEvent>& out,
                   std::size_t max_records = SIZE_MAX);

  /// Advances the position so the next poll() returns only records with
  /// seq > `seq`, scanning (and discarding) from the current offset. Stops
  /// early at a torn tail; poll() resumes the scan.
  void seek_after(std::uint64_t seq);

  /// Byte offset of the consumed valid prefix.
  std::uint64_t offset() const { return offset_; }
  /// Sequence number of the last record consumed (0 before any).
  std::uint64_t last_seq() const { return last_seq_; }

 private:
  std::string path_;
  std::uint64_t offset_ = 0;
  std::uint64_t last_seq_ = 0;
  std::uint64_t skip_through_seq_ = 0;  ///< seek_after target still pending
};

struct ReplayResult {
  std::vector<ForumEvent> events;
  /// True when the file ended mid-record or a record failed its CRC — the
  /// expected signature of a crash during append. Events up to that point
  /// are valid.
  bool truncated_tail = false;
  /// Byte length of the valid prefix (everything before the torn record).
  /// Truncate the file to this before appending again, or the new records
  /// land after the garbage and are unreachable on the next recovery.
  std::size_t valid_bytes = 0;
};

/// Reads every valid record of a WAL file. A missing file is an empty log.
ReplayResult replay_wal(const std::string& path);

/// Atomically (write temp + rename) writes a snapshot covering `events`,
/// whose greatest sequence number is `last_seq`. `model_ref` optionally
/// names the model bundle (a file name relative to the WAL directory) the
/// event log applies on top of, so recovery can restore models + events
/// from one directory; empty means "no bundle" (format v1 compatible).
void write_snapshot(const std::string& path, std::span<const ForumEvent> events,
                    std::uint64_t last_seq, std::string_view model_ref = {});

struct SnapshotData {
  bool present = false;
  std::uint64_t last_seq = 0;
  std::vector<ForumEvent> events;
  /// Model bundle reference (empty for v1 snapshots or none recorded).
  std::string model_ref;
};

/// Reads a snapshot; `present` is false for a missing file. Throws
/// util::CheckError on a malformed file (snapshots are written atomically,
/// so corruption is a real error, not a crash artifact).
SnapshotData read_snapshot(const std::string& path);

/// The combined recovery read over a WAL directory: snapshot events plus
/// the WAL records with seq greater than the snapshot's horizon.
struct RecoveredLog {
  std::vector<ForumEvent> events;
  std::uint64_t last_seq = 0;        ///< greatest seq in `events` (0 if none)
  std::size_t from_snapshot = 0;     ///< leading events that came compacted
  bool truncated_tail = false;       ///< WAL ended in a torn record
  std::size_t wal_valid_bytes = 0;   ///< valid prefix length of wal.bin
  std::string model_ref;             ///< snapshot's model bundle ref, if any
};

/// Standard file names inside a --wal-dir.
std::string wal_path(const std::string& dir);
std::string snapshot_path(const std::string& dir);
/// The model bundle LiveState writes next to the log, so one directory
/// restores both the fitted models and the streamed events.
std::string model_bundle_path(const std::string& dir);

/// Atomically (write temp + fsync + rename + directory fsync) writes
/// `contents` to `path`. Shared by snapshots and the model bundle. Throws
/// util::CheckError on any failure, leaving `path` as it was and no
/// descriptor open.
void write_file_atomic(const std::string& path, std::string_view contents);

RecoveredLog recover_log(const std::string& dir);

}  // namespace forumcast::stream
