// Prediction ledger: the bounded memory of what the model claimed.
//
// Every prediction served through BatchScorer is recorded here as one
// LedgerEntry; when ground truth arrives on the event stream (a NewAnswer),
// the label-join resolves the question's pending entries into labeled
// outcomes. The ring is bounded: a prediction whose outcome never arrives
// before the slot is recycled is simply evicted (counted, so the join rate
// is observable), which is exactly the behavior a production monitor needs
// under unbounded serving traffic.
//
// Not thread-safe by itself; QualityMonitor serializes access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "forum/post.hpp"

namespace forumcast::obs::monitor {

struct LedgerEntry {
  forum::QuestionId question = 0;
  forum::UserId user = 0;
  double answer_probability = 0.0;  ///< predicted â_{u,q}
  double votes = 0.0;               ///< predicted v̂_{u,q}
  double delay_hours = 0.0;         ///< predicted r̂_{u,q}
  std::uint64_t model_epoch = 0;    ///< serving sync token at record time
  double record_time_hours = 0.0;   ///< event-time clock when recorded
};

class PredictionLedger {
 public:
  explicit PredictionLedger(std::size_t capacity);

  /// Records one prediction, overwriting the oldest live slot when full.
  void record(const LedgerEntry& entry);

  /// First-answer label-join: consumes every pending entry for `question`
  /// and returns them with the answerer's entry (if any) at
  /// `positive_index`. When the same user was scored for the question more
  /// than once (periodic re-scoring), only the most recent entry per user is
  /// returned — the freshest claim is the one the model should be judged on.
  struct Resolution {
    std::vector<LedgerEntry> entries;
    std::ptrdiff_t positive_index = -1;  ///< index into entries, -1 = none
  };
  Resolution resolve_question(forum::QuestionId question,
                              forum::UserId answerer);

  std::size_t pending() const { return live_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t evicted() const { return evicted_; }
  std::size_t capacity() const { return ring_.size(); }

 private:
  struct Slot {
    LedgerEntry entry;
    std::uint64_t stamp = 0;  ///< recorded_ value at write; 0 = never used
    bool live = false;
  };

  void compact_index();

  std::vector<Slot> ring_;
  std::size_t head_ = 0;
  std::size_t live_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t evicted_ = 0;
  /// question → (slot index, stamp) of every entry recorded for it. Entries
  /// go stale when their slot is recycled; stale pairs are skipped on
  /// resolve and swept wholesale when the index outgrows the ring.
  std::unordered_map<forum::QuestionId,
                     std::vector<std::pair<std::size_t, std::uint64_t>>>
      by_question_;
  std::size_t indexed_ = 0;
};

}  // namespace forumcast::obs::monitor
