// Per-user / per-question feature caching for the serving hot path.
//
// FeatureExtractor::features(u, q) rebuilds the full x_{u,q} vector from
// scratch on every call: it recomputes the user's median response time
// (a copy + nth_element per pair), re-reads per-user aggregates, and — the
// expensive part — evaluates a topic-similarity term against every question
// the user ever answered. Bulk scoring hits the same users and the same
// question over and over, so FeatureCache materializes
//   * one row per user     — a_u, o_u, v_u, r_u, d_u plus the four
//     centrality scores (everything that depends only on u), and
//   * one block per question — v_q, word/code lengths, d_q, the asker's
//     topic profile, and a table of topic similarities sim(d_r, d_q) for
//     every dataset question r, which turns the per-pair
//     TopicWeighted{QuestionsAnswered,AnswerVotes} loops from O(|answered|·K)
//     into O(|answered|) lookups.
// assemble() then writes x_{u,q} into a caller-provided row: the user and
// question terms are copies, and the seven pair terms (x)-(xiv), (xvii) and
// (xx) are computed for that row alone with exactly the calls and
// accumulation order of FeatureExtractor::features, so the cached path is
// bit-identical to the reference implementation. A block therefore costs
// O(Q·K) to build whatever the population size, and a request pays pair
// work only for the candidates it asks for.
//
// Invalidation is generation based: sync() compares the pipeline's fit
// generation against the one the cache was built for and drops every block
// when they differ (the extractor object itself is replaced on refit, so
// stale blocks would dangle, not just mislead).
//
// Everything a scorer reads from the cache is immutable once published: the
// per-user rows live in one UserTable per binding (built at sync(), replaced
// copy-on-write by invalidate()), and question blocks are
// shared_ptr<const QuestionBlock> in a bounded LRU. A scorer therefore
// snapshots (user table, block) under its own short lock and assembles rows
// with no lock held. A missing block can be built with no lock held too
// (build_question), then published if version() shows no sync or
// invalidation landed meanwhile.
//
// Both build_question() and assemble() also read the bound extractor
// directly (question topics; answered lists, participation and graph
// adjacency for the pair terms). That is safe under the contract every
// serving caller already keeps: streamed updates mutate the extractor only
// under the LiveState writer lock, scorers hold its read guard while they
// score, and fit() never runs concurrently with scoring.
//
// FeatureCache itself is not synchronized: serve::BatchScorer calls every
// member except build_question() and the UserTable reads under one mutex.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "features/extractor.hpp"
#include "forum/dataset.hpp"

namespace forumcast::serve {

struct FeatureCacheStats {
  std::uint64_t user_hits = 0;
  std::uint64_t user_misses = 0;
  std::uint64_t question_hits = 0;
  std::uint64_t question_misses = 0;
  /// Question blocks pushed out of the LRU by the capacity bound.
  std::uint64_t question_evictions = 0;
  /// Invalidation *events*: generation changes observed by sync() plus
  /// explicit invalidate() calls. One event may drop many blocks.
  std::uint64_t invalidations = 0;
  /// Blocks actually discarded by invalidation events: warmed user blocks
  /// plus question blocks (capacity evictions count separately above).
  std::uint64_t blocks_dropped = 0;
};

/// Which cached state a batch of live events made stale. Produced by
/// stream::DirtySet, consumed by FeatureCache::invalidate — see the contract
/// there.
struct CacheInvalidation {
  /// Graph structure changed: centralities and resource-allocation terms
  /// moved for everyone, so every block is stale.
  bool drop_all = false;
  /// Users whose aggregates, topic profile, or graph position changed. Their
  /// user row is rebuilt and question blocks they asked are dropped (the
  /// asker's topic profile/participation feeds whole columns).
  std::vector<forum::UserId> users;
  /// Users whose cached *scalars* went stale without any pair-level change
  /// (e.g. the global median fallback moved for answerless users). Only the
  /// user block is dropped.
  std::vector<forum::UserId> scalar_users;
  /// Question blocks to drop outright (e.g. the thread that received the
  /// event, whose net votes / exclusion terms changed).
  std::vector<forum::QuestionId> questions;
};

class FeatureCache {
 public:
  /// `max_cached_questions` bounds the question-block LRU: a miss that would
  /// exceed it evicts the least recently used block.
  explicit FeatureCache(std::size_t max_cached_questions = 64);

  /// Binds the cache to the extractor of pipeline generation `generation`.
  /// A generation change invalidates every cached block; a (re)bind builds
  /// the user table for every dataset user.
  void sync(const features::FeatureExtractor& extractor,
            const forum::Dataset& dataset, std::uint64_t generation);

  /// Records the first request of each of `users` since the last (re)build
  /// of its row as a miss, later ones as hits. Requires sync().
  void warm_users(std::span<const forum::UserId> users);

  struct QuestionBlock {
    forum::QuestionId question = 0;
    forum::UserId asker = 0;
    double net_votes = 0.0;
    double word_length = 0.0;
    double code_length = 0.0;
    std::span<const double> topics;        ///< d_q (owned by the extractor)
    std::span<const double> asker_topics;  ///< d_v of the asker
    bool asker_in_thread = false;  ///< asker participates in thread q
    std::vector<double> similarity;        ///< sim(d_r, d_q) per question r
  };

  /// The user features of one binding: one flat row per dataset user
  /// (8 scalars followed by the K entries of d_u). Immutable once
  /// published, so any number of threads may assemble from it lock-free.
  class UserTable {
   public:
    /// Writes x_{u,q} into `row` (`dimension()` wide) from this table,
    /// `block` (which must come from the same binding) and the bound
    /// extractor's pair data for (u, q).
    void assemble(forum::UserId u, const QuestionBlock& block,
                  std::span<double> row) const;

   private:
    friend class FeatureCache;
    const features::FeatureExtractor* extractor_ = nullptr;
    std::size_t stride_ = 0;
    std::vector<double> rows_;
  };

  /// Returns the block for `q`, building it on first use. The shared_ptr
  /// keeps the block alive across a later eviction. Requires sync().
  /// Equivalent to find_question, then build_question + publish_question.
  std::shared_ptr<const QuestionBlock> question_block(forum::QuestionId q);

  /// The cached block for `q` (marked most recently used; counts a hit), or
  /// nullptr (counts a miss). Requires sync().
  std::shared_ptr<const QuestionBlock> find_question(forum::QuestionId q);

  /// Builds the block for `q` from `extractor`/`dataset` without touching
  /// the cache's index, so callers may run it outside the lock that guards
  /// every other member. Publish the result
  /// only if version() still equals the value read before the build.
  std::shared_ptr<const QuestionBlock> build_question(
      const features::FeatureExtractor& extractor,
      const forum::Dataset& dataset, forum::QuestionId q) const;

  /// Inserts a block from build_question into the LRU, evicting the least
  /// recently used one at the cap. If another caller published the same
  /// question first, that block is kept and returned instead.
  std::shared_ptr<const QuestionBlock> publish_question(
      std::shared_ptr<const QuestionBlock> block);

  /// Bumped by every (re)bind and every invalidate(): a block built from an
  /// older version may be stale.
  std::uint64_t version() const { return version_; }

  /// The current user table; nullptr before sync().
  std::shared_ptr<const UserTable> user_table() const { return users_; }

  /// Fine-grained invalidation after in-place streamed updates (same
  /// extractor object, same generation). Contract, assuming the extractor
  /// has been stream_refresh()ed:
  ///   * drop_all — every cached question block is discarded and the user
  ///     table is rebuilt;
  ///   * otherwise the rows of `users` ∪ `scalar_users` are rebuilt in a
  ///     copy of the user table, question blocks of `questions` or asked by
  ///     a user in `users` are discarded, and a surviving question block
  ///     whose similarity table is shorter than the dataset is replaced by
  ///     a copy extended to the newly appended questions. Blocks hold no
  ///     per-user data, so dirty users need no block repair: assemble()
  ///     reads their pair terms from the updated extractor.
  /// Afterwards assemble() is again bit-identical to a cold cache over the
  /// updated extractor; tables and blocks handed out before stay intact.
  /// No-op when the cache was never bound.
  void invalidate(const CacheInvalidation& invalidation);

  /// Writes x_{u,q} into `row` (`dimension()` wide) from the current user
  /// table. `block` must come from this cache since the last sync().
  void assemble(forum::UserId u, const QuestionBlock& block,
                std::span<double> row) const;

  std::size_t dimension() const;
  std::uint64_t generation() const { return generation_; }
  const FeatureCacheStats& stats() const { return stats_; }

 private:
  std::shared_ptr<const UserTable> build_user_table() const;
  /// Drops every question block and rebuilds the user table for the bound
  /// extractor; returns how many warmed blocks that discarded.
  std::uint64_t reset();

  const features::FeatureExtractor* extractor_ = nullptr;
  const forum::Dataset* dataset_ = nullptr;
  std::uint64_t generation_ = 0;
  std::uint64_t version_ = 0;
  bool bound_ = false;
  std::size_t max_cached_questions_;

  std::shared_ptr<const UserTable> users_;
  std::vector<std::uint8_t> user_seen_;  ///< requested since the row's build
  /// Most recently used first; index_ points into it.
  std::list<std::shared_ptr<const QuestionBlock>> lru_;
  std::unordered_map<forum::QuestionId,
                     std::list<std::shared_ptr<const QuestionBlock>>::iterator>
      index_;

  FeatureCacheStats stats_;
};

}  // namespace forumcast::serve
