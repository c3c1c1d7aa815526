// Latent Dirichlet Allocation via collapsed Gibbs sampling.
//
// Replaces the paper's Gensim LDA: each forum post is one document, and the
// model yields the post-topic distributions d(p) that feed features (v), (ix),
// (x)–(xiii). Symmetric Dirichlet priors; point estimates are posterior means
// taken at the final sweep.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "artifact/artifact.hpp"
#include "text/vocabulary.hpp"

namespace forumcast::topics {

struct LdaConfig {
  std::size_t num_topics = 8;      ///< K = 8 per Sec. IV-A
  double alpha = 0.5;              ///< document-topic prior
  double beta = 0.01;              ///< topic-word prior
  std::size_t iterations = 100;    ///< Gibbs sweeps over the corpus
  std::uint64_t seed = 42;
  /// Gibbs shards (AD-LDA document partitioning). 1 = the serial collapsed
  /// sampler; 0 = util::default_thread_count(). Results are deterministic
  /// for a given thread count, and threads=1 is bit-equal to the serial
  /// sampler of previous releases.
  std::size_t threads = 1;
};

class Lda {
 public:
  explicit Lda(LdaConfig config = {});

  /// Trains on encoded documents. Empty documents are allowed (their topic
  /// distribution is the uniform prior). `vocab_size` bounds token ids.
  void fit(std::span<const std::vector<text::TokenId>> documents,
           std::size_t vocab_size);

  std::size_t num_topics() const { return config_.num_topics; }
  const LdaConfig& config() const { return config_; }
  std::size_t num_documents() const { return doc_topic_counts_.size(); }
  std::size_t vocab_size() const { return vocab_size_; }
  bool fitted() const { return fitted_; }

  /// Smoothed topic distribution θ_d of training document `doc`; sums to 1.
  std::vector<double> document_topics(std::size_t doc) const;

  /// Fold-in inference for an unseen document using the trained topic-word
  /// counts (held fixed). Deterministic given `seed`.
  std::vector<double> infer(std::span<const text::TokenId> document,
                            std::size_t iterations = 30,
                            std::uint64_t seed = 99) const;

  /// In-sample log p(w | z) (up to constants); increases as sampling mixes.
  double corpus_log_likelihood() const;

  /// Raw topic–word count table (K × V row-major), exposed so determinism
  /// tests and digests can compare sampler end states exactly.
  std::span<const std::size_t> topic_word_counts() const {
    return topic_word_counts_;
  }

  /// Serializes the fitted sampler end state (config + Gibbs count tables)
  /// into a model-bundle section body. decode() reverses it; document_topics
  /// and fold-in infer() on the decoded model are bit-identical to the
  /// encoded one (the per-topic denominators are recomputed from
  /// topic_totals_, which is exactly how fit() derives them).
  void encode(artifact::Encoder& enc) const;
  static Lda decode(artifact::Decoder& dec);

 private:
  LdaConfig config_;
  bool fitted_ = false;
  std::size_t vocab_size_ = 0;
  std::size_t total_tokens_ = 0;

  // Final-state Gibbs counts.
  std::vector<std::vector<std::size_t>> doc_topic_counts_;  // per doc: K
  std::vector<std::size_t> topic_word_counts_;              // K x V row-major
  std::vector<std::size_t> topic_totals_;                   // K
};

}  // namespace forumcast::topics
