// Determinism contracts of sharded Gibbs LDA, the one fit stage whose work
// splits across threads (PipelineConfig::fit_threads): deterministic for a
// FIXED thread count, with threads=1 bit-equal to the serial sampler;
// different thread counts give different (AD-LDA) chains that must agree
// statistically. The network trainers have one layout each and are checked
// against per-sample references in fit_reference_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "topics/lda.hpp"
#include "util/rng.hpp"

namespace forumcast {
namespace {

// ---------- sharded Gibbs LDA ----------

// Documents drawn from disjoint vocabulary bands: trivially separable topics.
std::vector<std::vector<text::TokenId>> banded_corpus(std::size_t num_topics,
                                                      std::size_t docs_per_topic,
                                                      std::size_t words_per_doc,
                                                      std::size_t band,
                                                      std::uint64_t seed) {
  std::vector<std::vector<text::TokenId>> documents;
  util::Rng rng(seed);
  for (std::size_t k = 0; k < num_topics; ++k) {
    for (std::size_t d = 0; d < docs_per_topic; ++d) {
      std::vector<text::TokenId> doc;
      for (std::size_t w = 0; w < words_per_doc; ++w) {
        doc.push_back(
            static_cast<text::TokenId>(k * band + rng.uniform_index(band)));
      }
      documents.push_back(std::move(doc));
    }
  }
  return documents;
}

topics::Lda fit_lda(std::size_t threads,
                    std::span<const std::vector<text::TokenId>> docs,
                    std::size_t vocab) {
  topics::Lda lda(
      {.num_topics = 3, .iterations = 40, .seed = 12, .threads = threads});
  lda.fit(docs, vocab);
  return lda;
}

TEST(FitParallelLda, FixedThreadCountReproducesCountTablesExactly) {
  const auto docs = banded_corpus(3, 25, 30, 20, 41);
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto a = fit_lda(threads, docs, 60);
    const auto b = fit_lda(threads, docs, 60);
    const auto ca = a.topic_word_counts();
    const auto cb = b.topic_word_counts();
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i], cb[i]) << "threads " << threads << " cell " << i;
    }
    for (std::size_t d = 0; d < docs.size(); ++d) {
      EXPECT_EQ(a.document_topics(d), b.document_topics(d))
          << "threads " << threads << " doc " << d;
    }
  }
}

TEST(FitParallelLda, ShardReductionConservesTokenCounts) {
  const auto docs = banded_corpus(3, 25, 30, 20, 43);
  std::size_t total_tokens = 0;
  for (const auto& doc : docs) total_tokens += doc.size();
  for (std::size_t threads : {2u, 3u, 8u}) {
    const auto lda = fit_lda(threads, docs, 60);
    std::size_t folded = 0;
    for (std::size_t c : lda.topic_word_counts()) folded += c;
    EXPECT_EQ(folded, total_tokens) << "threads " << threads;
  }
}

TEST(FitParallelLda, ParallelLikelihoodWithinToleranceOfSerial) {
  const auto docs = banded_corpus(3, 40, 40, 20, 47);
  const auto serial = fit_lda(1, docs, 60);
  const double serial_ll = serial.corpus_log_likelihood();
  ASSERT_LT(serial_ll, 0.0);
  for (std::size_t threads : {2u, 4u}) {
    const auto parallel = fit_lda(threads, docs, 60);
    const double parallel_ll = parallel.corpus_log_likelihood();
    // AD-LDA runs a different (deterministic) chain, but on a separable
    // corpus it must mix to an equally good mode: per-token log-likelihoods
    // within 5% of the serial sampler's.
    EXPECT_NEAR(parallel_ll, serial_ll, 0.05 * std::abs(serial_ll))
        << "threads " << threads;
  }
}

TEST(FitParallelLda, ThreadsZeroResolvesToDefaultAndFits) {
  const auto docs = banded_corpus(2, 10, 20, 20, 53);
  const auto lda = fit_lda(0, docs, 40);
  EXPECT_TRUE(lda.fitted());
  for (std::size_t d = 0; d < docs.size(); ++d) {
    const auto theta = lda.document_topics(d);
    double sum = 0.0;
    for (double v : theta) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace forumcast
