#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "topics/lda.hpp"
#include "topics/topic_math.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::topics {
namespace {

// ---------- topic math ----------

TEST(TopicMath, TotalVariationSimilarityBounds) {
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(total_variation_similarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(total_variation_similarity(a, b), 0.0);
  const std::vector<double> c = {0.5, 0.5};
  EXPECT_DOUBLE_EQ(total_variation_similarity(a, c), 0.5);
}

TEST(TopicMath, TotalVariationIsSymmetric) {
  util::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = rng.dirichlet_symmetric(6, 0.4);
    const auto b = rng.dirichlet_symmetric(6, 0.4);
    EXPECT_NEAR(total_variation_similarity(a, b),
                total_variation_similarity(b, a), 1e-12);
    const double s = total_variation_similarity(a, b);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(TopicMath, UniformDistribution) {
  const auto u = uniform_distribution(4);
  EXPECT_TRUE(is_distribution(u));
  for (double v : u) EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_THROW(uniform_distribution(0), util::CheckError);
}

TEST(TopicMath, IsDistributionRejectsBadInput) {
  EXPECT_FALSE(is_distribution(std::vector<double>{0.5, 0.6}));
  EXPECT_FALSE(is_distribution(std::vector<double>{1.5, -0.5}));
  EXPECT_FALSE(is_distribution(std::vector<double>{}));
  EXPECT_TRUE(is_distribution(std::vector<double>{0.25, 0.75}));
}

// ---------- LDA ----------

// Builds a corpus where documents draw from one of `num_topics` disjoint
// vocabulary bands — trivially separable topics.
struct SyntheticCorpus {
  std::vector<std::vector<text::TokenId>> documents;
  std::vector<std::size_t> true_topic;  // per document
  std::size_t vocab_size;
};

SyntheticCorpus make_corpus(std::size_t num_topics, std::size_t docs_per_topic,
                            std::size_t words_per_doc, std::uint64_t seed) {
  SyntheticCorpus corpus;
  const std::size_t band = 20;
  corpus.vocab_size = num_topics * band;
  util::Rng rng(seed);
  for (std::size_t k = 0; k < num_topics; ++k) {
    for (std::size_t d = 0; d < docs_per_topic; ++d) {
      std::vector<text::TokenId> doc;
      for (std::size_t w = 0; w < words_per_doc; ++w) {
        doc.push_back(static_cast<text::TokenId>(k * band + rng.uniform_index(band)));
      }
      corpus.documents.push_back(std::move(doc));
      corpus.true_topic.push_back(k);
    }
  }
  return corpus;
}

TEST(Lda, DocumentTopicsAreDistributions) {
  const auto corpus = make_corpus(3, 20, 30, 11);
  Lda lda({.num_topics = 3, .iterations = 50, .seed = 1});
  lda.fit(corpus.documents, corpus.vocab_size);
  for (std::size_t d = 0; d < corpus.documents.size(); ++d) {
    EXPECT_TRUE(is_distribution(lda.document_topics(d), 1e-9)) << "doc " << d;
  }
}

TEST(Lda, RecoversDisjointTopics) {
  const auto corpus = make_corpus(3, 40, 50, 17);
  Lda lda({.num_topics = 3, .iterations = 120, .seed = 3});
  lda.fit(corpus.documents, corpus.vocab_size);

  // Same-true-topic documents should be far more similar to each other than
  // documents from different true topics.
  double same = 0.0, cross = 0.0;
  std::size_t same_n = 0, cross_n = 0;
  for (std::size_t a = 0; a < corpus.documents.size(); a += 7) {
    for (std::size_t b = a + 1; b < corpus.documents.size(); b += 7) {
      const double s = total_variation_similarity(lda.document_topics(a),
                                                  lda.document_topics(b));
      if (corpus.true_topic[a] == corpus.true_topic[b]) {
        same += s;
        ++same_n;
      } else {
        cross += s;
        ++cross_n;
      }
    }
  }
  ASSERT_GT(same_n, 0u);
  ASSERT_GT(cross_n, 0u);
  EXPECT_GT(same / same_n, cross / cross_n + 0.4);
}

TEST(Lda, InferMatchesTrainingTopicStructure) {
  const auto corpus = make_corpus(3, 40, 50, 19);
  Lda lda({.num_topics = 3, .iterations = 100, .seed = 4});
  lda.fit(corpus.documents, corpus.vocab_size);

  // A fresh document from band 0 should be most similar to training docs of
  // true topic 0.
  util::Rng rng(23);
  std::vector<text::TokenId> fresh;
  for (int w = 0; w < 50; ++w) {
    fresh.push_back(static_cast<text::TokenId>(rng.uniform_index(20)));
  }
  const auto inferred = lda.infer(fresh);
  EXPECT_TRUE(is_distribution(inferred, 1e-9));
  const double sim_topic0 =
      total_variation_similarity(inferred, lda.document_topics(0));
  const double sim_topic2 = total_variation_similarity(
      inferred, lda.document_topics(2 * 40));  // first doc of true topic 2
  EXPECT_GT(sim_topic0, sim_topic2);
}

TEST(Lda, InferEmptyDocumentIsUniform) {
  const auto corpus = make_corpus(2, 10, 20, 29);
  Lda lda({.num_topics = 2, .iterations = 30, .seed = 5});
  lda.fit(corpus.documents, corpus.vocab_size);
  const auto inferred = lda.infer(std::vector<text::TokenId>{});
  EXPECT_DOUBLE_EQ(inferred[0], 0.5);
  EXPECT_DOUBLE_EQ(inferred[1], 0.5);
}

TEST(Lda, EmptyDocumentGetsPriorDistribution) {
  auto corpus = make_corpus(2, 10, 20, 31);
  corpus.documents.push_back({});  // empty document
  Lda lda({.num_topics = 2, .iterations = 30, .seed = 6});
  lda.fit(corpus.documents, corpus.vocab_size);
  const auto theta = lda.document_topics(corpus.documents.size() - 1);
  EXPECT_NEAR(theta[0], 0.5, 1e-9);
  EXPECT_NEAR(theta[1], 0.5, 1e-9);
}

TEST(Lda, DeterministicForFixedSeed) {
  const auto corpus = make_corpus(2, 15, 25, 37);
  Lda a({.num_topics = 2, .iterations = 40, .seed = 7});
  Lda b({.num_topics = 2, .iterations = 40, .seed = 7});
  a.fit(corpus.documents, corpus.vocab_size);
  b.fit(corpus.documents, corpus.vocab_size);
  for (std::size_t d = 0; d < corpus.documents.size(); ++d) {
    EXPECT_EQ(a.document_topics(d), b.document_topics(d));
  }
}

TEST(Lda, GibbsImprovesLogLikelihoodOverShortRun) {
  const auto corpus = make_corpus(4, 30, 40, 41);
  Lda short_run({.num_topics = 4, .iterations = 2, .seed = 8});
  Lda long_run({.num_topics = 4, .iterations = 100, .seed = 8});
  short_run.fit(corpus.documents, corpus.vocab_size);
  long_run.fit(corpus.documents, corpus.vocab_size);
  EXPECT_GT(long_run.corpus_log_likelihood(), short_run.corpus_log_likelihood());
}

TEST(Lda, ValidatesInput) {
  Lda lda({.num_topics = 2, .iterations = 5});
  std::vector<std::vector<text::TokenId>> docs = {{0, 1, 5}};
  EXPECT_THROW(lda.fit(docs, 3), util::CheckError);  // token 5 out of range
  EXPECT_THROW(lda.document_topics(0), util::CheckError);  // not fitted
  EXPECT_THROW(Lda({.num_topics = 0}), util::CheckError);
}

}  // namespace
}  // namespace forumcast::topics
