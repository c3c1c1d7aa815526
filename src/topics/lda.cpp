#include "topics/lda.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace forumcast::topics {

Lda::Lda(LdaConfig config) : config_(config) {
  FORUMCAST_CHECK(config_.num_topics > 0);
  FORUMCAST_CHECK(config_.alpha > 0.0);
  FORUMCAST_CHECK(config_.beta > 0.0);
  FORUMCAST_CHECK(config_.iterations > 0);
}

void Lda::fit(std::span<const std::vector<text::TokenId>> documents,
              std::size_t vocab_size) {
  FORUMCAST_CHECK(vocab_size > 0);
  FORUMCAST_SPAN_NAMED(fit_span, "lda.fit");
  const std::size_t K = config_.num_topics;
  vocab_size_ = vocab_size;

  doc_topic_counts_.assign(documents.size(), std::vector<std::size_t>(K, 0));
  topic_word_counts_.assign(K * vocab_size, 0);
  topic_totals_.assign(K, 0);
  total_tokens_ = 0;

  // Flattened token stream with per-token topic assignments.
  struct Token {
    std::uint32_t doc;
    text::TokenId word;
    std::uint32_t topic;
  };
  std::vector<Token> tokens;
  for (std::size_t d = 0; d < documents.size(); ++d) {
    for (text::TokenId w : documents[d]) {
      FORUMCAST_CHECK_MSG(w < vocab_size, "token id " << w << " out of range");
      tokens.push_back({static_cast<std::uint32_t>(d), w, 0});
    }
  }
  total_tokens_ = tokens.size();

  util::Rng rng(config_.seed);
  for (auto& token : tokens) {
    token.topic = static_cast<std::uint32_t>(rng.uniform_index(K));
    ++doc_topic_counts_[token.doc][token.topic];
    ++topic_word_counts_[token.topic * vocab_size + token.word];
    ++topic_totals_[token.topic];
  }

  const double alpha = config_.alpha;
  const double beta = config_.beta;
  const double beta_sum = beta * static_cast<double>(vocab_size);

  // Per-topic cached denominators n_k + Vβ. Each Gibbs move changes exactly
  // two topic totals, so only those two entries are recomputed (from the
  // integer count, so the cached double is always bit-equal to computing it
  // fresh, as the serial sampler of previous releases did for all K).
  auto refresh_denom = [&](std::vector<double>& denom,
                           const std::vector<std::size_t>& totals) {
    for (std::size_t k = 0; k < K; ++k) {
      denom[k] = static_cast<double>(totals[k]) + beta_sum;
    }
  };

  // One collapsed-Gibbs pass over tokens [begin, end) against the given
  // count tables. Shared verbatim by the serial sampler (global tables) and
  // each AD-LDA shard (its local copies), so both make identical
  // floating-point decisions per token.
  auto sample_range = [&](std::size_t begin, std::size_t end,
                          std::vector<std::size_t>& twc,
                          std::vector<std::size_t>& totals,
                          std::vector<double>& denom,
                          std::vector<double>& weights, util::Rng& sampler) {
    for (std::size_t t = begin; t < end; ++t) {
      auto& token = tokens[t];
      auto& doc_counts = doc_topic_counts_[token.doc];
      // Remove the token from the counts.
      --doc_counts[token.topic];
      --twc[token.topic * vocab_size + token.word];
      --totals[token.topic];
      denom[token.topic] = static_cast<double>(totals[token.topic]) + beta_sum;

      // Collapsed conditional p(z = k | rest).
      for (std::size_t k = 0; k < K; ++k) {
        const double word_term =
            (static_cast<double>(twc[k * vocab_size + token.word]) + beta) /
            denom[k];
        weights[k] = (static_cast<double>(doc_counts[k]) + alpha) * word_term;
      }
      token.topic = static_cast<std::uint32_t>(sampler.categorical(weights));

      ++doc_counts[token.topic];
      ++twc[token.topic * vocab_size + token.word];
      ++totals[token.topic];
      denom[token.topic] = static_cast<double>(totals[token.topic]) + beta_sum;
    }
  };

  std::size_t threads =
      config_.threads == 0 ? util::default_thread_count() : config_.threads;

  // AD-LDA shards: contiguous token ranges cut only at document boundaries
  // (documents own their doc-topic row exclusively), balanced by token count.
  std::vector<std::size_t> shard_begin;
  if (threads > 1 && !tokens.empty()) {
    const std::size_t target = (tokens.size() + threads - 1) / threads;
    shard_begin.push_back(0);
    std::size_t current = 0;
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      if (tokens[t].doc != tokens[t - 1].doc && t - current >= target) {
        shard_begin.push_back(t);
        current = t;
      }
    }
  }
  const std::size_t num_shards = shard_begin.size();
  if (num_shards <= 1) threads = 1;

  std::vector<double> denom(K), weights(K);
  refresh_denom(denom, topic_totals_);
  // Shard-local count tables, allocated once and refreshed per sweep.
  std::vector<std::vector<std::size_t>> shard_twc(num_shards);
  std::vector<std::vector<std::size_t>> shard_totals(num_shards);

  for (std::size_t sweep = 0; sweep < config_.iterations; ++sweep) {
    FORUMCAST_SPAN_NAMED(sweep_span, "lda.gibbs_sweep");
    if (threads <= 1) {
      sample_range(0, tokens.size(), topic_word_counts_, topic_totals_, denom,
                   weights, rng);
    } else {
      // Each shard samples its documents against a sweep-start snapshot of
      // the topic–word table (its private copy; the global table is not
      // touched until every shard joins), with an RNG stream derived from
      // the (seed, sweep, shard) counter — so a fixed thread count replays
      // identically no matter how the OS schedules the workers.
      util::parallel_for(
          num_shards,
          [&](std::size_t s) {
            const std::size_t begin = shard_begin[s];
            const std::size_t end =
                s + 1 < num_shards ? shard_begin[s + 1] : tokens.size();
            std::uint64_t counter = config_.seed;
            counter += 0x9e3779b97f4a7c15ULL *
                       (static_cast<std::uint64_t>(sweep) + 1);
            counter += 0xbf58476d1ce4e5b9ULL *
                       (static_cast<std::uint64_t>(s) + 1);
            util::Rng shard_rng(util::splitmix64(counter));
            shard_twc[s] = topic_word_counts_;
            shard_totals[s] = topic_totals_;
            std::vector<double> shard_denom(K), shard_weights(K);
            refresh_denom(shard_denom, shard_totals[s]);
            sample_range(begin, end, shard_twc[s], shard_totals[s],
                         shard_denom, shard_weights, shard_rng);
          },
          threads);
      // Deterministic reduction in fixed shard order: fold each shard's
      // count deltas back into the global tables. Every token decrement is
      // owned by exactly one shard, so the folded counts can never go
      // negative.
      for (std::size_t i = 0; i < topic_word_counts_.size(); ++i) {
        const auto base = static_cast<std::int64_t>(topic_word_counts_[i]);
        std::int64_t value = base;
        for (std::size_t s = 0; s < num_shards; ++s) {
          value += static_cast<std::int64_t>(shard_twc[s][i]) - base;
        }
        topic_word_counts_[i] = static_cast<std::size_t>(value);
      }
      for (std::size_t k = 0; k < K; ++k) {
        const auto base = static_cast<std::int64_t>(topic_totals_[k]);
        std::int64_t value = base;
        for (std::size_t s = 0; s < num_shards; ++s) {
          value += static_cast<std::int64_t>(shard_totals[s][k]) - base;
        }
        topic_totals_[k] = static_cast<std::size_t>(value);
      }
    }
    FORUMCAST_COUNTER_ADD("lda.tokens_sampled", tokens.size());
    if (sweep_span.active()) {
      const double seconds = sweep_span.elapsed_seconds();
      if (seconds > 0.0) {
        const double rate = static_cast<double>(tokens.size()) / seconds;
        sweep_span.arg("tokens_per_sec", rate);
        FORUMCAST_GAUGE_SET("lda.tokens_per_sec", rate);
      }
    }
  }
  if (fit_span.active()) {
    fit_span.arg("documents", static_cast<double>(documents.size()));
    fit_span.arg("tokens", static_cast<double>(tokens.size()));
    fit_span.arg("topics", static_cast<double>(K));
  }
  FORUMCAST_LOG_DEBUG_KV("lda.fit", {"documents", documents.size()},
                         {"tokens", tokens.size()}, {"topics", K},
                         {"sweeps", config_.iterations});
  fitted_ = true;
}

std::vector<double> Lda::document_topics(std::size_t doc) const {
  FORUMCAST_CHECK(fitted());
  FORUMCAST_CHECK(doc < doc_topic_counts_.size());
  const std::size_t K = config_.num_topics;
  const auto& counts = doc_topic_counts_[doc];
  std::size_t doc_total = 0;
  for (std::size_t c : counts) doc_total += c;
  std::vector<double> theta(K);
  const double denom =
      static_cast<double>(doc_total) + config_.alpha * static_cast<double>(K);
  for (std::size_t k = 0; k < K; ++k) {
    theta[k] = (static_cast<double>(counts[k]) + config_.alpha) / denom;
  }
  return theta;
}

std::vector<double> Lda::infer(std::span<const text::TokenId> document,
                               std::size_t iterations, std::uint64_t seed) const {
  FORUMCAST_CHECK(fitted());
  FORUMCAST_COUNTER_ADD("lda.fold_ins", 1);
  const std::size_t K = config_.num_topics;
  const double alpha = config_.alpha;
  std::vector<std::size_t> doc_counts(K, 0);
  if (document.empty()) {
    return std::vector<double>(K, 1.0 / static_cast<double>(K));
  }

  util::Rng rng(seed);
  const double beta = config_.beta;
  const double beta_sum = beta * static_cast<double>(vocab_size_);
  std::vector<std::uint32_t> assignment(document.size());
  for (std::size_t i = 0; i < document.size(); ++i) {
    FORUMCAST_CHECK(document[i] < vocab_size_);
    assignment[i] = static_cast<std::uint32_t>(rng.uniform_index(K));
    ++doc_counts[assignment[i]];
  }
  std::vector<double> weights(K);
  for (std::size_t sweep = 0; sweep < iterations; ++sweep) {
    for (std::size_t i = 0; i < document.size(); ++i) {
      --doc_counts[assignment[i]];
      const text::TokenId w = document[i];
      for (std::size_t k = 0; k < K; ++k) {
        const double word_term =
            (static_cast<double>(topic_word_counts_[k * vocab_size_ + w]) + beta) /
            (static_cast<double>(topic_totals_[k]) + beta_sum);
        weights[k] = (static_cast<double>(doc_counts[k]) + alpha) * word_term;
      }
      assignment[i] = static_cast<std::uint32_t>(rng.categorical(weights));
      ++doc_counts[assignment[i]];
    }
  }
  std::vector<double> theta(K);
  const double denom = static_cast<double>(document.size()) +
                       alpha * static_cast<double>(K);
  for (std::size_t k = 0; k < K; ++k) {
    theta[k] = (static_cast<double>(doc_counts[k]) + alpha) / denom;
  }
  return theta;
}

double Lda::corpus_log_likelihood() const {
  FORUMCAST_CHECK(fitted());
  // Σ_k [ Σ_w lgamma(n_kw + β) − lgamma(n_k + Vβ) ] plus constants dropped.
  double ll = 0.0;
  const double beta = config_.beta;
  const double beta_sum = beta * static_cast<double>(vocab_size_);
  for (std::size_t k = 0; k < config_.num_topics; ++k) {
    for (std::size_t w = 0; w < vocab_size_; ++w) {
      const auto count = topic_word_counts_[k * vocab_size_ + w];
      if (count > 0) {
        ll += std::lgamma(static_cast<double>(count) + beta) - std::lgamma(beta);
      }
    }
    ll -= std::lgamma(static_cast<double>(topic_totals_[k]) + beta_sum) -
          std::lgamma(beta_sum);
  }
  return ll;
}

void Lda::encode(artifact::Encoder& enc) const {
  FORUMCAST_CHECK_MSG(fitted(), "cannot encode an unfitted LDA model");
  enc.u64(config_.num_topics);
  enc.f64(config_.alpha, "lda alpha");
  enc.f64(config_.beta, "lda beta");
  enc.u64(config_.iterations);
  enc.u64(config_.seed);
  enc.u64(config_.threads);
  enc.u64(vocab_size_);
  enc.u64(total_tokens_);
  enc.u64(doc_topic_counts_.size());
  for (const auto& doc_counts : doc_topic_counts_) enc.counts(doc_counts);
  enc.counts(topic_word_counts_);
  enc.counts(topic_totals_);
}

Lda Lda::decode(artifact::Decoder& dec) {
  LdaConfig config;
  config.num_topics = static_cast<std::size_t>(dec.u64("lda num topics"));
  FORUMCAST_CHECK_MSG(config.num_topics >= 1, "lda num topics must be >= 1");
  config.alpha = dec.f64("lda alpha");
  config.beta = dec.f64("lda beta");
  FORUMCAST_CHECK_MSG(config.alpha > 0.0 && config.beta > 0.0,
                      "lda priors must be positive: alpha="
                          << config.alpha << " beta=" << config.beta);
  config.iterations = static_cast<std::size_t>(dec.u64("lda iterations"));
  config.seed = dec.u64("lda seed");
  config.threads = static_cast<std::size_t>(dec.u64("lda threads"));

  Lda model(config);
  model.vocab_size_ = static_cast<std::size_t>(dec.u64("lda vocab size"));
  model.total_tokens_ = static_cast<std::size_t>(dec.u64("lda total tokens"));
  const auto num_docs = dec.u64("lda document count");
  model.doc_topic_counts_.reserve(static_cast<std::size_t>(num_docs));
  for (std::uint64_t d = 0; d < num_docs; ++d) {
    auto doc_counts = dec.counts("lda doc topic counts");
    FORUMCAST_CHECK_MSG(doc_counts.size() == config.num_topics,
                        "lda doc topic counts row has "
                            << doc_counts.size() << " topics, expected "
                            << config.num_topics);
    model.doc_topic_counts_.push_back(std::move(doc_counts));
  }
  model.topic_word_counts_ = dec.counts("lda topic word counts");
  FORUMCAST_CHECK_MSG(
      model.topic_word_counts_.size() ==
          config.num_topics * model.vocab_size_,
      "lda topic word table has " << model.topic_word_counts_.size()
                                  << " entries, expected "
                                  << config.num_topics * model.vocab_size_);
  model.topic_totals_ = dec.counts("lda topic totals");
  FORUMCAST_CHECK_MSG(model.topic_totals_.size() == config.num_topics,
                      "lda topic totals has " << model.topic_totals_.size()
                                              << " entries, expected "
                                              << config.num_topics);
  std::size_t total = 0;
  for (const std::size_t count : model.topic_totals_) total += count;
  FORUMCAST_CHECK_MSG(total == model.total_tokens_,
                      "lda topic totals sum to " << total << ", expected "
                                                 << model.total_tokens_);
  model.fitted_ = true;
  return model;
}

}  // namespace forumcast::topics
