#include "forum/generator.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "topics/topic_math.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace forumcast::forum {

namespace {

// Sparse ground-truth topic-word distributions: each topic prefers a distinct
// band of the vocabulary so topics are recoverable by LDA.
std::vector<std::vector<double>> make_topic_word_dists(std::size_t num_topics,
                                                       std::size_t vocab,
                                                       util::Rng& rng) {
  std::vector<std::vector<double>> phi(num_topics);
  const std::size_t band = vocab / num_topics;
  for (std::size_t k = 0; k < num_topics; ++k) {
    std::vector<double> weights(vocab, 0.02);
    const std::size_t start = k * band;
    const std::size_t end = (k + 1 == num_topics) ? vocab : start + band;
    for (std::size_t w = start; w < end; ++w) {
      weights[w] = 1.0 + 4.0 * rng.uniform();
    }
    double total = 0.0;
    for (double w : weights) total += w;
    for (double& w : weights) w /= total;
    phi[k] = std::move(weights);
  }
  return phi;
}

// Emits `char_budget` characters of topic-conditioned prose.
std::string emit_words(std::span<const double> topic_mix,
                       const std::vector<std::vector<double>>& phi,
                       double char_budget, util::Rng& rng) {
  std::string text;
  while (static_cast<double>(text.size()) < char_budget) {
    const std::size_t k = rng.categorical(topic_mix);
    const std::size_t w = rng.categorical(phi[k]);
    if (!text.empty()) text += ' ';
    // Synthetic vocabulary token "w<index>": alphanumeric, so the tokenizer
    // keeps it intact. Appended piecewise: GCC 12 flags the prepend in
    // `"w" + std::to_string(w)` with a false -Wrestrict in Release.
    text += 'w';
    text += std::to_string(w);
  }
  return text;
}

// Emits code-looking characters (identifiers, punctuation, newlines).
std::string emit_code(double char_budget, util::Rng& rng) {
  static constexpr std::string_view kFragments[] = {
      "for i in range(n):", "import numpy as np", "def f(x):",
      "return x + 1",       "print(result)",      "x = [v for v in xs]",
      "try:",               "except ValueError:", "df.groupby('k').sum()",
      "while queue:",       "class Node:",        "self.value = value",
  };
  std::string code;
  while (static_cast<double>(code.size()) < char_budget) {
    code += kFragments[rng.uniform_index(std::size(kFragments))];
    code += '\n';
  }
  return code;
}

std::string make_body(const std::string& words, const std::string& code) {
  std::string body = "<p>" + words + "</p>";
  if (!code.empty()) {
    body += "<pre><code>" + code + "</code></pre>";
  }
  return body;
}

double lognormal(util::Rng& rng, double median, double sigma) {
  return median * std::exp(sigma * rng.normal());
}

}  // namespace

SynthForum generate_forum(const GeneratorConfig& config) {
  FORUMCAST_CHECK(config.num_users >= 10);
  FORUMCAST_CHECK(config.num_questions >= 1);
  FORUMCAST_CHECK(config.num_topics >= 2);
  FORUMCAST_CHECK(config.vocab_words >= config.num_topics);
  FORUMCAST_CHECK(config.days > 0.0);

  util::Rng rng(config.seed);
  const std::size_t K = config.num_topics;
  const double horizon = config.days * 24.0;

  const auto phi = make_topic_word_dists(K, config.vocab_words, rng);

  GroundTruth truth;
  truth.user_interest.reserve(config.num_users);
  truth.user_activity.reserve(config.num_users);
  truth.user_expertise.reserve(config.num_users);
  truth.user_speed_scale.reserve(config.num_users);
  std::vector<double> ask_weight(config.num_users);
  for (std::size_t u = 0; u < config.num_users; ++u) {
    truth.user_interest.push_back(rng.dirichlet_symmetric(K, 0.25));
    const double activity = std::exp(config.activity_sigma * rng.normal());
    truth.user_activity.push_back(activity);
    truth.user_expertise.push_back(rng.normal(0.0, config.expertise_sigma));
    // Active users answer faster (paper Fig. 4b): speed scale shrinks with
    // activity. Delay itself is drawn independently of expertise so votes
    // and timing stay uncorrelated (paper Fig. 3).
    truth.user_speed_scale.push_back(std::exp(0.7 * rng.normal()) /
                                     (1.0 + std::log1p(activity)));
    ask_weight[u] = std::exp(0.9 * rng.normal());
  }

  // Question arrival times: uniform order statistics over the window.
  std::vector<double> arrivals(config.num_questions);
  for (double& t : arrivals) t = rng.uniform(0.0, horizon);
  std::sort(arrivals.begin(), arrivals.end());

  // Social memory: co-occurrence counts between user pairs, built causally.
  std::unordered_map<std::uint64_t, int> ties;
  auto tie_key = [](UserId a, UserId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  auto tie_count = [&](UserId a, UserId b) {
    const auto it = ties.find(tie_key(a, b));
    return it == ties.end() ? 0 : it->second;
  };

  std::vector<Thread> threads;
  threads.reserve(config.num_questions);
  std::vector<double> score(config.num_users);

  for (std::size_t qi = 0; qi < config.num_questions; ++qi) {
    Thread thread;
    const auto asker = static_cast<UserId>(rng.categorical(ask_weight));

    // Question topics: the asker's interests blended with fresh noise.
    const auto noise = rng.dirichlet_symmetric(K, 0.3);
    std::vector<double> q_topics(K);
    for (std::size_t k = 0; k < K; ++k) {
      q_topics[k] = 0.55 * truth.user_interest[asker][k] + 0.45 * noise[k];
    }

    const double popularity = std::exp(0.8 * rng.normal());
    const double word_chars =
        lognormal(rng, config.median_word_chars, config.word_chars_sigma);
    const double code_chars =
        rng.bernoulli(config.no_code_fraction)
            ? 0.0
            : lognormal(rng, config.median_code_chars, config.code_chars_sigma);

    thread.question.creator = asker;
    thread.question.timestamp_hours = arrivals[qi];
    thread.question.net_votes =
        std::max(-6, rng.poisson(1.2 * popularity) - rng.poisson(0.4));
    thread.question.body_html = make_body(
        emit_words(q_topics, phi, word_chars, rng), emit_code(code_chars, rng));

    // Decide answer count, then pick answerers by activity × topic match ×
    // social-tie preference (sampled without replacement).
    std::size_t num_answers = 0;
    if (!rng.bernoulli(config.unanswered_fraction)) {
      num_answers = 1 + static_cast<std::size_t>(
                            rng.poisson(config.mean_extra_answers));
    }
    num_answers = std::min(num_answers, config.num_users - 1);

    if (num_answers > 0) {
      for (std::size_t u = 0; u < config.num_users; ++u) {
        if (u == asker) {
          score[u] = 0.0;
          continue;
        }
        const double match = topics::total_variation_similarity(
            truth.user_interest[u], q_topics);
        const double tie_boost =
            1.0 + config.social_tie_bonus *
                      std::min(3, tie_count(static_cast<UserId>(u), asker));
        score[u] = truth.user_activity[u] *
                   (0.05 + std::pow(match, config.topic_match_weight)) *
                   tie_boost;
      }
      for (std::size_t a = 0; a < num_answers; ++a) {
        const auto answerer = static_cast<UserId>(rng.categorical(score));
        score[answerer] = 0.0;  // without replacement

        Post answer;
        answer.creator = answerer;
        // Delay: lognormal around the user's speed scale. Independent of
        // expertise by construction.
        double delay = lognormal(rng, config.median_delay_hours *
                                          truth.user_speed_scale[answerer],
                                 config.delay_sigma);
        const double remaining = horizon - thread.question.timestamp_hours;
        if (delay >= remaining) {
          delay = remaining * rng.uniform(0.05, 0.95);
        }
        answer.timestamp_hours = thread.question.timestamp_hours + delay;
        const double quality = 0.9 * truth.user_expertise[answerer] +
                               0.6 * popularity + rng.normal(0.0, 1.0);
        answer.net_votes =
            std::max(-6, static_cast<int>(std::lround(quality)));

        // Answer text: blend of the answerer's interests and the question.
        std::vector<double> a_topics(K);
        for (std::size_t k = 0; k < K; ++k) {
          a_topics[k] =
              0.5 * truth.user_interest[answerer][k] + 0.5 * q_topics[k];
        }
        const double a_words =
            lognormal(rng, 0.6 * config.median_word_chars, config.word_chars_sigma);
        const double a_code =
            rng.bernoulli(0.5)
                ? 0.0
                : lognormal(rng, 0.8 * config.median_code_chars,
                            config.code_chars_sigma);
        answer.body_html =
            make_body(emit_words(a_topics, phi, a_words, rng), emit_code(a_code, rng));
        thread.answers.push_back(std::move(answer));
      }
      // Update social memory with this thread's participants.
      for (const auto& answer : thread.answers) {
        ++ties[tie_key(asker, answer.creator)];
        for (const auto& other : thread.answers) {
          if (other.creator < answer.creator) {
            ++ties[tie_key(other.creator, answer.creator)];
          }
        }
      }
    }

    truth.question_topics.push_back(std::move(q_topics));
    truth.question_popularity.push_back(popularity);
    threads.push_back(std::move(thread));
  }

  SynthForum result{Dataset(std::move(threads), config.num_users), std::move(truth)};
  return result;
}

}  // namespace forumcast::forum
