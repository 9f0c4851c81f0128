#include "stream/synthetic.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/random.h"

namespace scprt::stream {

namespace {

// Sample `k` distinct elements of `pool` (k <= pool.size()) by partial
// Fisher-Yates over an index scratch vector.
std::vector<KeywordId> SampleDistinct(const std::vector<KeywordId>& pool,
                                      std::size_t k, Rng& rng) {
  SCPRT_DCHECK(k <= pool.size());
  std::vector<std::uint32_t> idx(pool.size());
  for (std::uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::vector<KeywordId> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.UniformInt(idx.size() - i));
    std::swap(idx[i], idx[j]);
    out.push_back(pool[idx[i]]);
  }
  return out;
}

// Event keyword spellings: realistic-looking tokens so examples read well.
// A few stems are non-nouns to exercise the noun filter.
constexpr const char* kNounStems[] = {
    "quake",  "flood",  "fire",   "launch", "verdict", "strike", "crash",
    "storm",  "merger", "outage", "rally",  "finale",  "virus",  "eclipse",
    "summit", "heist",  "derby",  "caucus", "tsunami", "blizzard",
};
constexpr const char* kModifierStems[] = {
    "breaking", "massive", "shocking", "spreading", "trending", "exploding",
};

}  // namespace

SyntheticConfig TimeWindowPreset(std::uint64_t seed) {
  SyntheticConfig config;
  config.seed = seed;
  config.chatter_pairs = 30;
  config.chatter_rings = 8;
  return config;
}

SyntheticConfig EventSpecificPreset(std::uint64_t seed) {
  SyntheticConfig config;
  config.seed = seed;
  // ~3x the event density of TW: more events in a shorter trace, with a
  // heavier share of the stream devoted to them (Section 7.2.3 observes the
  // ES event density is about 3x TW's).
  config.num_messages = 90'000;
  config.num_events = 40;
  config.num_spurious = 8;
  config.event_duration_min = 8'000;
  config.event_duration_max = 20'000;
  config.peak_share_min = 0.02;
  config.peak_share_max = 0.12;
  config.chatter_pairs = 24;
  config.chatter_rings = 6;
  return config;
}

SyntheticTrace GenerateSyntheticTrace(const SyntheticConfig& config) {
  SCPRT_CHECK(config.num_messages > 0);
  SCPRT_CHECK(config.num_users > 0);
  SCPRT_CHECK(config.background_vocab > 0);
  SCPRT_CHECK(config.background_keywords_min >= 1);
  SCPRT_CHECK(config.background_keywords_max >=
              config.background_keywords_min);
  SCPRT_CHECK(config.event_keywords_min >= 3);
  SCPRT_CHECK(config.event_keywords_max >= config.event_keywords_min);
  SCPRT_CHECK(config.message_keywords_min >= 2);
  SCPRT_CHECK(config.chatter_rings == 0 || config.ring_size >= 5);

  Rng rng(config.seed);
  SyntheticTrace trace;
  trace.messages.reserve(config.num_messages);

  // --- Vocabulary ---
  std::vector<KeywordId> background_ids;
  background_ids.reserve(config.background_vocab);
  for (std::size_t i = 0; i < config.background_vocab; ++i) {
    const KeywordId id =
        trace.dictionary.Intern("bg" + std::to_string(i));
    // Background chatter is a mix of parts of speech; ~55% nouns.
    trace.dictionary.SetNoun(id, rng.Bernoulli(0.55));
    background_ids.push_back(id);
  }
  ZipfSampler zipf(config.background_vocab, config.zipf_exponent);

  // --- Plant events ---
  const std::size_t total_events = config.num_events + config.num_spurious;
  for (std::size_t e = 0; e < total_events; ++e) {
    PlantedEvent event;
    event.id = static_cast<std::int32_t>(e);
    event.spurious = e >= config.num_events;
    event.shape = event.spurious ? EventShape::kBurstThenDie
                                 : EventShape::kTrapezoid;
    event.duration =
        event.spurious
            ? config.spurious_duration
            : static_cast<std::uint64_t>(rng.UniformRange(
                  static_cast<std::int64_t>(config.event_duration_min),
                  static_cast<std::int64_t>(config.event_duration_max)));
    // Keep the whole lifetime inside the trace.
    const std::uint64_t latest_start =
        config.num_messages > event.duration
            ? config.num_messages - event.duration
            : 0;
    event.start_seq = rng.UniformInt(latest_start + 1);
    const double log_lo = std::log(config.peak_share_min);
    const double log_hi = std::log(config.peak_share_max);
    event.peak_share =
        event.spurious
            ? config.spurious_peak_share
            : std::exp(log_lo + (log_hi - log_lo) * rng.UniformDouble());

    // Keyword set: "<stem><event>" tokens; the first token doubles as the
    // headline noun, one modifier is a non-noun.
    const std::size_t keyword_count = static_cast<std::size_t>(
        rng.UniformRange(static_cast<std::int64_t>(config.event_keywords_min),
                         static_cast<std::int64_t>(config.event_keywords_max)));
    const char* noun_stem = kNounStems[e % std::size(kNounStems)];
    for (std::size_t k = 0; k < keyword_count; ++k) {
      std::string spelling;
      bool is_noun;
      if (k == 1) {
        // One modifier word per event, tagged non-noun.
        spelling = std::string(kModifierStems[e % std::size(kModifierStems)]) +
                   std::to_string(e);
        is_noun = false;
      } else {
        spelling = std::string(noun_stem) + std::to_string(e) + "_" +
                   std::to_string(k);
        is_noun = true;
      }
      const KeywordId id = trace.dictionary.Intern(spelling);
      trace.dictionary.SetNoun(id, is_noun);
      event.keywords.push_back(id);
    }
    for (std::size_t k = 0; k < config.event_late_keywords; ++k) {
      const KeywordId id = trace.dictionary.Intern(
          std::string(noun_stem) + std::to_string(e) + "_late" +
          std::to_string(k));
      trace.dictionary.SetNoun(id, true);
      event.late_keywords.push_back(id);
    }
    event.evolution_offset = event.duration / 2;
    event.headline = std::string(noun_stem) + " event " + std::to_string(e);

    // Adopter pool: sampled without replacement from the population.
    std::set<UserId> pool;
    while (pool.size() < std::min<std::size_t>(config.event_user_pool,
                                               config.num_users)) {
      pool.insert(static_cast<UserId>(rng.UniformInt(config.num_users)));
    }
    event.user_pool.assign(pool.begin(), pool.end());
    rng.Shuffle(event.user_pool);

    trace.script.events.push_back(std::move(event));
  }

  // --- Plant correlated non-event chatter (pairs + rings) ---
  struct Chatter {
    std::vector<KeywordId> words;
    // One disjoint user pool per edge; edge e connects words[e] and
    // words[(e+1) % words.size()] (a pair has a single edge).
    std::vector<std::vector<UserId>> pools;
    std::uint64_t phase = 0;
    double weight = 0.0;
  };
  std::vector<Chatter> chatter;
  const std::size_t total_chatter =
      config.chatter_pairs + config.chatter_rings;
  for (std::size_t c = 0; c < total_chatter; ++c) {
    const bool is_pair = c < config.chatter_pairs;
    Chatter structure;
    const std::size_t words = is_pair ? 2 : config.ring_size;
    for (std::size_t k = 0; k < words; ++k) {
      const KeywordId id = trace.dictionary.Intern(
          std::string(is_pair ? "chat" : "ring") + std::to_string(c) + "_" +
          std::to_string(k));
      trace.dictionary.SetNoun(id, true);
      structure.words.push_back(id);
    }
    const std::size_t edge_count = is_pair ? 1 : words;
    for (std::size_t e = 0; e < edge_count; ++e) {
      std::vector<UserId> pool;
      for (std::size_t u = 0; u < config.chatter_pool_per_edge; ++u) {
        pool.push_back(static_cast<UserId>(rng.UniformInt(config.num_users)));
      }
      structure.pools.push_back(std::move(pool));
    }
    structure.phase =
        config.chatter_period_msgs > 0
            ? rng.UniformInt(config.chatter_period_msgs)
            : 0;
    structure.weight = is_pair ? config.pair_weight : config.ring_weight;
    chatter.push_back(std::move(structure));
  }

  // --- Emit messages ---
  std::vector<double> weights(total_events);
  std::vector<double> chatter_weights(chatter.size());
  for (std::uint64_t seq = 0; seq < config.num_messages; ++seq) {
    double event_weight_sum = 0.0;
    for (std::size_t e = 0; e < total_events; ++e) {
      const PlantedEvent& ev = trace.script.events[e];
      const double intensity =
          seq >= ev.start_seq ? ev.IntensityAt(seq - ev.start_seq) : 0.0;
      weights[e] = ev.peak_share * intensity;
      event_weight_sum += weights[e];
    }
    double chatter_weight_sum = 0.0;
    for (std::size_t c = 0; c < chatter.size(); ++c) {
      const bool active =
          config.chatter_period_msgs > 0 &&
          (seq + chatter[c].phase) % config.chatter_period_msgs <
              config.chatter_active_msgs;
      chatter_weights[c] = active ? chatter[c].weight : 0.0;
      chatter_weight_sum += chatter_weights[c];
    }
    const double background_weight =
        std::max(0.10, 1.0 - event_weight_sum - chatter_weight_sum);

    Message m;
    m.seq = seq;
    double pick = rng.UniformDouble() *
                  (event_weight_sum + chatter_weight_sum + background_weight);
    std::int32_t chosen = kBackground;
    bool chose_chatter = false;
    std::size_t chatter_idx = 0;
    for (std::size_t e = 0; e < total_events; ++e) {
      if (pick < weights[e]) {
        chosen = static_cast<std::int32_t>(e);
        break;
      }
      pick -= weights[e];
    }
    if (chosen == kBackground) {
      for (std::size_t c = 0; c < chatter.size(); ++c) {
        if (pick < chatter_weights[c]) {
          chose_chatter = true;
          chatter_idx = c;
          break;
        }
        pick -= chatter_weights[c];
      }
    }

    if (chose_chatter) {
      // One chatter message: a random edge of the structure, authored by a
      // user from that edge's dedicated pool. Only adjacent words co-occur,
      // so rings acquire no chords (and hence no short cycles).
      const Chatter& structure = chatter[chatter_idx];
      const std::size_t edge = structure.pools.size() == 1
                                   ? 0
                                   : static_cast<std::size_t>(rng.UniformInt(
                                         structure.pools.size()));
      const auto& pool = structure.pools[edge];
      m.event_id = kBackground;
      m.user = pool[rng.UniformInt(pool.size())];
      m.keywords = {structure.words[edge],
                    structure.words[(edge + 1) % structure.words.size()]};
    } else if (chosen == kBackground) {
      m.event_id = kBackground;
      m.user = static_cast<UserId>(rng.UniformInt(config.num_users));
      const std::size_t k = static_cast<std::size_t>(rng.UniformRange(
          static_cast<std::int64_t>(config.background_keywords_min),
          static_cast<std::int64_t>(config.background_keywords_max)));
      std::unordered_set<KeywordId> kws;
      while (kws.size() < k) {
        kws.insert(background_ids[zipf.Sample(rng)]);
      }
      m.keywords.assign(kws.begin(), kws.end());
    } else {
      const PlantedEvent& ev = trace.script.events[chosen];
      m.event_id = chosen;
      // Adoption grows over the build-up: early messages come from a small
      // prefix of the pool, later ones from the whole pool.
      const double life = static_cast<double>(seq - ev.start_seq) /
                          static_cast<double>(ev.duration);
      const std::size_t adopters = std::max<std::size_t>(
          4, static_cast<std::size_t>(
                 static_cast<double>(ev.user_pool.size()) *
                 std::min(1.0, 0.15 + 2.0 * life)));
      m.user = ev.user_pool[rng.UniformInt(
          std::min(adopters, ev.user_pool.size()))];

      // Active keyword set: core keywords, plus late keywords after the
      // evolution point.
      std::vector<KeywordId> active = ev.keywords;
      if (seq - ev.start_seq >= ev.evolution_offset) {
        active.insert(active.end(), ev.late_keywords.begin(),
                      ev.late_keywords.end());
      }
      const std::size_t k = std::min(
          active.size(),
          static_cast<std::size_t>(rng.UniformRange(
              static_cast<std::int64_t>(config.message_keywords_min),
              static_cast<std::int64_t>(config.message_keywords_max))));
      m.keywords = SampleDistinct(active, k, rng);
      if (rng.Bernoulli(config.background_mix)) {
        const KeywordId extra = background_ids[zipf.Sample(rng)];
        if (std::find(m.keywords.begin(), m.keywords.end(), extra) ==
            m.keywords.end()) {
          m.keywords.push_back(extra);
        }
      }
    }
    trace.messages.push_back(std::move(m));
  }
  return trace;
}

}  // namespace scprt::stream
