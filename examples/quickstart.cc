// Quickstart: the Figure 1 scenario from raw tweet text to a discovered
// event cluster, in ~60 lines.
//
//   $ ./quickstart
//
// Six real-world-style tweets mention an earthquake in eastern Turkey. The
// pipeline tokenizes them, drops stop words, interns keywords, feeds the
// detector, and prints the cluster it discovers — including the magnitude
// "5.9" joining the cluster a quantum later, exactly as in the paper's
// Figure 1.

#include <cstdio>
#include <string>
#include <vector>

#include "detect/report.h"
#include "engine/parallel_detector.h"
#include "text/keyword_dictionary.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

using namespace scprt;

namespace {

// Tokenize + stop-word-filter + intern one tweet.
stream::Message MakeMessage(text::KeywordDictionary& dictionary, UserId user,
                            const std::string& tweet) {
  stream::Message message;
  message.user = user;
  for (const std::string& token : text::Tokenize(tweet)) {
    if (text::IsStopWord(token)) continue;
    message.keywords.push_back(dictionary.Intern(token));
  }
  return message;
}

}  // namespace

int main() {
  text::KeywordDictionary dictionary;

  // A small detector: 12-message quanta, 3 users to qualify as bursty.
  detect::DetectorConfig config;
  config.quantum_size = 12;
  config.akg.high_state_threshold = 3;
  config.akg.ec_threshold = 0.3;
  config.akg.window_length = 6;
  config.min_rank_margin = 0.0;
  engine::ParallelDetector detector({config}, &dictionary);

  // Quantum 0: the event breaks. Several users, overlapping keyword choices
  // (nobody uses all the words — the imperfect correlation of Figure 1),
  // plus background chatter.
  const std::pair<UserId, const char*> quantum0[] = {
      {1, "Massive earthquake struck eastern Turkey"},
      {2, "earthquake in eastern Turkey right now"},
      {3, "BREAKING: earthquake struck Turkey"},
      {4, "an earthquake struck eastern Turkey minutes ago"},
      {5, "moderate shaking felt here"},
      {6, "my cat is massive and lazy"},
      {7, "good coffee this morning"},
      {8, "traffic jam downtown again"},
      {9, "new phone arrived today"},
      {10, "watching the game tonight"},
      {11, "lunch was great"},
      {12, "monday mood honestly"},
  };
  // Quantum 1: the event evolves — the magnitude appears.
  const std::pair<UserId, const char*> quantum1[] = {
      {1, "USGS says 5.9 earthquake Turkey"},
      {2, "5.9 magnitude earthquake Turkey wow"},
      {3, "Turkey earthquake measured 5.9"},
      {4, "5.9 earthquake... stay safe Turkey"},
      {13, "rain forecast for tomorrow"},
      {14, "bus was late again"},
      {15, "great movie last night"},
      {16, "deadline day at work"},
      {17, "dog park was packed"},
      {18, "trying a new recipe"},
      {19, "flowers are blooming"},
      {20, "weekend plans anyone"},
  };

  std::printf("--- quantum 0: the event breaks ---\n");
  for (const auto& [user, tweet] : quantum0) {
    if (auto report = detector.Push(MakeMessage(dictionary, user, tweet))) {
      std::printf("%s", FormatReport(*report, dictionary).c_str());
    }
  }
  std::printf("\n--- quantum 1: the event evolves (\"5.9\" joins) ---\n");
  for (const auto& [user, tweet] : quantum1) {
    if (auto report = detector.Push(MakeMessage(dictionary, user, tweet))) {
      std::printf("%s", FormatReport(*report, dictionary).c_str());
    }
  }
  return 0;
}
