// Tests for text/: tokenizer, stop words, noun heuristic, dictionary.

#include <gtest/gtest.h>

#include "text/keyword_dictionary.h"
#include "text/pos_tagger.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"

namespace scprt::text {
namespace {

TEST(TokenizerTest, BasicSplitAndLowercase) {
  const auto tokens = Tokenize("Earthquake STRUCK eastern Turkey!");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "earthquake");
  EXPECT_EQ(tokens[1], "struck");
  EXPECT_EQ(tokens[2], "eastern");
  EXPECT_EQ(tokens[3], "turkey");
}

TEST(TokenizerTest, KeepsDecimalsLikeFigureOne) {
  // Figure 1 has node "5.9" (quake magnitude).
  const auto tokens = Tokenize("magnitude 5.9 quake");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1], "5.9");
}

TEST(TokenizerTest, DropsLongBareNumbers) {
  const auto tokens = Tokenize("call 5551234567 now");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "call");
  EXPECT_EQ(tokens[1], "now");
}

TEST(TokenizerTest, KeepsHashtagsAndMentions) {
  const auto tokens = Tokenize("#jobs alert @nasa launch");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "#jobs");
  EXPECT_EQ(tokens[1], "alert");
  EXPECT_EQ(tokens[2], "@nasa");
}

TEST(TokenizerTest, DropsUrlFragmentsAndShortTokens) {
  const auto tokens = Tokenize("see http://t.co/x a quake");
  // "http" dropped, "x" and "a" too short; the "t.co" host remains a token.
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "see");
  EXPECT_EQ(tokens[1], "t.co");
  EXPECT_EQ(tokens[2], "quake");
}

TEST(TokenizerTest, TrimsPunctuationBorders) {
  const auto tokens = Tokenize("'quoted' trailing... word-");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "quoted");
  EXPECT_EQ(tokens[1], "trailing");
  EXPECT_EQ(tokens[2], "word");
}

TEST(TokenizerTest, EmptyInput) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("   !!! ...").empty());
}

TEST(StopWordsTest, CommonWordsAreStopWords) {
  EXPECT_TRUE(IsStopWord("the"));
  EXPECT_TRUE(IsStopWord("and"));
  EXPECT_TRUE(IsStopWord("rt"));
  EXPECT_TRUE(IsStopWord("is"));
}

TEST(StopWordsTest, ContentWordsAreNot) {
  EXPECT_FALSE(IsStopWord("earthquake"));
  EXPECT_FALSE(IsStopWord("turkey"));
  EXPECT_FALSE(IsStopWord("5.9"));
}

TEST(StopWordsTest, ListIsNonTrivial) {
  EXPECT_GT(StopWordCount(), 150u);
}

TEST(PosTaggerTest, NounsDetected) {
  EXPECT_TRUE(IsLikelyNoun("earthquake"));
  EXPECT_TRUE(IsLikelyNoun("turkey"));
  EXPECT_TRUE(IsLikelyNoun("#jobs"));
  EXPECT_TRUE(IsLikelyNoun("5.9"));
}

TEST(PosTaggerTest, NonNounsRejected) {
  EXPECT_FALSE(IsLikelyNoun("massive"));    // closed-class adjective list
  EXPECT_FALSE(IsLikelyNoun("moderate"));   // the Figure 1 non-cluster words
  EXPECT_FALSE(IsLikelyNoun("spreading"));  // -ing
  EXPECT_FALSE(IsLikelyNoun("quickly"));    // -ly
  EXPECT_FALSE(IsLikelyNoun(""));
}

TEST(KeywordDictionaryTest, InternIsIdempotent) {
  KeywordDictionary dict;
  const KeywordId a = dict.Intern("quake");
  const KeywordId b = dict.Intern("turkey");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("quake"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Spelling(a), "quake");
  EXPECT_EQ(dict.Spelling(b), "turkey");
}

TEST(KeywordDictionaryTest, LookupWithoutIntern) {
  KeywordDictionary dict;
  EXPECT_EQ(dict.Lookup("absent"), kInvalidKeyword);
  dict.Intern("present");
  EXPECT_NE(dict.Lookup("present"), kInvalidKeyword);
}

TEST(KeywordDictionaryTest, NounFlagDefaultsAndOverride) {
  KeywordDictionary dict;
  const KeywordId noun = dict.Intern("quake");
  const KeywordId verb = dict.Intern("running");
  EXPECT_TRUE(dict.IsNoun(noun));
  EXPECT_FALSE(dict.IsNoun(verb));
  dict.SetNoun(verb, true);
  EXPECT_TRUE(dict.IsNoun(verb));
}

TEST(KeywordDictionaryTest, IdsAreDense) {
  KeywordDictionary dict;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dict.Intern("kw" + std::to_string(i)),
              static_cast<KeywordId>(i));
  }
}

}  // namespace
}  // namespace scprt::text
