// End-to-end tests of the detector: the Figure 1
// earthquake scenario, cluster evolution (the "5.9" keyword joining late),
// filters, and a small synthetic-trace integration run.

#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "detect/report.h"
#include "engine/parallel_detector.h"
#include "eval/ground_truth.h"
#include "eval/metrics.h"
#include "stream/synthetic.h"
#include "text/keyword_dictionary.h"

namespace scprt::detect {
namespace {

using Detector = engine::ParallelDetector;

// Builds messages with `count` distinct users all tweeting `keywords`.
void AppendCrowd(std::vector<stream::Message>& out, UserId first_user,
                 int count, const std::vector<KeywordId>& keywords) {
  for (int i = 0; i < count; ++i) {
    stream::Message m;
    m.user = first_user + static_cast<UserId>(i);
    m.keywords = keywords;
    out.push_back(std::move(m));
  }
}

// Filler chatter: unique users, singleton keywords that never burst.
void AppendNoise(std::vector<stream::Message>& out, UserId first_user,
                 int count, KeywordId base) {
  for (int i = 0; i < count; ++i) {
    stream::Message m;
    m.user = first_user + static_cast<UserId>(i);
    m.keywords = {base + static_cast<KeywordId>(i)};
    out.push_back(std::move(m));
  }
}

class Figure1Test : public ::testing::Test {
 protected:
  Figure1Test() {
    quake_ = dict_.Intern("earthquake");
    struck_ = dict_.Intern("struck");
    eastern_ = dict_.Intern("eastern");
    turkey_ = dict_.Intern("turkey");
    magnitude_ = dict_.Intern("5.9");
    massive_ = dict_.Intern("massive");  // bursty but uncorrelated
    noise_base_ = dict_.Intern("noise0");
    for (int i = 1; i < 400; ++i) dict_.Intern("noise" + std::to_string(i));
  }

  DetectorConfig SmallConfig() {
    DetectorConfig config;
    config.quantum_size = 20;
    config.akg.high_state_threshold = 3;
    config.akg.ec_threshold = 0.3;
    config.akg.window_length = 5;
    config.min_rank_margin = 0.0;  // no rank filter in the micro test
    config.require_noun = false;
    return config;
  }

  text::KeywordDictionary dict_;
  KeywordId quake_, struck_, eastern_, turkey_, magnitude_, massive_;
  KeywordId noise_base_;
};

TEST_F(Figure1Test, EarthquakeClusterDiscovered) {
  Detector detector({SmallConfig(), 1}, &dict_);
  std::vector<stream::Message> msgs;
  // Quantum 0: 8 users tweet the earthquake keywords; "massive" bursts in
  // unrelated messages (temporal but no spatial correlation); noise fills.
  AppendCrowd(msgs, 100, 4, {quake_, struck_, turkey_});
  AppendCrowd(msgs, 104, 4, {quake_, eastern_, turkey_});
  AppendCrowd(msgs, 300, 4, {massive_});
  AppendNoise(msgs, 400, 8, noise_base_);

  std::vector<QuantumReport> reports;
  for (const auto& m : msgs) {
    if (auto r = detector.Push(m)) reports.push_back(*r);
  }
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_FALSE(reports[0].events.empty());
  const EventSnapshot& top = reports[0].events[0];
  const std::unordered_set<KeywordId> cluster(top.keywords.begin(),
                                              top.keywords.end());
  EXPECT_TRUE(cluster.count(quake_));
  EXPECT_TRUE(cluster.count(turkey_));
  EXPECT_TRUE(cluster.count(struck_));
  EXPECT_TRUE(cluster.count(eastern_));
  // "massive" was bursty but spatially uncorrelated: not in the cluster.
  EXPECT_FALSE(cluster.count(massive_));
  EXPECT_TRUE(top.newly_reported);
}

TEST_F(Figure1Test, EvolvingKeywordJoinsCluster) {
  Detector detector({SmallConfig(), 1}, &dict_);
  std::vector<stream::Message> msgs;
  // Quantum 0: the base event.
  AppendCrowd(msgs, 100, 4, {quake_, struck_, turkey_});
  AppendCrowd(msgs, 104, 4, {quake_, eastern_, turkey_});
  AppendNoise(msgs, 400, 12, noise_base_);
  // Quantum 1: magnitude "5.9" emerges, used with quake and turkey by the
  // same crowd.
  AppendCrowd(msgs, 100, 5, {quake_, turkey_, magnitude_});
  AppendNoise(msgs, 450, 15, noise_base_ + 50);

  std::vector<QuantumReport> reports;
  for (const auto& m : msgs) {
    if (auto r = detector.Push(m)) reports.push_back(*r);
  }
  ASSERT_EQ(reports.size(), 2u);
  // After quantum 0 the cluster exists without "5.9"...
  ASSERT_FALSE(reports[0].events.empty());
  std::unordered_set<KeywordId> first(reports[0].events[0].keywords.begin(),
                                      reports[0].events[0].keywords.end());
  EXPECT_FALSE(first.count(magnitude_));
  // ...after quantum 1 it contains it (Figure 1's evolution).
  ASSERT_FALSE(reports[1].events.empty());
  std::unordered_set<KeywordId> second(reports[1].events[0].keywords.begin(),
                                       reports[1].events[0].keywords.end());
  EXPECT_TRUE(second.count(magnitude_));
  EXPECT_TRUE(second.count(quake_));
  // Same cluster identity across the evolution.
  EXPECT_EQ(reports[0].events[0].cluster_id, reports[1].events[0].cluster_id);
  EXPECT_FALSE(reports[1].events[0].newly_reported);
}

TEST_F(Figure1Test, ClusterExpiresAfterEventDies) {
  Detector detector({SmallConfig(), 1}, &dict_);
  std::vector<stream::Message> msgs;
  AppendCrowd(msgs, 100, 4, {quake_, struck_, turkey_});
  AppendCrowd(msgs, 104, 4, {quake_, eastern_, turkey_});
  AppendNoise(msgs, 400, 12, noise_base_);
  // 6 quanta (> window 5) of pure noise.
  for (int q = 0; q < 6; ++q) {
    AppendNoise(msgs, static_cast<UserId>(1000 + 100 * q), 20,
                noise_base_ + static_cast<KeywordId>(60 + 30 * q));
  }
  std::vector<QuantumReport> reports;
  for (const auto& m : msgs) {
    if (auto r = detector.Push(m)) reports.push_back(*r);
  }
  ASSERT_EQ(reports.size(), 7u);
  EXPECT_FALSE(reports[0].events.empty());
  EXPECT_TRUE(reports.back().events.empty());
  EXPECT_EQ(detector.core().maintainer().clusters().size(), 0u);
  EXPECT_EQ(detector.core().akg().node_state().akg_size(), 0u);
}

TEST_F(Figure1Test, NounFilterSuppressesVerbOnlyClusters) {
  auto config = SmallConfig();
  config.require_noun = true;
  Detector detector({config, 1}, &dict_);
  // A cluster of three non-noun keywords.
  const KeywordId a = dict_.Intern("running");
  const KeywordId b = dict_.Intern("jumping");
  const KeywordId c = dict_.Intern("walking");
  ASSERT_FALSE(dict_.IsNoun(a));
  std::vector<stream::Message> msgs;
  AppendCrowd(msgs, 100, 5, {a, b, c});
  AppendNoise(msgs, 400, 15, noise_base_);
  std::vector<QuantumReport> reports;
  for (const auto& m : msgs) {
    if (auto r = detector.Push(m)) reports.push_back(*r);
  }
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].events.empty());
  // The cluster exists; it is only filtered from the report.
  EXPECT_EQ(detector.core().maintainer().clusters().size(), 1u);
}

TEST_F(Figure1Test, RankFilterSuppressesWeakClusters) {
  auto config = SmallConfig();
  config.min_rank_margin = 100.0;  // absurd floor: everything filtered
  Detector detector({config, 1}, &dict_);
  std::vector<stream::Message> msgs;
  AppendCrowd(msgs, 100, 8, {quake_, struck_, turkey_});
  AppendNoise(msgs, 400, 12, noise_base_);
  std::vector<QuantumReport> reports;
  for (const auto& m : msgs) {
    if (auto r = detector.Push(m)) reports.push_back(*r);
  }
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].events.empty());
}

TEST_F(Figure1Test, ReportFormatting) {
  Detector detector({SmallConfig(), 1}, &dict_);
  std::vector<stream::Message> msgs;
  AppendCrowd(msgs, 100, 6, {quake_, struck_, turkey_});
  AppendNoise(msgs, 400, 14, noise_base_);
  std::vector<QuantumReport> reports;
  for (const auto& m : msgs) {
    if (auto r = detector.Push(m)) reports.push_back(*r);
  }
  ASSERT_EQ(reports.size(), 1u);
  const std::string text = FormatReport(reports[0], dict_);
  EXPECT_NE(text.find("earthquake"), std::string::npos);
  EXPECT_NE(text.find("turkey"), std::string::npos);
  EXPECT_NE(text.find("NEW"), std::string::npos);
}

// Integration: a small synthetic trace end-to-end, evaluated against the
// planted ground truth.
TEST(DetectorIntegrationTest, FindsPlantedEventsOnSyntheticTrace) {
  stream::SyntheticConfig config;
  config.seed = 7;
  config.num_messages = 40'000;
  config.num_users = 6'000;
  config.background_vocab = 8'000;
  config.num_events = 6;
  config.num_spurious = 1;
  config.event_duration_min = 10'000;
  config.event_duration_max = 16'000;
  config.peak_share_min = 0.05;  // strong events only: recall should be high
  config.peak_share_max = 0.10;
  const stream::SyntheticTrace trace = GenerateSyntheticTrace(config);

  DetectorConfig detector_config;
  detector_config.quantum_size = 160;
  detector_config.akg.high_state_threshold = 4;
  detector_config.akg.ec_threshold = 0.20;
  detector_config.akg.window_length = 30;
  Detector detector({detector_config, 1}, &trace.dictionary);
  const auto reports = detector.Run(trace.messages);
  ASSERT_GT(reports.size(), 100u);

  const eval::GroundTruthMatcher matcher(trace.script);
  const eval::RunMetrics metrics =
      eval::EvaluateRun(reports, matcher, detector_config.quantum_size);
  EXPECT_EQ(metrics.events_planted, 6u);
  EXPECT_GE(metrics.recall, 0.8) << "discovered " << metrics.events_discovered;
  // One planted spurious burst plus occasional background clusters cap the
  // attainable precision on this tiny trace.
  EXPECT_GE(metrics.precision, 0.6);
  EXPECT_GT(metrics.avg_cluster_size, 2.9);
  EXPECT_LT(metrics.avg_cluster_size, 15.0);
}

}  // namespace
}  // namespace scprt::detect
