#include "src/obs/digest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/support/rng.hpp"
#include "src/support/stats.hpp"

namespace beepmis {
namespace {

// support::SampleSet is the exact order-statistic oracle throughout.

TEST(Digest, EmptyAndBasicMoments) {
  obs::Digest d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  d.add(4.0);
  d.add(2.0);
  d.add(6.0);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_DOUBLE_EQ(d.sum(), 12.0);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  EXPECT_DOUBLE_EQ(d.min(), 2.0);
  EXPECT_DOUBLE_EQ(d.max(), 6.0);
}

TEST(Digest, ExactlyMatchesSampleSetWhileInExactRegime) {
  // Up to kExact samples the digest answers from its verbatim head buffer
  // with the same interpolation formula as SampleSet — equality is exact,
  // not approximate, for every q.
  support::Rng rng(7);
  obs::Digest d;
  support::SampleSet exact;
  for (std::size_t i = 0; i < obs::Digest::kExact; ++i) {
    const double x = rng.uniform01() * 1000.0;
    d.add(x);
    exact.add(x);
    for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
      ASSERT_DOUBLE_EQ(d.quantile(q), exact.quantile(q))
          << "q=" << q << " after " << i + 1 << " samples";
    }
  }
}

TEST(Digest, TrackedQuantilesCloseToExactOnUniformData) {
  support::Rng rng(11);
  obs::Digest d;
  support::SampleSet exact;
  for (std::size_t i = 0; i < 20000; ++i) {
    const double x = rng.uniform01() * 500.0;
    d.add(x);
    exact.add(x);
  }
  for (double q : obs::Digest::kTargets) {
    const double approx = d.quantile(q);
    const double truth = exact.quantile(q);
    // P² on well-behaved data stays within a couple percent of the range.
    EXPECT_NEAR(approx, truth, 0.03 * 500.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(d.min(), exact.min());
  EXPECT_DOUBLE_EQ(d.max(), exact.max());
}

TEST(Digest, TrackedQuantilesCloseToExactOnSkewedData) {
  // Exponential-ish data stresses the parabolic update harder than uniform.
  support::Rng rng(13);
  obs::Digest d;
  support::SampleSet exact;
  for (std::size_t i = 0; i < 20000; ++i) {
    const double x = -std::log(1.0 - rng.uniform01());
    d.add(x);
    exact.add(x);
  }
  for (double q : obs::Digest::kTargets) {
    const double truth = exact.quantile(q);
    EXPECT_NEAR(d.quantile(q), truth, 0.10 * truth + 0.05) << "q=" << q;
  }
}

TEST(Digest, QuantileIsMonotoneInQ) {
  support::Rng rng(17);
  obs::Digest d;
  for (std::size_t i = 0; i < 5000; ++i) d.add(rng.uniform01() * 42.0);
  double prev = d.quantile(0.0);
  for (double q = 0.05; q <= 1.0 + 1e-9; q += 0.05) {
    const double cur = d.quantile(std::min(q, 1.0));
    EXPECT_GE(cur, prev - 1e-12) << "q=" << q;
    prev = cur;
  }
}

TEST(Digest, ConstantStreamIsDegenerate) {
  obs::Digest d;
  for (int i = 0; i < 1000; ++i) d.add(3.5);
  for (double q : {0.0, 0.5, 0.95, 1.0}) EXPECT_DOUBLE_EQ(d.quantile(q), 3.5);
}

TEST(Digest, MergeOfEmptyShardIsIdentity) {
  // Shard-merge machinery routinely folds shards from threads that never
  // recorded (e.g. a sweep replica whose scratch registry got no samples);
  // an empty shard must change nothing, in either direction.
  obs::Digest populated;
  for (int i = 1; i <= 200; ++i) populated.add(static_cast<double>(i));
  const std::uint64_t count = populated.count();
  const double sum = populated.sum();
  const double p50 = populated.quantile(0.50);
  const double p95 = populated.quantile(0.95);

  obs::Digest empty;
  populated.merge(empty);
  EXPECT_EQ(populated.count(), count);
  EXPECT_DOUBLE_EQ(populated.sum(), sum);
  EXPECT_DOUBLE_EQ(populated.min(), 1.0);
  EXPECT_DOUBLE_EQ(populated.max(), 200.0);
  EXPECT_DOUBLE_EQ(populated.quantile(0.50), p50);
  EXPECT_DOUBLE_EQ(populated.quantile(0.95), p95);

  obs::Digest target;
  target.merge(empty);
  EXPECT_EQ(target.count(), 0u);
  EXPECT_DOUBLE_EQ(target.mean(), 0.0);
  target.merge(populated);
  EXPECT_EQ(target.count(), count);
  EXPECT_DOUBLE_EQ(target.sum(), sum);
  EXPECT_DOUBLE_EQ(target.min(), 1.0);
  EXPECT_DOUBLE_EQ(target.max(), 200.0);
  // Folding a large shard into an empty digest goes through the P² markers,
  // so quantiles are approximate in this direction.
  EXPECT_NEAR(target.quantile(0.95), p95, 0.05 * 200.0);
}

TEST(Digest, RegistryIntegrationAndJson) {
  obs::MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  obs::Digest& d = reg.digest("runner.rounds_to_stabilize");
  EXPECT_FALSE(reg.empty());
  for (int i = 1; i <= 100; ++i) d.add(static_cast<double>(i));
  // Same name resolves to the same digest.
  EXPECT_EQ(&reg.digest("runner.rounds_to_stabilize"), &d);
  EXPECT_EQ(reg.digest("runner.rounds_to_stabilize").count(), 100u);

  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"digests\""), std::string::npos);
  EXPECT_NE(json.find("\"runner.rounds_to_stabilize\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

}  // namespace
}  // namespace beepmis
