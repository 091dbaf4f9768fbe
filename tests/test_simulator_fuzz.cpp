/// Property/fuzz test of the simulation engine: for random graphs and a
/// random-beeping algorithm, the heard masks delivered by the engine must
/// equal a brute-force recomputation (OR over the adjacency matrix), for
/// every node, channel and round. This pins the engine against an
/// independent oracle rather than against itself.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/beep/network.hpp"
#include "src/graph/generators.hpp"
#include "src/obs/sink.hpp"

namespace beepmis::beep {
namespace {

/// Beeps each channel independently with probability 1/2; records sends and
/// heards for external checking.
class RandomBeeper : public BeepingAlgorithm {
 public:
  RandomBeeper(std::size_t n, unsigned channels) : n_(n), channels_(channels) {}
  std::string name() const override { return "random-beeper"; }
  unsigned channels() const override { return channels_; }
  std::size_t node_count() const override { return n_; }
  void decide_beeps(Round, std::span<support::Rng> rngs,
                    std::span<ChannelMask> send) override {
    for (std::size_t v = 0; v < n_; ++v) {
      ChannelMask m = 0;
      for (unsigned c = 0; c < channels_; ++c)
        if (rngs[v].bernoulli_pow2(1)) m |= static_cast<ChannelMask>(1u << c);
      send[v] = m;
    }
  }
  void receive_feedback(Round, std::span<const ChannelMask> sent,
                        std::span<const ChannelMask> heard) override {
    last_sent.assign(sent.begin(), sent.end());
    last_heard.assign(heard.begin(), heard.end());
  }
  void corrupt_node(graph::VertexId, support::Rng&) override {}
  std::vector<ChannelMask> last_sent, last_heard;

 private:
  std::size_t n_;
  unsigned channels_;
};

class EngineFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineFuzz, HeardMatchesBruteForceOracle) {
  const unsigned channels = GetParam();
  support::Rng meta(channels * 1000 + 7);
  for (int instance = 0; instance < 20; ++instance) {
    const std::size_t n = 5 + meta.below(60);
    const double p = 0.02 + 0.3 * meta.uniform01();
    support::Rng grng(meta());
    const graph::Graph g = graph::make_erdos_renyi(n, p, grng);

    auto algo = std::make_unique<RandomBeeper>(n, channels);
    auto* raw = algo.get();
    Simulation sim(g, std::move(algo), meta());
    for (int round = 0; round < 25; ++round) {
      sim.step();
      // Oracle: recompute heard from the recorded sends by scanning ALL
      // pairs (not the CSR structure the engine used).
      for (graph::VertexId v = 0; v < n; ++v) {
        ChannelMask expect = 0;
        for (graph::VertexId u = 0; u < n; ++u)
          if (u != v && g.has_edge(u, v)) expect |= raw->last_sent[u];
        ASSERT_EQ(raw->last_heard[v], expect)
            << "n=" << n << " v=" << v << " round=" << round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Channels, EngineFuzz, ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<unsigned>& i) {
                           return "ch" + std::to_string(i.param);
                         });

TEST(EventFuzz, RecordsMatchEngineCounters) {
  support::Rng meta(99);
  const graph::Graph g = graph::make_erdos_renyi(40, 0.1, meta);
  auto algo = std::make_unique<RandomBeeper>(40, 2);
  auto* raw = algo.get();
  Simulation sim(g, std::move(algo), 4);
  obs::MemorySink sink;
  sim.add_observer(&sink);
  for (int round = 0; round < 50; ++round) {
    sim.step();
    const obs::RoundEvent& rec = sink.events().back();
    std::uint32_t c1 = 0, c2 = 0, heard = 0;
    for (std::size_t v = 0; v < 40; ++v) {
      c1 += (raw->last_sent[v] & kChannel1) ? 1 : 0;
      c2 += (raw->last_sent[v] & kChannel2) ? 1 : 0;
      heard += raw->last_heard[v] ? 1 : 0;
    }
    EXPECT_EQ(rec.beeps_ch1, c1);
    EXPECT_EQ(rec.beeps_ch2, c2);
    EXPECT_EQ(rec.heard_any, heard);
    EXPECT_EQ(rec.round, static_cast<Round>(round + 1));
  }
  std::uint64_t event_ch1 = 0, event_ch2 = 0;
  for (const obs::RoundEvent& e : sink.events()) {
    event_ch1 += e.beeps_ch1;
    event_ch2 += e.beeps_ch2;
  }
  EXPECT_EQ(sim.total_beeps(0), event_ch1);
  EXPECT_EQ(sim.total_beeps(1), event_ch2);
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

}  // namespace
}  // namespace beepmis::beep
