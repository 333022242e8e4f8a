// Cross-commit training goldens: hexfloat digests of every network a DDPG
// agent owns after K seeded update() calls, and of the dynamics model
// after one fit() epoch.
//
// The other determinism suites compare two paths inside one build (threads
// vs shards, serial vs sharded, member vs shard); they would keep passing
// if a kernel change moved every bit consistently. These digests were
// recorded once and pin the training arithmetic itself: a kernel, fusion
// or optimizer rewrite must leave them unmodified.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "envmodel/dynamics_model.h"
#include "nn/serialize.h"
#include "persist/binary_io.h"
#include "persist/checkpoint.h"
#include "rl/ddpg.h"

namespace miras {
namespace {

std::string digest(const std::vector<double>& values) {
  std::uint64_t hash = 1469598103934665603ull;
  char buffer[64];
  for (const double v : values) {
    const int len = std::snprintf(buffer, sizeof buffer, "%a ", v);
    for (int i = 0; i < len; ++i) {
      hash ^= static_cast<unsigned char>(buffer[i]);
      hash *= 1099511628211ull;
    }
  }
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// Digests of actor, actor target, perturbed actor, critic, critic target,
/// critic2 and critic2 target, read back from the agent's own checkpoint
/// section so the test needs no accessors beyond the public persist API.
std::vector<std::string> network_digests(const rl::DdpgAgent& agent) {
  persist::BinaryWriter out;
  agent.save_state(out);
  persist::BinaryReader in(out.bytes().data(), out.bytes().size(), "ddpg");
  in.u64();  // state_dim
  in.u64();  // action_dim
  in.i64();  // budget
  const bool twin = in.boolean();
  persist::read_rng_state(in);
  std::vector<std::string> digests;
  for (int i = 0; i < 3; ++i)
    digests.push_back(digest(nn::read_network(in).get_parameters()));
  for (int i = 0; i < (twin ? 4 : 2); ++i)
    digests.push_back(digest(nn::read_critic(in).get_parameters()));
  return digests;
}

struct AgentCase {
  const char* name;
  std::size_t dim;
  int budget;
  std::vector<std::size_t> hidden;
  std::size_t n_step;
  double entropy;
  std::size_t updates;
};

std::vector<std::string> train_agent(const AgentCase& c) {
  rl::DdpgConfig config;
  config.actor_hidden = c.hidden;
  config.critic_hidden = c.hidden;
  config.n_step = c.n_step;
  config.actor_entropy_coef = c.entropy;
  config.batch_size = 64;
  config.warmup = 64;
  config.seed = 29;
  rl::DdpgAgent agent(c.dim, c.dim, c.budget, config);
  Rng rng(31);
  std::vector<double> state(c.dim), next(c.dim), action(c.dim);
  for (double& s : state) s = rng.uniform(0.0, 40.0);
  for (int t = 0; t < 300; ++t) {
    double total = 0.0;
    for (double& a : action) total += (a = rng.exponential(1.0));
    for (double& a : action) a /= total;
    double reward = 0.0;
    for (std::size_t j = 0; j < c.dim; ++j) {
      next[j] = std::max(0.0, state[j] + rng.uniform(-4.0, 6.0) -
                                  8.0 * action[j]);
      reward -= next[j];
    }
    agent.observe(state, action, reward, next);
    state = next;
    if (t % 50 == 49) agent.resample_exploration();
  }
  agent.update(c.updates);
  return network_digests(agent);
}

void expect_digests(const std::vector<std::string>& got,
                    const std::vector<std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  const char* names[] = {"actor",  "actor_target",   "perturbed_actor",
                         "critic", "critic_target",  "critic2",
                         "critic2_target"};
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << names[i];
}

TEST(TrainingGolden, MsdFast64x64) {
  expect_digests(train_agent({"msd_fast", 4, 14, {64, 64}, 5, 0.05, 40}),
                 {"8e52d5b18ebf3022", "ed79f00398e7a37c",
                  "97caf12bd5f0cfb3", "6ccb54a1273184e3",
                  "3f738e5ee9d73ecb", "f0dcc8fea004eb5e",
                  "a754dbcb77793456"});
}

TEST(TrainingGolden, MsdPaper3x256) {
  expect_digests(
      train_agent({"msd_paper", 4, 14, {256, 256, 256}, 5, 0.05, 6}),
      {"f0ebabdcfba33c93", "68e2358b8c9b9a69", "2f214e79fa5b1682",
       "4c09a29f54e4f832", "e3af4173d3a7e35a", "2c095627121f222f",
       "ae1f7f3dc11b56e2"});
}

TEST(TrainingGolden, LigoFast96x96WithEntropy) {
  expect_digests(train_agent({"ligo_fast", 9, 30, {96, 96}, 10, 0.5, 30}),
                 {"47447ff3947716cc", "ecb4448cf4c0b9fa",
                  "be3ad279e0a130ef", "1b80a02327084ca3",
                  "496ad3ebf218b349", "e4d1d49a2331958f",
                  "d88b41a09eb0965e"});
}

TEST(TrainingGolden, DynamicsModelFitEpoch) {
  envmodel::TransitionDataset data(4, 4);
  Rng rng(37);
  for (int i = 0; i < 200; ++i) {
    envmodel::Transition t;
    t.state.resize(4);
    for (double& s : t.state) s = rng.uniform(0.0, 30.0);
    t.action.resize(4);
    for (int& a : t.action) a = static_cast<int>(rng.uniform_int(0, 4));
    t.next_state.resize(4);
    for (std::size_t j = 0; j < 4; ++j)
      t.next_state[j] = std::max(
          0.0, 0.8 * t.state[j] - 1.5 * t.action[j] + rng.uniform(-1.0, 3.0));
    t.reward = -t.next_state[0];
    data.add(std::move(t));
  }
  envmodel::DynamicsModelConfig config;
  config.epochs = 1;
  config.seed = 41;
  envmodel::DynamicsModel model(4, 4, config);
  const double loss = model.fit(data);
  EXPECT_EQ(digest({loss}), "eb60536f3f9de32e");
  EXPECT_EQ(digest(model.network().get_parameters()), "abc9521c3c454db4");
}

}  // namespace
}  // namespace miras
