#include "rl/ddpg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <numeric>

#include "common/stats.h"
#include "rl/action.h"

namespace miras::rl {
namespace {

DdpgConfig tiny_config() {
  DdpgConfig config;
  config.actor_hidden = {16, 16};
  config.critic_hidden = {16, 16};
  config.batch_size = 32;
  config.warmup = 32;
  config.seed = 3;
  return config;
}

TEST(Ddpg, ActionIsSimplex) {
  DdpgAgent agent(3, 3, 12, tiny_config());
  const auto action = agent.act({1.0, 2.0, 3.0}, /*explore=*/false);
  ASSERT_EQ(action.size(), 3u);
  double total = 0.0;
  for (const double a : action) {
    EXPECT_GT(a, 0.0);
    total += a;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Ddpg, ExploitActionIsDeterministic) {
  DdpgAgent agent(2, 2, 10, tiny_config());
  const std::vector<double> state{5.0, 1.0};
  EXPECT_EQ(agent.act(state, false), agent.act(state, false));
}

TEST(Ddpg, AllocationSatisfiesBudget) {
  DdpgAgent agent(4, 4, 14, tiny_config());
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> state{rng.uniform(0, 50), rng.uniform(0, 50),
                                    rng.uniform(0, 50), rng.uniform(0, 50)};
    const auto alloc = agent.act_allocation(state, /*explore=*/true);
    EXPECT_TRUE(satisfies_budget(alloc, 14));
  }
}

TEST(Ddpg, ParameterNoiseChangesExploratoryActions) {
  DdpgConfig config = tiny_config();
  config.exploration = ExplorationMode::kParameterNoise;
  config.parameter_noise_initial = 0.5;
  DdpgAgent agent(2, 2, 10, config);
  agent.resample_exploration();
  const std::vector<double> state{3.0, 1.0};
  const auto clean = agent.act(state, false);
  const auto noisy = agent.act(state, true);
  EXPECT_NE(clean, noisy);
  // Perturbed policy still emits a valid simplex (softmax head survives
  // parameter perturbation) — the paper's argument for parameter noise.
  EXPECT_NEAR(sum_of(noisy), 1.0, 1e-9);
}

TEST(Ddpg, ParameterNoiseIsFrozenBetweenResamples) {
  DdpgConfig config = tiny_config();
  config.parameter_noise_initial = 0.3;
  // Disable the stochastic epsilon mixes so both calls hit the perturbed
  // actor deterministically.
  config.epsilon_random = 0.0;
  config.epsilon_demo = 0.0;
  DdpgAgent agent(2, 2, 10, config);
  agent.resample_exploration();
  const std::vector<double> state{2.0, 2.0};
  EXPECT_EQ(agent.act(state, true), agent.act(state, true));
  const auto before = agent.act(state, true);
  agent.resample_exploration();
  EXPECT_NE(before, agent.act(state, true));
}

TEST(Ddpg, ActionNoiseCanViolateConstraints) {
  DdpgConfig config = tiny_config();
  config.exploration = ExplorationMode::kActionNoise;
  config.action_noise_stddev = 0.4;
  DdpgAgent agent(3, 3, 12, config);
  for (int i = 0; i < 300; ++i)
    (void)agent.act({1.0, 1.0, 1.0}, /*explore=*/true);
  // With large action noise, raw floor(C * a~) overruns the budget often.
  EXPECT_GT(agent.constraint_violations(), 10u);
}

TEST(Ddpg, ParameterNoiseNeverViolatesConstraints) {
  DdpgConfig config = tiny_config();
  config.exploration = ExplorationMode::kParameterNoise;
  config.parameter_noise_initial = 0.5;
  DdpgAgent agent(3, 3, 12, config);
  agent.resample_exploration();
  for (int i = 0; i < 300; ++i) {
    const auto alloc = agent.act_allocation({1.0, 1.0, 1.0}, true);
    EXPECT_TRUE(satisfies_budget(alloc, 12));
  }
  EXPECT_EQ(agent.constraint_violations(), 0u);
}

TEST(Ddpg, NoUpdatesBelowWarmup) {
  DdpgAgent agent(2, 2, 10, tiny_config());
  agent.observe({1.0, 1.0}, {0.5, 0.5}, 0.0, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(agent.update(5), 0.0);
  EXPECT_EQ(agent.updates_performed(), 0u);
}

TEST(Ddpg, UpdatesRunAfterWarmup) {
  DdpgAgent agent(2, 2, 10, tiny_config());
  Rng rng(4);
  for (int i = 0; i < 40; ++i)
    agent.observe({rng.uniform(0, 10), rng.uniform(0, 10)}, {0.5, 0.5},
                  rng.uniform(-1, 0), {rng.uniform(0, 10), rng.uniform(0, 10)});
  (void)agent.update(3);
  EXPECT_EQ(agent.updates_performed(), 3u);
}

TEST(Ddpg, NanRewardStopsTheUpdateBeforeAnyWeightChanges) {
  DdpgAgent agent(2, 2, 10, tiny_config());
  Rng rng(4);
  // The first reward is finite, so the reward bounds that clamp the
  // Bellman targets stay finite; every later one is NaN, and with n-step
  // returns every replayed transition carries one.
  for (int i = 0; i < 48; ++i)
    agent.observe({rng.uniform(0, 10), rng.uniform(0, 10)}, {0.5, 0.5},
                  i == 0 ? -0.5 : std::numeric_limits<double>::quiet_NaN(),
                  {rng.uniform(0, 10), rng.uniform(0, 10)});
  ASSERT_GE(agent.replay_size(), tiny_config().warmup);
  const std::vector<double> actor = agent.actor().get_parameters();
  const std::vector<double> critic = agent.critic().get_parameters();
  // The first tail to see the NaN is the critic's, on update 1, and the
  // error says so.
  try {
    (void)agent.update(1);
    ADD_FAILURE() << "a NaN gradient norm did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "critic, DDPG update 1: gradient norm is not finite"),
              std::string::npos)
        << e.what();
  }
  // Compared as bytes: every parameter keeps its exact bits.
  const std::vector<double> actor_after = agent.actor().get_parameters();
  const std::vector<double> critic_after = agent.critic().get_parameters();
  ASSERT_EQ(actor_after.size(), actor.size());
  ASSERT_EQ(critic_after.size(), critic.size());
  EXPECT_EQ(std::memcmp(actor_after.data(), actor.data(),
                        actor.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(critic_after.data(), critic.data(),
                        critic.size() * sizeof(double)),
            0);
  EXPECT_EQ(agent.updates_performed(), 0u);
}

TEST(Ddpg, ReplayGrowsWithObservations) {
  // With n-step maturation, the first n-1 observations stay pending until
  // the window fills; end_episode() flushes the remainder.
  DdpgConfig config = tiny_config();
  config.n_step = 5;
  DdpgAgent agent(2, 2, 10, config);
  for (int i = 0; i < 7; ++i)
    agent.observe({1.0, 1.0}, {0.5, 0.5}, 0.0, {1.0, 1.0});
  EXPECT_EQ(agent.replay_size(), 3u);  // 7 - (5 - 1) matured
  agent.end_episode();
  EXPECT_EQ(agent.replay_size(), 7u);
}

TEST(Ddpg, NStepReturnsAccumulateDiscountedRewards) {
  DdpgConfig config = tiny_config();
  config.n_step = 3;
  config.gamma = 0.5;
  DdpgAgent agent(2, 2, 10, config);
  // Rewards 1, 2, 4 -> first matured transition: 1 + 0.5*2 + 0.25*4 = 3,
  // bootstrap discount 0.5^3 = 0.125, next_state = the third transition's.
  agent.observe({1.0, 0.0}, {0.5, 0.5}, 1.0, {2.0, 0.0});
  agent.observe({2.0, 0.0}, {0.5, 0.5}, 2.0, {3.0, 0.0});
  agent.observe({3.0, 0.0}, {0.5, 0.5}, 4.0, {4.0, 0.0});
  agent.end_episode();
  // Three matured transitions: horizons 3, 2, 1.
  EXPECT_EQ(agent.replay_size(), 3u);
}

TEST(Ddpg, CriticLearnsActionValueOnBandit) {
  // Contextual bandit with gamma ~ 0: reward = a_0 (weight on type 0).
  // After training, Q must rank action (1,0) above (0,1).
  DdpgConfig config = tiny_config();
  config.gamma = 0.0;
  config.critic_learning_rate = 3e-3;
  DdpgAgent agent(2, 2, 10, config);
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    const double a0 = rng.uniform();
    agent.observe({1.0, 1.0}, {a0, 1.0 - a0}, a0, {1.0, 1.0});
  }
  (void)agent.update(600);
  const double q_good = agent.q_value({1.0, 1.0}, {0.9, 0.1});
  const double q_bad = agent.q_value({1.0, 1.0}, {0.1, 0.9});
  EXPECT_GT(q_good, q_bad);
  EXPECT_NEAR(q_good, 0.9, 0.35);
  EXPECT_NEAR(q_bad, 0.1, 0.35);
}

TEST(Ddpg, ActorClimbsTowardRewardingAction) {
  // Same bandit; the actor's softmax should concentrate on index 0.
  DdpgConfig config = tiny_config();
  config.gamma = 0.0;
  config.actor_learning_rate = 1e-3;
  config.critic_learning_rate = 3e-3;
  DdpgAgent agent(2, 2, 10, config);
  Rng rng(6);
  const std::vector<double> state{1.0, 1.0};
  for (int i = 0; i < 400; ++i) {
    const double a0 = rng.uniform();
    agent.observe(state, {a0, 1.0 - a0}, a0, state);
  }
  (void)agent.update(1500);
  const auto action = agent.act(state, false);
  EXPECT_GT(action[0], 0.75) << "actor did not exploit the bandit";
}

TEST(Ddpg, DeterministicGivenSeed) {
  auto run = [] {
    DdpgAgent agent(2, 2, 10, tiny_config());
    Rng rng(7);
    agent.resample_exploration();
    for (int i = 0; i < 64; ++i) {
      const std::vector<double> s{rng.uniform(0, 5), rng.uniform(0, 5)};
      agent.observe(s, agent.act(s, true), rng.uniform(-1, 0), s);
    }
    (void)agent.update(10);
    return agent.act({2.0, 2.0}, false);
  };
  EXPECT_EQ(run(), run());
}

TEST(Ddpg, StateNormalizationHandlesLargeMagnitudes) {
  // Very large WIP states must not produce NaN actions.
  DdpgAgent agent(2, 2, 10, tiny_config());
  for (int i = 0; i < 50; ++i)
    agent.observe({1000.0 + i, 2000.0 - i}, {0.5, 0.5}, -3000.0,
                  {1000.0, 2000.0});
  const auto action = agent.act({1500.0, 1500.0}, false);
  for (const double a : action) EXPECT_TRUE(std::isfinite(a));
  EXPECT_NEAR(sum_of(action), 1.0, 1e-9);
}

TEST(Ddpg, ParameterNoiseStddevAdaptsDuringTraining) {
  DdpgConfig config = tiny_config();
  config.parameter_noise_initial = 0.05;
  DdpgAgent agent(2, 2, 10, config);
  const double initial = agent.parameter_noise_stddev();
  Rng rng(8);
  agent.resample_exploration();
  for (int i = 0; i < 64; ++i) {
    const std::vector<double> s{rng.uniform(0, 5), rng.uniform(0, 5)};
    agent.observe(s, agent.act(s, true), rng.uniform(-1, 0), s);
  }
  (void)agent.update(50);
  EXPECT_NE(agent.parameter_noise_stddev(), initial);
}

}  // namespace
}  // namespace miras::rl
