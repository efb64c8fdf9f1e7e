// wormnet::ft unit tests: the fault-plan grammar, compilation against a
// topology, the cumulative epoch masks, and fault steps on the live epoch.
#include <gtest/gtest.h>

#include <stdexcept>

#include "wormnet/core/registry.hpp"
#include "wormnet/ft/fault_plan.hpp"
#include "wormnet/ft/recovery.hpp"
#include "wormnet/sim/live_epoch.hpp"

namespace wormnet::ft {
namespace {

TEST(FaultPlan, ParsesEventsAndRoundTrips) {
  const FaultPlan plan =
      parse_fault_plan("kill:5-6@500+repair:5-6@900+killch:27@100+rand:2/7@300");
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].kind, FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(plan.events[0].src, 5u);
  EXPECT_EQ(plan.events[0].dst, 6u);
  EXPECT_EQ(plan.events[0].cycle, 500u);
  EXPECT_EQ(plan.events[1].kind, FaultEvent::Kind::kLinkUp);
  EXPECT_EQ(plan.events[2].kind, FaultEvent::Kind::kChannelDown);
  EXPECT_EQ(plan.events[2].channel, 27u);
  EXPECT_EQ(plan.events[3].kind, FaultEvent::Kind::kRandomLinks);
  EXPECT_EQ(plan.events[3].count, 2u);
  EXPECT_EQ(plan.events[3].seed, 7u);
  // to_string() is the normal form parse_fault_plan accepts back.
  EXPECT_EQ(parse_fault_plan(plan.to_string()).to_string(), plan.to_string());
}

TEST(FaultPlan, NoneAndEmptyAreTheEmptyPlan) {
  EXPECT_TRUE(parse_fault_plan("none").empty());
  EXPECT_TRUE(parse_fault_plan("").empty());
  EXPECT_EQ(parse_fault_plan("none").to_string(), "none");
}

TEST(FaultPlan, RejectsMalformedText) {
  EXPECT_THROW(parse_fault_plan("explode:5-6@1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("kill:5-6"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("kill:5@1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("kill:a-b@1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("rand:0/1@1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("killch:@1"), std::invalid_argument);
}

TEST(FaultPlan, CompileValidatesAgainstTheTopology) {
  const auto topo = core::make_topology("mesh:4x4:2");
  // Nodes 0 and 5 are not adjacent in a 4x4 mesh: compiling must refuse
  // rather than silently produce a plan that kills nothing.
  EXPECT_THROW(compile(parse_fault_plan("kill:0-5@1"), topo),
               std::invalid_argument);
  EXPECT_THROW(compile(parse_fault_plan("kill:0-99@1"), topo),
               std::invalid_argument);
  EXPECT_THROW(compile(parse_fault_plan("killch:999@1"), topo),
               std::invalid_argument);
}

TEST(FaultPlan, EpochMasksAccumulateAndRepair) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const auto compiled =
      compile(parse_fault_plan("kill:5-6@100+kill:1-2@200+repair:5-6@300"),
              topo);
  ASSERT_EQ(compiled.steps.size(), 3u);
  EXPECT_EQ(compiled.steps[0].cycle, 100u);
  EXPECT_EQ(compiled.steps[2].cycle, 300u);

  const auto masks = compiled.epoch_masks();
  ASSERT_EQ(masks.size(), 4u);  // pristine + one per step
  const auto count = [](const std::vector<bool>& m) {
    std::size_t n = 0;
    for (const bool b : m) n += b ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count(masks[0]), 0u);  // pristine
  EXPECT_EQ(count(masks[1]), 2u);  // 5->6, both VCs
  EXPECT_EQ(count(masks[2]), 4u);  // + 1->2
  EXPECT_EQ(count(masks[3]), 2u);  // 5->6 repaired
  // The repaired mask is NOT the mask after step 1: different links died.
  EXPECT_NE(mask_to_hex(masks[3]), mask_to_hex(masks[1]));
  EXPECT_NE(mask_to_hex(masks[0]), mask_to_hex(masks[1]));
}

TEST(FaultPlan, EventsOnOneCycleMergeIntoOneStep) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const auto compiled =
      compile(parse_fault_plan("kill:5-6@100+kill:1-2@100"), topo);
  ASSERT_EQ(compiled.steps.size(), 1u);
  EXPECT_EQ(compiled.steps[0].down.size(), 4u);
}

TEST(FaultPlan, RandCampaignIsSeedDeterministic) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const auto a = compile(parse_fault_plan("rand:3/11@50"), topo);
  const auto b = compile(parse_fault_plan("rand:3/11@50"), topo);
  const auto c = compile(parse_fault_plan("rand:3/12@50"), topo);
  ASSERT_EQ(a.steps.size(), 1u);
  EXPECT_EQ(a.steps[0].down, b.steps[0].down);
  EXPECT_NE(a.steps[0].down, c.steps[0].down);
}

TEST(LiveEpoch, AppliesDeltasIdempotently) {
  const auto topo = core::make_topology("mesh:4x4:2");
  const auto routing = core::make_algorithm("duato-mesh", topo);
  const auto compiled = compile(parse_fault_plan("kill:5-6@10"), topo);
  sim::LiveEpoch epoch(topo, *routing, nullptr);
  const auto dead_count = [&] {
    std::size_t n = 0;
    for (ChannelId c = 0; c < topo.num_channels(); ++c) n += epoch.is_dead(c);
    return n;
  };
  EXPECT_EQ(dead_count(), 0u);

  const auto delta = epoch.apply(compiled.steps[0]);
  EXPECT_EQ(delta.downed.size(), 2u);
  EXPECT_TRUE(delta.repaired.empty());
  EXPECT_EQ(dead_count(), 2u);
  EXPECT_EQ(epoch.fault_epoch(), 1u);
  for (const ChannelId c : delta.downed) EXPECT_TRUE(epoch.is_dead(c));

  // Re-applying the same step transitions nothing.
  const auto again = epoch.apply(compiled.steps[0]);
  EXPECT_TRUE(again.downed.empty());
  EXPECT_EQ(dead_count(), 2u);
}

TEST(Recovery, BackoffIsExponentialAndCapped) {
  RecoveryConfig cfg;
  cfg.backoff_base = 32;
  cfg.backoff_cap = 1024;
  EXPECT_EQ(cfg.backoff(1), 32u);
  EXPECT_EQ(cfg.backoff(2), 64u);
  EXPECT_EQ(cfg.backoff(5), 512u);
  EXPECT_EQ(cfg.backoff(6), 1024u);
  EXPECT_EQ(cfg.backoff(60), 1024u);  // capped, no overflow
}

TEST(Recovery, PolicyNamesRoundTrip) {
  for (const auto policy : {RecoveryPolicy::kHalt, RecoveryPolicy::kAbortRetry,
                            RecoveryPolicy::kDrain}) {
    const auto back = recovery_from_string(to_string(policy));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, policy);
  }
  EXPECT_FALSE(recovery_from_string("panic").has_value());
  EXPECT_EQ(recovery_from_string("retry"), RecoveryPolicy::kAbortRetry);
}

}  // namespace
}  // namespace wormnet::ft
