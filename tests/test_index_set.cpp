// IndexSet's branch-free members against the branching ones they stand in
// for on the simulator's flit path: insert_if(i, cond) must act as
// `if (cond) insert(i)` and assign(i, member) as `member ? insert(i) :
// erase(i)`, on membership, size() and iteration order alike.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "wormnet/sim/active_set.hpp"
#include "wormnet/util/rng.hpp"

namespace wormnet::sim {
namespace {

std::vector<std::uint32_t> members(const IndexSet& set) {
  std::vector<std::uint32_t> out;
  set.collect(out);
  return out;
}

/// Drives `branchy` with insert/erase and `branch_free` with the member
/// under test over one seeded random sequence of (index, bit) operations,
/// comparing the two sets after every step.
template <class Op>
void expect_same_as_reference(std::size_t universe, std::uint64_t seed,
                              Op&& op) {
  SCOPED_TRACE(::testing::Message() << "universe " << universe << " seed "
                                    << seed);
  util::Xoshiro256 rng(seed);
  IndexSet branchy(universe);
  IndexSet branch_free(universe);
  for (int step = 0; step < 4000; ++step) {
    const auto i = static_cast<std::size_t>(rng.below(universe));
    const bool bit = rng.chance(0.5);
    op(branchy, branch_free, i, bit);
    ASSERT_EQ(branch_free.contains(i), branchy.contains(i)) << "step " << step;
    ASSERT_EQ(branch_free.size(), branchy.size()) << "step " << step;
    ASSERT_EQ(branch_free.empty(), branchy.empty()) << "step " << step;
    if (step % 97 == 0) {
      ASSERT_EQ(members(branch_free), members(branchy)) << "step " << step;
    }
  }
  EXPECT_EQ(members(branch_free), members(branchy));
  std::vector<std::uint32_t> rotated_a;
  std::vector<std::uint32_t> rotated_b;
  branchy.collect_rotated(universe / 3, rotated_a);
  branch_free.collect_rotated(universe / 3, rotated_b);
  EXPECT_EQ(rotated_b, rotated_a);
}

constexpr std::size_t kUniverses[] = {1, 63, 64, 65, 200, 1000};

TEST(IndexSet, InsertIfMatchesConditionalInsert) {
  for (const std::size_t universe : kUniverses) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      expect_same_as_reference(
          universe, seed,
          [](IndexSet& ref, IndexSet& set, std::size_t i, bool cond) {
            // Erase now and then so inserts keep finding absent indices.
            if (i % 5 == 0) {
              ref.erase(i);
              set.erase(i);
              return;
            }
            if (cond) ref.insert(i);
            set.insert_if(i, cond);
          });
    }
  }
}

TEST(IndexSet, AssignMatchesInsertOrErase) {
  for (const std::size_t universe : kUniverses) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      expect_same_as_reference(
          universe, seed,
          [](IndexSet& ref, IndexSet& set, std::size_t i, bool member) {
            if (member) {
              ref.insert(i);
            } else {
              ref.erase(i);
            }
            set.assign(i, member);
          });
    }
  }
}

TEST(IndexSet, BranchFreeMembersAreIdempotent) {
  IndexSet set(130);
  set.insert_if(129, true);
  set.insert_if(129, true);
  set.insert_if(5, false);
  EXPECT_EQ(set.size(), 1u);
  set.assign(64, true);
  set.assign(64, true);
  EXPECT_EQ(set.size(), 2u);
  set.assign(64, false);
  set.assign(64, false);
  set.assign(3, false);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(members(set), std::vector<std::uint32_t>{129});
}

}  // namespace
}  // namespace wormnet::sim
