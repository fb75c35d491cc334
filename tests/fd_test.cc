#include <gtest/gtest.h>

#include "fd/attr_set.h"
#include "fd/fd_detector.h"
#include "fd/fd_set.h"
#include "relational/operators.h"
#include "relational/table.h"

namespace cape {
namespace {

TEST(AttrSetTest, BasicOperations) {
  AttrSet s = AttrSet::FromIndices({0, 3, 5});
  EXPECT_EQ(s.size(), 3);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(1));
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.ToIndices(), (std::vector<int>{0, 3, 5}));
  EXPECT_EQ(s.ToString(), "{0,3,5}");

  s.Remove(3);
  EXPECT_EQ(s, AttrSet::FromIndices({0, 5}));
  s.Add(63);
  EXPECT_TRUE(s.Contains(63));
}

TEST(AttrSetTest, SetAlgebra) {
  AttrSet a = AttrSet::FromIndices({0, 1, 2});
  AttrSet b = AttrSet::FromIndices({2, 3});
  EXPECT_EQ(a.Union(b), AttrSet::FromIndices({0, 1, 2, 3}));
  EXPECT_EQ(a.Intersect(b), AttrSet::FromIndices({2}));
  EXPECT_EQ(a.Difference(b), AttrSet::FromIndices({0, 1}));
  EXPECT_EQ(a.Without(1), AttrSet::FromIndices({0, 2}));
  EXPECT_TRUE(a.ContainsAll(AttrSet::FromIndices({0, 2})));
  EXPECT_FALSE(a.ContainsAll(b));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(AttrSet::FromIndices({4})));
  EXPECT_EQ(AttrSet::Single(4), AttrSet::FromIndices({4}));
}

TEST(FdSetTest, ClosureWithChains) {
  // 0 -> 1, 1 -> 2, {2,3} -> 4
  FdSet fds;
  fds.Add(AttrSet::Single(0), 1);
  fds.Add(AttrSet::Single(1), 2);
  fds.Add(AttrSet::FromIndices({2, 3}), 4);
  EXPECT_EQ(fds.Closure(AttrSet::Single(0)), AttrSet::FromIndices({0, 1, 2}));
  EXPECT_EQ(fds.Closure(AttrSet::FromIndices({0, 3})),
            AttrSet::FromIndices({0, 1, 2, 3, 4}));
  EXPECT_TRUE(fds.Implies(AttrSet::FromIndices({0, 3}), 4));
  EXPECT_FALSE(fds.Implies(AttrSet::Single(3), 4));
}

TEST(FdSetTest, TrivialAndDuplicateFdsIgnored) {
  FdSet fds;
  fds.Add(AttrSet::FromIndices({0, 1}), 1);  // trivial: rhs in lhs
  EXPECT_EQ(fds.size(), 0u);
  fds.Add(AttrSet::Single(0), 1);
  fds.Add(AttrSet::Single(0), 1);  // duplicate
  EXPECT_EQ(fds.size(), 1u);
}

TEST(FdSetTest, Minimality) {
  FdSet fds;
  fds.Add(AttrSet::Single(0), 1);  // 0 -> 1
  // {0, 1} is not minimal: 1 is implied by {0}.
  EXPECT_FALSE(fds.IsMinimal(AttrSet::FromIndices({0, 1})));
  EXPECT_TRUE(fds.IsMinimal(AttrSet::FromIndices({0, 2})));
  EXPECT_TRUE(fds.IsMinimal(AttrSet::Single(0)));
  EXPECT_TRUE(FdSet().IsMinimal(AttrSet::FromIndices({0, 1, 2})));
}

TEST(FdSetTest, ImpliesAll) {
  FdSet fds;
  fds.Add(AttrSet::Single(0), 1);
  fds.Add(AttrSet::Single(0), 2);
  EXPECT_TRUE(fds.ImpliesAll(AttrSet::Single(0), AttrSet::FromIndices({1, 2})));
  EXPECT_FALSE(fds.ImpliesAll(AttrSet::Single(0), AttrSet::FromIndices({1, 3})));
}

TEST(FdSetTest, ToStringRendering) {
  FdSet fds;
  fds.Add(AttrSet::FromIndices({0, 1}), 2);
  EXPECT_EQ(fds.ToString(), "{0,1}->2");
}

/// Table with beat -> community -> district (planted hierarchy).
TablePtr HierarchyTable() {
  auto table = MakeEmptyTable({Field{"beat", DataType::kInt64, false},
                               Field{"community", DataType::kInt64, false},
                               Field{"district", DataType::kInt64, false},
                               Field{"year", DataType::kInt64, false}});
  for (int beat = 0; beat < 40; ++beat) {
    const int community = beat / 4;
    const int district = community / 2;
    for (int year = 2001; year <= 2004; ++year) {
      EXPECT_TRUE(table
                      ->AppendRow({Value::Int64(beat), Value::Int64(community),
                                   Value::Int64(district), Value::Int64(year)})
                      .ok());
    }
  }
  return table;
}

TEST(FdDetectorTest, DetectsHierarchyFds) {
  auto table = HierarchyTable();
  FdSet fds;
  FdDetector detector(&fds);
  // Seed singleton cardinalities, then record pairs as the miner would:
  // |pi_G(R)| is the number of groups of γ_G(R).
  auto group_size = [&](AttrSet g) {
    auto grouped = GroupByAggregate(*table, g.ToIndices(), {});
    EXPECT_TRUE(grouped.ok()) << grouped.status().ToString();
    return (*grouped)->num_rows();
  };
  for (int a = 0; a < 4; ++a) {
    detector.RecordGroupSize(AttrSet::Single(a), group_size(AttrSet::Single(a)));
  }
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      AttrSet g = AttrSet::FromIndices({a, b});
      detector.RecordGroupSize(g, group_size(g));
      detector.DetectFdsFor(g);
    }
  }
  // beat -> community, beat -> district, community -> district.
  EXPECT_TRUE(fds.Implies(AttrSet::Single(0), 1));
  EXPECT_TRUE(fds.Implies(AttrSet::Single(0), 2));
  EXPECT_TRUE(fds.Implies(AttrSet::Single(1), 2));
  // year determines nothing; nothing determines year.
  EXPECT_FALSE(fds.Implies(AttrSet::Single(3), 0));
  EXPECT_FALSE(fds.Implies(AttrSet::FromIndices({0, 1, 2}), 3));
}

TEST(FdDetectorTest, UnknownSizesAreHandled) {
  FdSet fds;
  FdDetector detector(&fds);
  EXPECT_EQ(detector.GetGroupSize(AttrSet::Single(0)), -1);
  EXPECT_FALSE(detector.HasGroupSize(AttrSet::Single(0)));
  EXPECT_EQ(detector.DetectFdsFor(AttrSet::FromIndices({0, 1})), 0);
  detector.RecordGroupSize(AttrSet::Single(0), 5);
  EXPECT_TRUE(detector.HasGroupSize(AttrSet::Single(0)));
  EXPECT_EQ(detector.GetGroupSize(AttrSet::Single(0)), 5);
}

}  // namespace
}  // namespace cape
