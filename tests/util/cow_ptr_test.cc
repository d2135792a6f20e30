#include "qof/util/cow_ptr.h"

#include <vector>

#include <gtest/gtest.h>

#include "qof/util/splice.h"

namespace qof {
namespace {

using Ints = std::vector<int>;

TEST(CowPtrTest, WritesLandInPlaceUntilACopyShares) {
  CowPtr<Ints> a(Ints{1, 2, 3});
  EXPECT_TRUE(a.owned());
  const Ints* before = a.get();
  a.Mutable().push_back(4);  // owned: in place
  EXPECT_TRUE(a.owned());
  EXPECT_EQ(a.get(), before);

  CowPtr<Ints> b = a;  // both lose ownership
  EXPECT_FALSE(a.owned());
  EXPECT_FALSE(b.owned());
  EXPECT_EQ(a.get(), b.get());

  b.Mutable().push_back(5);  // b copies first; a keeps the original
  EXPECT_TRUE(b.owned());
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(*a, (Ints{1, 2, 3, 4}));
  EXPECT_EQ(*b, (Ints{1, 2, 3, 4, 5}));
  EXPECT_EQ(a.get(), before);
}

TEST(CowPtrTest, AssignmentMovesAndResetFollowTheSameRule) {
  CowPtr<Ints> a(Ints{7});
  CowPtr<Ints> c;
  EXPECT_FALSE(c);
  c = a;  // copy-assignment shares, like a copy
  EXPECT_FALSE(a.owned());
  EXPECT_FALSE(c.owned());
  c.Reset(Ints{8});  // fresh content, owned
  EXPECT_TRUE(c.owned());
  EXPECT_EQ(*a, (Ints{7}));

  CowPtr<Ints> moved(std::move(c));  // a move carries ownership
  EXPECT_TRUE(moved.owned());
  CowPtr<Ints> target;
  target = std::move(moved);
  EXPECT_TRUE(target.owned());
  EXPECT_EQ(*target, (Ints{8}));

  CowPtr<Ints> empty;
  empty.Mutable().push_back(1);  // a null handle writes a fresh value
  EXPECT_TRUE(empty.owned());
  EXPECT_EQ(*empty, (Ints{1}));
}

TEST(SpliceTest, InPlaceAndCopyingAgreeOnBothSides) {
  const Ints old = {10, 20, 30, 40, 50};
  const Ints run = {60, 70};
  // Erase [1, 3) (20, 30) and insert the run at the end, or before 10.
  for (size_t at : {size_t{5}, size_t{0}}) {
    Splice<int> s;
    s.lo = 1;
    s.hi = 3;
    s.at = at;
    s.run = run;
    Ints in_place = old;
    s.Apply(&in_place);
    EXPECT_EQ(s.Applied(old), in_place);
    EXPECT_EQ(in_place, at == 0 ? (Ints{60, 70, 10, 40, 50})
                                : (Ints{10, 40, 50, 60, 70}));
  }
}

}  // namespace
}  // namespace qof
