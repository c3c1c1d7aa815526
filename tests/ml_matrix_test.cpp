#include "ml/matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.hpp"

namespace forumcast::ml {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
  EXPECT_THROW(m(2, 0), util::CheckError);
  EXPECT_THROW(m(0, 3), util::CheckError);
}

TEST(Matrix, RowViewIsMutable) {
  Matrix m(2, 2);
  auto row = m.row(1);
  row[0] = 4.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 4.0);
  EXPECT_THROW(m.row(2), util::CheckError);
}

TEST(VectorOps, Dot) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_THROW(dot(a, std::vector<double>{1.0}), util::CheckError);
}

}  // namespace
}  // namespace forumcast::ml
