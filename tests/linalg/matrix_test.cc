#include "linalg/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"

namespace midas {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng.Uniform(-10.0, 10.0);
  }
  return m;
}

TEST(MatrixTest, ConstructionAndShape) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.empty());
  EXPECT_DOUBLE_EQ(m.At(1, 2), 1.5);
}

TEST(MatrixTest, InitializerList) {
  Matrix m({{1, 2}, {3, 4}});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 3.0);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(id.At(i, j), i == j ? 1.0 : 0.0);
    }
  }
}

TEST(MatrixTest, FromColumn) {
  Matrix m = Matrix::FromColumn({1, 2, 3});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 1u);
  EXPECT_DOUBLE_EQ(m.At(2, 0), 3.0);
}

TEST(MatrixTest, RowAndColExtraction) {
  Matrix m({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(m.Row(1), (Vector{4, 5, 6}));
  EXPECT_EQ(m.Col(2), (Vector{3, 6}));
}

TEST(MatrixTest, SetRow) {
  Matrix m(2, 2);
  m.SetRow(0, {7, 8});
  EXPECT_DOUBLE_EQ(m.At(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 8.0);
}

TEST(MatrixTest, Transpose) {
  Matrix m({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t.At(2, 1), 6.0);
  EXPECT_EQ(t.Transpose(), m);
}

TEST(MatrixTest, Multiply) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix b({{5, 6}, {7, 8}});
  auto c = a.Multiply(b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, Matrix({{19, 22}, {43, 50}}));
}

TEST(MatrixTest, MultiplyShapeMismatch) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_FALSE(a.Multiply(b).ok());
}

TEST(MatrixTest, MultiplyVector) {
  Matrix a({{1, 2}, {3, 4}});
  auto y = a.MultiplyVector({1, 1});
  ASSERT_TRUE(y.ok());
  EXPECT_EQ(*y, (Vector{3, 7}));
}

TEST(MatrixTest, MultiplyVectorShapeMismatch) {
  Matrix a(2, 2);
  EXPECT_FALSE(a.MultiplyVector({1, 2, 3}).ok());
}

TEST(MatrixTest, AddSubtractScale) {
  Matrix a({{1, 2}, {3, 4}});
  Matrix b({{4, 3}, {2, 1}});
  EXPECT_EQ(a.Add(b).ValueOrDie(), Matrix({{5, 5}, {5, 5}}));
  EXPECT_EQ(a.Subtract(a).ValueOrDie(), Matrix(2, 2, 0.0));
  EXPECT_EQ(a.Scale(2.0), Matrix({{2, 4}, {6, 8}}));
  EXPECT_FALSE(a.Add(Matrix(1, 2)).ok());
  EXPECT_FALSE(a.Subtract(Matrix(3, 3)).ok());
}

TEST(MatrixTest, RowSlice) {
  Matrix m({{1, 1}, {2, 2}, {3, 3}});
  auto s = m.RowSlice(1, 3);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, Matrix({{2, 2}, {3, 3}}));
  EXPECT_FALSE(m.RowSlice(2, 1).ok());
  EXPECT_FALSE(m.RowSlice(0, 4).ok());
}

TEST(MatrixTest, MaxAbsDiff) {
  Matrix a({{1, 2}});
  Matrix b({{1.5, 1.0}});
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b).ValueOrDie(), 1.0);
  EXPECT_FALSE(a.MaxAbsDiff(Matrix(2, 2)).ok());
}

TEST(MatrixTest, ToStringContainsValues) {
  Matrix m({{1.5}});
  EXPECT_NE(m.ToString().find("1.5"), std::string::npos);
}

TEST(MatrixDeathTest, OutOfRangeAccessAborts) {
  Matrix m(2, 2);
  EXPECT_DEATH(m.At(2, 0), "out of range");
}

TEST(MatrixTest, GramMatchesTransposeMultiply) {
  Matrix a({{1, 2}, {3, 4}, {5, 6}});
  const Matrix gram = a.Gram();
  const Matrix reference = a.Transpose().Multiply(a).ValueOrDie();
  EXPECT_DOUBLE_EQ(gram.MaxAbsDiff(reference).ValueOrDie(), 0.0);
}

TEST(MatrixTest, TransposeTimesVectorMatchesTranspose) {
  Matrix a({{1, 2}, {3, 4}, {5, 6}});
  const Vector v = {1.0, -1.0, 2.0};
  const Vector got = a.TransposeTimesVector(v).ValueOrDie();
  const Vector want = a.Transpose().MultiplyVector(v).ValueOrDie();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_DOUBLE_EQ(got[i], want[i]);
  EXPECT_FALSE(a.TransposeTimesVector({1.0}).ok());
}

TEST(MatrixTest, FromRowsAssemblesAndRejectsRagged) {
  const std::vector<Vector> rows = {{1, 2, 3}, {4, 5, 6}};
  const Matrix m = Matrix::FromRows(rows).ValueOrDie();
  EXPECT_EQ(m, Matrix({{1, 2, 3}, {4, 5, 6}}));

  EXPECT_TRUE(Matrix::FromRows({}).ValueOrDie().empty());
  EXPECT_FALSE(Matrix::FromRows({{1, 2}, {3}}).ok());
}

TEST(MatrixTest, RowDataViewsFlatStorage) {
  const Matrix m({{1, 2}, {3, 4}});
  const double* row = m.RowData(1);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
  EXPECT_DOUBLE_EQ(row[1], 4.0);
}

TEST(MatrixTest, MultiplyIntoMatchesMultiply) {
  const Matrix a({{1, 2, 3}, {4, 5, 6}});
  const Matrix b({{7, 8}, {9, 10}, {11, 12}});
  Matrix out;
  ASSERT_TRUE(a.MultiplyInto(b, &out).ok());
  EXPECT_EQ(out, a.Multiply(b).ValueOrDie());
}

TEST(MatrixTest, MultiplyIntoAccumulatesOnTopOfSeed) {
  const Matrix a({{1, 0}, {0, 1}});
  const Matrix b({{2, 3}, {4, 5}});
  Matrix out({{100, 100}, {100, 100}});
  ASSERT_TRUE(a.MultiplyInto(b, &out, /*accumulate=*/true).ok());
  EXPECT_EQ(out, Matrix({{102, 103}, {104, 105}}));
}

TEST(MatrixTest, MultiplyIntoRejectsBadShapesAndAliasing) {
  const Matrix a(2, 3);
  const Matrix b(3, 2);
  Matrix wrong(5, 5);
  EXPECT_FALSE(a.MultiplyInto(a, &wrong).ok());  // 3 != 2
  EXPECT_FALSE(a.MultiplyInto(b, &wrong, /*accumulate=*/true).ok());
  Matrix alias = b;
  EXPECT_FALSE(a.MultiplyInto(alias, &alias).ok());
}

TEST(MatrixTest, MultiplyTransposedIntoMatchesExplicitTranspose) {
  const Matrix a = RandomMatrix(7, 5, 21);
  const Matrix b = RandomMatrix(5, 9, 22);
  const Matrix bt = b.Transpose();
  Matrix via_transposed;
  ASSERT_TRUE(a.MultiplyTransposedInto(bt, &via_transposed).ok());
  const Matrix direct = a.Multiply(b).ValueOrDie();
  EXPECT_LT(via_transposed.MaxAbsDiff(direct).ValueOrDie(), 1e-12);

  Matrix wrong(7, 9);
  EXPECT_FALSE(a.MultiplyTransposedInto(b, &wrong).ok());  // 5 != 9 (k)
}

TEST(MatrixTest, MultiplyTransposedIntoAccumulatesBiasFirst) {
  // Seeding the output and accumulating must equal seed + product.
  const Matrix a = RandomMatrix(4, 6, 23);
  const Matrix bt = RandomMatrix(3, 6, 24);
  Matrix seeded(4, 3, 2.5);
  ASSERT_TRUE(a.MultiplyTransposedInto(bt, &seeded, /*accumulate=*/true).ok());
  Matrix product;
  ASSERT_TRUE(a.MultiplyTransposedInto(bt, &product).ok());
  const Matrix want = product.Add(Matrix(4, 3, 2.5)).ValueOrDie();
  EXPECT_LT(seeded.MaxAbsDiff(want).ValueOrDie(), 1e-12);
}

TEST(MatrixTest, BlockedMultiplyMatchesNaiveReference) {
  // The blocked kernel is pinned against the textbook triple loop across
  // shapes that exercise full tiles, ragged tail tiles and tall/flat
  // operands.
  const struct {
    size_t n, k, m;
  } shapes[] = {{1, 1, 1},   {3, 4, 5},    {64, 64, 64},
                {65, 63, 66}, {128, 17, 96}, {200, 129, 71}};
  uint64_t seed = 100;
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s.n, s.k, seed++);
    const Matrix b = RandomMatrix(s.k, s.m, seed++);
    Matrix blocked, naive;
    ASSERT_TRUE(a.MultiplyInto(b, &blocked).ok());
    ASSERT_TRUE(MultiplyReferenceInto(a, b, &naive).ok());
    EXPECT_LT(blocked.MaxAbsDiff(naive).ValueOrDie(), 1e-12)
        << s.n << "x" << s.k << "x" << s.m;
  }
  Matrix out;
  EXPECT_FALSE(MultiplyReferenceInto(Matrix(2, 3), Matrix(2, 3), &out).ok());
}

TEST(VectorOpsTest, Dot) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
}

TEST(VectorOpsTest, Norm2) {
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5.0);
}

TEST(VectorOpsDeathTest, DotLengthMismatchAborts) {
  EXPECT_DEATH(Dot({1.0}, {1.0, 2.0}), "mismatch");
}

}  // namespace
}  // namespace midas
