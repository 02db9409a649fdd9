#include "linalg/decomposition.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace midas {
namespace {

void ExpectMatrixNear(const Matrix& a, const Matrix& b, double tol) {
  auto diff = a.MaxAbsDiff(b);
  ASSERT_TRUE(diff.ok());
  EXPECT_LT(*diff, tol);
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m.At(i, j) = rng->Uniform(-2.0, 2.0);
  }
  return m;
}

TEST(HouseholderQrTest, ReconstructsInput) {
  Rng rng(5);
  const Matrix a = RandomMatrix(6, 4, &rng);
  auto qr = HouseholderQr(a);
  ASSERT_TRUE(qr.ok());
  ExpectMatrixNear(qr->q.Multiply(qr->r).ValueOrDie(), a, 1e-10);
}

TEST(HouseholderQrTest, QHasOrthonormalColumns) {
  Rng rng(6);
  const Matrix a = RandomMatrix(8, 3, &rng);
  auto qr = HouseholderQr(a);
  ASSERT_TRUE(qr.ok());
  const Matrix qtq = qr->q.Transpose().Multiply(qr->q).ValueOrDie();
  ExpectMatrixNear(qtq, Matrix::Identity(3), 1e-10);
}

TEST(HouseholderQrTest, RIsUpperTriangular) {
  Rng rng(7);
  const Matrix a = RandomMatrix(5, 5, &rng);
  auto qr = HouseholderQr(a);
  ASSERT_TRUE(qr.ok());
  for (size_t i = 1; i < 5; ++i) {
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NEAR(qr->r.At(i, j), 0.0, 1e-12);
    }
  }
}

TEST(HouseholderQrTest, RejectsWideMatrix) {
  EXPECT_FALSE(HouseholderQr(Matrix(2, 3)).ok());
}

TEST(HouseholderQrTest, RejectsRankDeficient) {
  // Two identical columns.
  Matrix a({{1, 1}, {2, 2}, {3, 3}});
  EXPECT_FALSE(HouseholderQr(a).ok());
}

TEST(SolveUpperTriangularTest, SolvesKnownSystem) {
  Matrix r({{2, 1}, {0, 4}});
  auto x = SolveUpperTriangular(r, {4, 8});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
}

TEST(SolveUpperTriangularTest, RejectsSingular) {
  Matrix r({{1, 1}, {0, 0}});
  EXPECT_FALSE(SolveUpperTriangular(r, {1, 1}).ok());
}

TEST(LeastSquaresSolveTest, ExactSystem) {
  Matrix a({{1, 0}, {0, 1}, {1, 1}});
  // b generated from x = (2, 3).
  auto x = LeastSquaresSolve(a, {2, 3, 5});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-10);
  EXPECT_NEAR((*x)[1], 3.0, 1e-10);
}

TEST(LeastSquaresSolveTest, MinimisesResidual) {
  // Overdetermined inconsistent system: best fit of y = c over {1, 3}.
  Matrix a({{1}, {1}});
  auto x = LeastSquaresSolve(a, {1, 3});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 2.0, 1e-12);
}

TEST(PivotedQrTest, FullRankMatchesDirectSolve) {
  Rng rng(8);
  const Matrix a = RandomMatrix(7, 4, &rng);
  Vector b(7);
  for (auto& v : b) v = rng.Uniform(-1, 1);
  auto x1 = LeastSquaresSolve(a, b);
  auto x2 = PivotedLeastSquaresSolve(a, b);
  ASSERT_TRUE(x1.ok());
  ASSERT_TRUE(x2.ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR((*x1)[i], (*x2)[i], 1e-8);
  }
}

TEST(PivotedQrTest, DetectsRank) {
  // Third column = first + second.
  Matrix a({{1, 0, 1}, {0, 1, 1}, {1, 1, 2}, {2, 1, 3}});
  std::vector<size_t> permutation;
  EXPECT_EQ(PivotedQrInPlace(&a, nullptr, &permutation), 2u);
  // The largest column (the sum) leads.
  EXPECT_EQ(permutation[0], 2u);
}

TEST(PivotedQrTest, RightHandSideBlockMatchesPerColumnSolves) {
  // Reducing a block of right-hand sides in one pass gives every column
  // the solution a one-column solve gives it, on a rank-deficient matrix.
  Rng rng(12);
  Matrix a = RandomMatrix(9, 4, &rng);
  for (size_t i = 0; i < a.rows(); ++i) a.At(i, 3) = 2.0 * a.At(i, 1);
  Matrix rhs = RandomMatrix(9, 3, &rng);
  Matrix r = a;
  Matrix qt_rhs = rhs;
  std::vector<size_t> permutation;
  const size_t rank = PivotedQrInPlace(&r, &qt_rhs, &permutation);
  ASSERT_EQ(rank, 3u);
  for (size_t c = 0; c < rhs.cols(); ++c) {
    Vector block;
    PivotedBackSolve(r, qt_rhs, c, permutation, rank, &block);
    auto single = PivotedLeastSquaresSolve(a, rhs.Col(c));
    ASSERT_TRUE(single.ok());
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_NEAR(block[j], (*single)[j], 1e-12) << "rhs " << c;
    }
    // Exactly one of the two dependent columns carries weight.
    EXPECT_TRUE(block[1] == 0.0 || block[3] == 0.0);
  }
}

TEST(PivotedQrTest, ResidualIsTheReducedTail) {
  // The basic solution's residual equals the rows of Qᵀb past the rank.
  Rng rng(13);
  Matrix a = RandomMatrix(12, 4, &rng);
  for (size_t i = 0; i < a.rows(); ++i) a.At(i, 3) = 0.5 * a.At(i, 0);
  Vector b(a.rows());
  for (double& v : b) v = rng.Uniform(-1, 1);
  Matrix r = a;
  Matrix qtb = Matrix::FromColumn(b);
  std::vector<size_t> permutation;
  const size_t rank = PivotedQrInPlace(&r, &qtb, &permutation);
  ASSERT_EQ(rank, 3u);
  Vector x;
  PivotedBackSolve(r, qtb, 0, permutation, rank, &x);
  const Vector fitted = a.MultiplyVector(x).ValueOrDie();
  double residual = 0.0;
  for (size_t i = 0; i < b.size(); ++i) {
    residual += (b[i] - fitted[i]) * (b[i] - fitted[i]);
  }
  double tail = 0.0;
  for (size_t i = rank; i < qtb.rows(); ++i) {
    tail += qtb.At(i, 0) * qtb.At(i, 0);
  }
  EXPECT_NEAR(tail, residual, 1e-12 * std::max(1.0, residual));
}

TEST(PivotedQrTest, SolvesRankDeficientSystem) {
  // Column 2 duplicates column 1; solution puts weight on one of them
  // and still reproduces b.
  Matrix a({{1, 1}, {2, 2}, {3, 3}});
  Vector b = {2, 4, 6};
  auto x = PivotedLeastSquaresSolve(a, b);
  ASSERT_TRUE(x.ok());
  auto fitted = a.MultiplyVector(*x);
  ASSERT_TRUE(fitted.ok());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR((*fitted)[i], b[i], 1e-10);
  }
}

TEST(PivotedQrTest, ConstantColumnHandled) {
  // Second column constant (collinear with an implicit intercept usage).
  Matrix a({{1, 5, 2}, {1, 5, 3}, {1, 5, 4}, {1, 5, 7}});
  Vector b = {4, 6, 8, 14};  // = 2 * col3
  auto x = PivotedLeastSquaresSolve(a, b);
  ASSERT_TRUE(x.ok());
  auto fitted = a.MultiplyVector(*x);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR((*fitted)[i], b[i], 1e-9);
  }
}

TEST(PivotedQrTest, ZeroMatrixFails) {
  EXPECT_FALSE(PivotedLeastSquaresSolve(Matrix(3, 2), {1, 2, 3}).ok());
}

TEST(CholeskyTest, FactorisesSpdMatrix) {
  Matrix a({{4, 2}, {2, 3}});
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  const Matrix llt = l->Multiply(l->Transpose()).ValueOrDie();
  ExpectMatrixNear(llt, a, 1e-12);
}

TEST(CholeskyTest, RejectsIndefinite) {
  Matrix a({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyFactor(a).ok());
}

TEST(CholeskyTest, RejectsNonSquare) {
  EXPECT_FALSE(CholeskyFactor(Matrix(2, 3)).ok());
}

TEST(CholeskySolveTest, SolvesSpdSystem) {
  Matrix a({{4, 2}, {2, 3}});
  // b = A * (1, 2).
  auto x = CholeskySolve(a, {8, 8});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(SpdInverseTest, InverseTimesMatrixIsIdentity) {
  Matrix a({{4, 2}, {2, 3}});
  auto inv = SpdInverse(a);
  ASSERT_TRUE(inv.ok());
  ExpectMatrixNear(a.Multiply(*inv).ValueOrDie(), Matrix::Identity(2),
                   1e-10);
}

TEST(PivotedQrPropertyTest, RandomMatricesReconstruct) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t rows = 4 + rng.Index(8);
    const size_t cols = 1 + rng.Index(std::min<size_t>(rows, 5));
    const Matrix a = RandomMatrix(rows, cols, &rng);
    // Reducing the identity alongside A turns it into Qᵀ.
    Matrix r = a;
    Matrix qt = Matrix::Identity(rows);
    std::vector<size_t> permutation;
    ASSERT_EQ(PivotedQrInPlace(&r, &qt, &permutation), cols);
    for (size_t i = 1; i < cols; ++i) {
      for (size_t j = 0; j < i; ++j) EXPECT_EQ(r.At(i, j), 0.0);
    }
    // Q R should equal A with columns permuted.
    const Matrix qr_prod = qt.Transpose().Multiply(r).ValueOrDie();
    for (size_t j = 0; j < cols; ++j) {
      const Vector original = a.Col(permutation[j]);
      const Vector reconstructed = qr_prod.Col(j);
      for (size_t i = 0; i < rows; ++i) {
        EXPECT_NEAR(original[i], reconstructed[i], 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace midas
