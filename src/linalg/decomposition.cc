#include "linalg/decomposition.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "linalg/simd.h"

namespace midas {

namespace {

/// The Cholesky inner product Σ_k<j L(i,k)·L(j,k) over two contiguous row
/// prefixes. The seed loops interleave the subtraction with the products
/// (sum -= term, one rounding per step), which a fused dot cannot reproduce
/// bit-exactly — so the vector tier computes the dot in one reduction and
/// subtracts once, and the scalar tier keeps the original interleaved loop.
/// Equivalence between the two is pinned at ≤1e-12 relative by the SIMD
/// suites; force-scalar runs always take the seed loop.
inline double CholeskyRowDot(const double* li, const double* lj, size_t j,
                             double seed) {
  if (simd::Enabled()) return seed - simd::Dot(li, lj, j);
  for (size_t k = 0; k < j; ++k) seed -= li[k] * lj[k];
  return seed;
}

}  // namespace

StatusOr<QrDecomposition> HouseholderQr(const Matrix& a, double tolerance) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  if (m < n) {
    return Status::InvalidArgument("QR requires rows >= cols");
  }
  if (n == 0) {
    return Status::InvalidArgument("QR of empty matrix");
  }
  // Work on a dense copy; accumulate Q explicitly (sizes here are small).
  Matrix r = a;
  Matrix q = Matrix::Identity(m);
  for (size_t k = 0; k < n; ++k) {
    // Householder vector for column k below the diagonal.
    double norm = 0.0;
    for (size_t i = k; i < m; ++i) norm += r.At(i, k) * r.At(i, k);
    norm = std::sqrt(norm);
    if (norm < tolerance) {
      return Status::InvalidArgument("QR: rank-deficient matrix");
    }
    const double alpha = r.At(k, k) >= 0 ? -norm : norm;
    Vector v(m, 0.0);
    v[k] = r.At(k, k) - alpha;
    for (size_t i = k + 1; i < m; ++i) v[i] = r.At(i, k);
    double vtv = 0.0;
    for (size_t i = k; i < m; ++i) vtv += v[i] * v[i];
    if (vtv < tolerance * tolerance) continue;  // column already reduced
    // Apply H = I - 2 v vᵀ / (vᵀv) to R (columns k..n-1) and to Q.
    for (size_t j = k; j < n; ++j) {
      double dot = 0.0;
      for (size_t i = k; i < m; ++i) dot += v[i] * r.At(i, j);
      const double f = 2.0 * dot / vtv;
      for (size_t i = k; i < m; ++i) r.At(i, j) -= f * v[i];
    }
    for (size_t j = 0; j < m; ++j) {
      double dot = 0.0;
      for (size_t i = k; i < m; ++i) dot += v[i] * q.At(j, i);
      const double f = 2.0 * dot / vtv;
      for (size_t i = k; i < m; ++i) q.At(j, i) -= f * v[i];
    }
  }
  // Thin factors: Q -> m x n, R -> n x n upper triangle.
  Matrix q_thin(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) q_thin.At(i, j) = q.At(i, j);
  }
  Matrix r_thin(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < n; ++j) r_thin.At(i, j) = r.At(i, j);
  }
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(r_thin.At(i, i)) < tolerance) {
      return Status::InvalidArgument("QR: rank-deficient matrix");
    }
  }
  return QrDecomposition{std::move(q_thin), std::move(r_thin)};
}

size_t PivotedQrInPlace(Matrix* a, Matrix* rhs,
                        std::vector<size_t>* permutation, double tolerance) {
  const size_t m = a->rows();
  const size_t n = a->cols();
  const size_t k_rhs = rhs == nullptr ? 0 : rhs->cols();
  MIDAS_CHECK(rhs == nullptr || rhs->rows() == m)
      << "pivoted QR: right-hand sides have " << rhs->rows() << " rows, "
      << "matrix has " << m;
  permutation->resize(n);
  std::iota(permutation->begin(), permutation->end(), size_t{0});
  if (m == 0 || n == 0) return 0;
  // Both operands are dense row-major buffers.
  double* const base = a->RowData(0);
  auto at = [base, n](size_t i, size_t j) -> double& {
    return base[i * n + j];
  };
  double* const rhs_base = k_rhs > 0 ? rhs->RowData(0) : nullptr;

  // Squared column norms, downdated after every step to pick the pivots.
  std::vector<double> norms(n, 0.0);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) norms[j] += at(i, j) * at(i, j);
  }
  // Per step: the reflector's scaled dot with every trailing column of *a,
  // then with every right-hand side.
  std::vector<double> f(n + k_rhs);

  const size_t steps = std::min(m, n);
  double first_pivot = 0.0;
  for (size_t k = 0; k < steps; ++k) {
    size_t pivot = k;
    for (size_t j = k + 1; j < n; ++j) {
      if (norms[j] > norms[pivot]) pivot = j;
    }
    if (pivot != k) {
      for (size_t i = 0; i < m; ++i) std::swap(at(i, k), at(i, pivot));
      std::swap(norms[k], norms[pivot]);
      std::swap((*permutation)[k], (*permutation)[pivot]);
    }
    double norm = 0.0;
    for (size_t i = k; i < m; ++i) norm += at(i, k) * at(i, k);
    norm = std::sqrt(norm);
    if (k == 0) first_pivot = norm;
    if (norm <= tolerance * std::max(first_pivot, 1.0)) return k;

    // Reflector H = I - 2 v vᵀ / (vᵀv) with v = column k below the
    // diagonal, its head shifted by -alpha; v lives in column k meanwhile.
    const double alpha = at(k, k) >= 0 ? -norm : norm;
    at(k, k) -= alpha;
    double vtv = 0.0;
    for (size_t i = k; i < m; ++i) vtv += at(i, k) * at(i, k);
    std::fill(f.begin(), f.end(), 0.0);
    for (size_t i = k; i < m; ++i) {
      const double vi = at(i, k);
      for (size_t j = k + 1; j < n; ++j) f[j] += vi * at(i, j);
      for (size_t c = 0; c < k_rhs; ++c) {
        f[n + c] += vi * rhs_base[i * k_rhs + c];
      }
    }
    for (size_t j = k + 1; j < f.size(); ++j) f[j] = 2.0 * f[j] / vtv;
    for (size_t i = k; i < m; ++i) {
      const double vi = at(i, k);
      for (size_t j = k + 1; j < n; ++j) at(i, j) -= f[j] * vi;
      for (size_t c = 0; c < k_rhs; ++c) {
        rhs_base[i * k_rhs + c] -= f[n + c] * vi;
      }
      at(i, k) = 0.0;
    }
    at(k, k) = alpha;

    // Downdate the remaining column norms.
    for (size_t j = k + 1; j < n; ++j) {
      norms[j] -= at(k, j) * at(k, j);
      if (norms[j] < 0.0) norms[j] = 0.0;
    }
  }
  return steps;
}

void PivotedBackSolve(const Matrix& r, const Matrix& qt_rhs, size_t column,
                      const std::vector<size_t>& permutation, size_t rank,
                      Vector* x) {
  x->assign(r.cols(), 0.0);
  // Back substitution on the rank x rank leading block, each unknown
  // stored straight at its original column.
  for (size_t ii = rank; ii-- > 0;) {
    double sum = qt_rhs.At(ii, column);
    for (size_t j = ii + 1; j < rank; ++j) {
      sum -= r.At(ii, j) * (*x)[permutation[j]];
    }
    (*x)[permutation[ii]] = sum / r.At(ii, ii);
  }
}

StatusOr<Vector> PivotedLeastSquaresSolve(const Matrix& a, const Vector& b,
                                          double tolerance) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("least-squares shape mismatch");
  }
  if (a.rows() < a.cols()) {
    return Status::InvalidArgument("QR requires rows >= cols");
  }
  if (a.cols() == 0) {
    return Status::InvalidArgument("QR of empty matrix");
  }
  Matrix r = a;
  Matrix qtb = Matrix::FromColumn(b);
  std::vector<size_t> permutation;
  const size_t rank = PivotedQrInPlace(&r, &qtb, &permutation, tolerance);
  if (rank == 0) {
    return Status::InvalidArgument("zero matrix in least squares");
  }
  Vector x;
  PivotedBackSolve(r, qtb, 0, permutation, rank, &x);
  return x;
}

StatusOr<Vector> SolveUpperTriangular(const Matrix& r, const Vector& b,
                                      double tolerance) {
  const size_t n = r.rows();
  if (r.cols() != n || b.size() != n) {
    return Status::InvalidArgument("triangular solve shape mismatch");
  }
  Vector x(n, 0.0);
  for (size_t ii = n; ii-- > 0;) {
    double sum = b[ii];
    for (size_t j = ii + 1; j < n; ++j) sum -= r.At(ii, j) * x[j];
    if (std::abs(r.At(ii, ii)) < tolerance) {
      return Status::InvalidArgument("singular triangular system");
    }
    x[ii] = sum / r.At(ii, ii);
  }
  return x;
}

StatusOr<Vector> LeastSquaresSolve(const Matrix& a, const Vector& b,
                                   double tolerance) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("least-squares shape mismatch");
  }
  MIDAS_ASSIGN_OR_RETURN(QrDecomposition qr, HouseholderQr(a, tolerance));
  // x = R⁻¹ Qᵀ b.
  MIDAS_ASSIGN_OR_RETURN(Vector qtb, qr.q.Transpose().MultiplyVector(b));
  return SolveUpperTriangular(qr.r, qtb, tolerance);
}

StatusOr<Matrix> CholeskyFactor(const Matrix& a, double tolerance) {
  const size_t n = a.rows();
  if (a.cols() != n) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      const double sum =
          CholeskyRowDot(l.RowData(i), l.RowData(j), j, a.At(i, j));
      if (i == j) {
        if (sum < tolerance) {
          return Status::InvalidArgument("matrix is not positive definite");
        }
        l.At(i, i) = std::sqrt(sum);
      } else {
        l.At(i, j) = sum / l.At(j, j);
      }
    }
  }
  return l;
}

StatusOr<Vector> CholeskySolve(const Matrix& a, const Vector& b,
                               double tolerance) {
  const size_t n = a.rows();
  if (b.size() != n) {
    return Status::InvalidArgument("Cholesky solve shape mismatch");
  }
  MIDAS_ASSIGN_OR_RETURN(Matrix l, CholeskyFactor(a, tolerance));
  // Forward solve L y = b.
  Vector y(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double sum = CholeskyRowDot(l.RowData(i), y.data(), i, b[i]);
    y[i] = sum / l.At(i, i);
  }
  // Back solve Lᵀ x = y.
  Vector x(n, 0.0);
  for (size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (size_t k = ii + 1; k < n; ++k) sum -= l.At(k, ii) * x[k];
    x[ii] = sum / l.At(ii, ii);
  }
  return x;
}

StatusOr<Matrix> SpdInverse(const Matrix& a, double tolerance) {
  const size_t n = a.rows();
  Matrix inv(n, n);
  for (size_t col = 0; col < n; ++col) {
    Vector e(n, 0.0);
    e[col] = 1.0;
    MIDAS_ASSIGN_OR_RETURN(Vector x, CholeskySolve(a, e, tolerance));
    for (size_t row = 0; row < n; ++row) inv.At(row, col) = x[row];
  }
  return inv;
}

}  // namespace midas
