#ifndef MIDAS_LINALG_DECOMPOSITION_H_
#define MIDAS_LINALG_DECOMPOSITION_H_

#include <vector>

#include "linalg/matrix.h"

namespace midas {

/// \brief Householder QR factorisation A = Q R for A with rows >= cols.
///
/// Q is rows x cols with orthonormal columns (thin QR); R is cols x cols
/// upper triangular. Fails on rank deficiency (|R(i,i)| below tolerance),
/// which callers such as the OLS fitter handle by falling back to ridge
/// regularisation.
struct QrDecomposition {
  Matrix q;
  Matrix r;
};

StatusOr<QrDecomposition> HouseholderQr(const Matrix& a,
                                        double tolerance = 1e-12);

/// \brief Householder QR with column pivoting, in place — the one pivot
/// rule behind every rank-revealing solve here (PivotedLeastSquaresSolve,
/// hence FitOls, and IncrementalOls::FitAll).
///
/// Overwrites *a (m x n) with Qᵀ A P and the m x k block *rhs (null for
/// none) with Qᵀ rhs, applying each reflector to both; Q is never formed.
/// Step k brings the column with the largest remaining norm to position k
/// (ties keep the leftmost) and stops once that norm is at most
/// tolerance · max(first pivot, 1); the number of steps taken is returned
/// as the numerical rank. (*permutation)[j] is the column of A now in
/// position j.
///
/// On return the leading rank rows of *a hold R's upper-triangular block,
/// with non-increasing |R(k,k)|, and columns [0, rank) are zero below the
/// diagonal. The trailing rows [rank, m) of columns [rank, n) hold the
/// unreduced remainder, below the cut, so the basic solution (zeros on the
/// dependent columns; see PivotedBackSolve) leaves exactly rows
/// [rank, m) of Qᵀ rhs as its residual.
size_t PivotedQrInPlace(Matrix* a, Matrix* rhs,
                        std::vector<size_t>* permutation,
                        double tolerance = 1e-10);

/// The basic least-squares solution after PivotedQrInPlace: back-solves the
/// leading rank x rank block of R against column `column` of the reduced
/// right-hand sides and writes it through the permutation into *x (length
/// r.cols()), with zeros on the columns the rank cut dropped.
void PivotedBackSolve(const Matrix& r, const Matrix& qt_rhs, size_t column,
                      const std::vector<size_t>& permutation, size_t rank,
                      Vector* x);

/// Minimum-residual least-squares solve via pivoted QR: rank-deficient
/// systems get the basic solution (zero coefficients on the dependent
/// columns) instead of an error. Requires a.rows() >= a.cols().
StatusOr<Vector> PivotedLeastSquaresSolve(const Matrix& a, const Vector& b,
                                          double tolerance = 1e-10);

/// Solves R x = b for upper-triangular R by back substitution.
StatusOr<Vector> SolveUpperTriangular(const Matrix& r, const Vector& b,
                                      double tolerance = 1e-12);

/// Least-squares solve: minimises ||A x - b||_2 via thin QR.
/// Requires a.rows() >= a.cols().
StatusOr<Vector> LeastSquaresSolve(const Matrix& a, const Vector& b,
                                   double tolerance = 1e-12);

/// Cholesky factorisation of a symmetric positive-definite matrix: A = L Lᵀ.
/// Fails (InvalidArgument) when A is not positive definite.
StatusOr<Matrix> CholeskyFactor(const Matrix& a, double tolerance = 1e-12);

/// Solves A x = b for symmetric positive-definite A via Cholesky.
StatusOr<Vector> CholeskySolve(const Matrix& a, const Vector& b,
                               double tolerance = 1e-12);

/// Inverse of a symmetric positive-definite matrix via Cholesky; used for
/// the (AᵀA)⁻¹ term of the paper's Eq. 12 and regression diagnostics.
StatusOr<Matrix> SpdInverse(const Matrix& a, double tolerance = 1e-12);

}  // namespace midas

#endif  // MIDAS_LINALG_DECOMPOSITION_H_
