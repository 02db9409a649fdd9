#ifndef MIDAS_LINALG_MATRIX_H_
#define MIDAS_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/status.h"

namespace midas {

/// Dense double vector whose buffer starts on a 64-byte boundary, so the
/// SIMD kernel layer's vector loads never split a cache line at the base.
/// Element semantics (operator==, iteration, serialization) are identical
/// to a plain std::vector<double>; only the allocator differs.
using Vector = AlignedVector<double>;

/// \brief Bitwise hash for Vector, for unordered containers keyed by exact
/// cost or feature vectors (e.g. the MOQP Pareto archive's cost dedup).
/// Normalises -0.0 to 0.0 so vectors that compare equal
/// under operator== hash identically; NaN keys are unusable either way
/// (NaN != NaN).
struct VectorHash {
  size_t operator()(const Vector& v) const noexcept;
};

/// \brief Dense row-major matrix of doubles.
///
/// Sized for regression problems (tens of columns, up to a few thousand
/// rows); operations are straightforward loops, not BLAS. Out-of-range
/// element access aborts via MIDAS_CHECK, while shape mismatches in the
/// algebraic operations return Status so callers can recover.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested braces: Matrix({{1, 2}, {3, 4}}). All rows must have
  /// equal length (checked).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(size_t n);

  /// Builds a single-column matrix from a vector.
  static Matrix FromColumn(const Vector& v);

  /// Assembles a matrix from equal-length rows in one pass over the flat
  /// buffer (no per-row temporaries) — the way batch-inference callers turn
  /// a candidate feature list into one SoA design matrix. Zero rows yield
  /// the empty matrix; ragged rows are an error.
  static StatusOr<Matrix> FromRows(const std::vector<Vector>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  /// Reshapes to rows × cols with every element set to fill, reusing the
  /// existing buffer when it is large enough — the workspace-friendly
  /// alternative to assigning a fresh Matrix (which reallocates every
  /// call). Invalidates RowData pointers only when the buffer grows.
  void Resize(size_t rows, size_t cols, double fill = 0.0);

  double& At(size_t r, size_t c);
  double At(size_t r, size_t c) const;
  double& operator()(size_t r, size_t c) { return At(r, c); }
  double operator()(size_t r, size_t c) const { return At(r, c); }

  Vector Row(size_t r) const;
  Vector Col(size_t c) const;
  void SetRow(size_t r, const Vector& values);

  /// Borrowed pointer to row r's cols() contiguous elements — the zero-copy
  /// row view the batch prediction loops iterate with, and the writable one
  /// in-place kernels such as PivotedQrInPlace update. Invalidated by any
  /// reassignment of the matrix.
  const double* RowData(size_t r) const;
  double* RowData(size_t r);

  Matrix Transpose() const;

  /// The Gram matrix AᵀA (cols x cols), computed without materializing the
  /// transpose and exploiting symmetry — half the flops of
  /// Transpose().Multiply(*this). This is the normal-equations building
  /// block of the regression layer.
  Matrix Gram() const;

  /// Aᵀv (length cols) without materializing the transpose.
  StatusOr<Vector> TransposeTimesVector(const Vector& v) const;

  StatusOr<Matrix> Multiply(const Matrix& other) const;

  /// GEMM into a caller-owned output: out (+)= *this · other, dispatched
  /// through the SIMD kernel layer (linalg/simd.h). The scalar tier is the
  /// cache-blocked i-k-j loop with ascending-k accumulation — the same
  /// association as the textbook triple loop, so blocked and naive results
  /// are bit-identical on finite inputs and a bias-initialised `accumulate`
  /// pass reproduces the scalar "start from the intercept, add terms in
  /// order" evaluation exactly. The vector tiers run a register-tiled FMA
  /// microkernel whose reassociated sums match the scalar oracle to ≤1e-12
  /// relative error; pin MIDAS_FORCE_SCALAR for bit-exact runs.
  ///
  /// With accumulate == false, out is resized to rows() × other.cols() and
  /// zeroed first (reusing its buffer when large enough); with accumulate
  /// == true it must already have that shape and the product is added on
  /// top. out must not alias either operand.
  Status MultiplyInto(const Matrix& other, Matrix* out,
                      bool accumulate = false) const;

  /// Same contract as MultiplyInto, but `other_t` is handed over
  /// pre-transposed (other_t.row(j) holds column j of the logical B), so
  /// both operands stream contiguously: out(i, j) (+)= Σ_k this(i, k) ·
  /// other_t(j, k), k ascending. This is the layout weight matrices are
  /// naturally stored in (one row per output unit).
  Status MultiplyTransposedInto(const Matrix& other_t, Matrix* out,
                                bool accumulate = false) const;

  StatusOr<Vector> MultiplyVector(const Vector& v) const;
  StatusOr<Matrix> Add(const Matrix& other) const;
  StatusOr<Matrix> Subtract(const Matrix& other) const;
  Matrix Scale(double factor) const;

  /// Returns the rows [begin, end) as a new matrix.
  StatusOr<Matrix> RowSlice(size_t begin, size_t end) const;

  /// Max absolute element difference; used by tests for approximate equality.
  StatusOr<double> MaxAbsDiff(const Matrix& other) const;

  std::string ToString(int precision = 4) const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  AlignedVector<double> data_;
};

/// Reference textbook i-j-k matrix multiply (register-accumulated dot per
/// output element, no tiling). The oracle the blocked MultiplyInto kernel
/// is pinned against in tests and the baseline of the GEMM
/// micro-benchmark; not used on any hot path.
Status MultiplyReferenceInto(const Matrix& a, const Matrix& b, Matrix* out);

/// Dot product; aborts on length mismatch (programming error).
double Dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm2(const Vector& v);

}  // namespace midas

#endif  // MIDAS_LINALG_MATRIX_H_
