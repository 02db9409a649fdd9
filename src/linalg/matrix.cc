#include "linalg/matrix.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "common/logging.h"
#include "linalg/simd.h"

namespace midas {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(0) {
  for (const auto& row : rows) {
    if (cols_ == 0) cols_ = row.size();
    MIDAS_CHECK(row.size() == cols_) << "ragged initializer list";
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromColumn(const Vector& v) {
  Matrix m(v.size(), 1);
  for (size_t i = 0; i < v.size(); ++i) m.At(i, 0) = v[i];
  return m;
}

StatusOr<Matrix> Matrix::FromRows(const std::vector<Vector>& rows) {
  if (rows.empty()) return Matrix();
  const size_t cols = rows[0].size();
  Matrix m(rows.size(), cols);
  double* dst = m.data_.data();
  for (const Vector& row : rows) {
    if (row.size() != cols) {
      return Status::InvalidArgument("ragged rows");
    }
    std::memcpy(dst, row.data(), cols * sizeof(double));
    dst += cols;
  }
  return m;
}

double& Matrix::At(size_t r, size_t c) {
  MIDAS_CHECK(r < rows_ && c < cols_)
      << "index (" << r << "," << c << ") out of range for " << rows_ << "x"
      << cols_;
  return data_[r * cols_ + c];
}

double Matrix::At(size_t r, size_t c) const {
  MIDAS_CHECK(r < rows_ && c < cols_)
      << "index (" << r << "," << c << ") out of range for " << rows_ << "x"
      << cols_;
  return data_[r * cols_ + c];
}

const double* Matrix::RowData(size_t r) const {
  MIDAS_CHECK(r < rows_) << "row " << r << " out of range for " << rows_;
  return data_.data() + r * cols_;
}

double* Matrix::RowData(size_t r) {
  MIDAS_CHECK(r < rows_) << "row " << r << " out of range for " << rows_;
  return data_.data() + r * cols_;
}

Vector Matrix::Row(size_t r) const {
  MIDAS_CHECK(r < rows_);
  return Vector(data_.begin() + static_cast<ptrdiff_t>(r * cols_),
                data_.begin() + static_cast<ptrdiff_t>((r + 1) * cols_));
}

Vector Matrix::Col(size_t c) const {
  MIDAS_CHECK(c < cols_);
  Vector out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
  return out;
}

void Matrix::SetRow(size_t r, const Vector& values) {
  MIDAS_CHECK(r < rows_ && values.size() == cols_);
  for (size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] = values[c];
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      out.At(c, r) = data_[r * cols_ + c];
    }
  }
  return out;
}

Matrix Matrix::Gram() const {
  Matrix out(cols_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    for (size_t i = 0; i < cols_; ++i) {
      const double ri = row[i];
      if (ri == 0.0) continue;
      // Upper-triangle rank-1 update on the row suffix [i, cols): an axpy
      // with the same ascending-j association as the seed loop.
      simd::Axpy(ri, row + i, out.data_.data() + i * cols_ + i, cols_ - i);
    }
  }
  // Mirror the upper triangle into the lower one.
  for (size_t i = 1; i < cols_; ++i) {
    for (size_t j = 0; j < i; ++j) {
      out.data_[i * cols_ + j] = out.data_[j * cols_ + i];
    }
  }
  return out;
}

StatusOr<Vector> Matrix::TransposeTimesVector(const Vector& v) const {
  if (rows_ != v.size()) {
    return Status::InvalidArgument("transpose-matvec shape mismatch");
  }
  Vector out(cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double vr = v[r];
    if (vr == 0.0) continue;
    simd::Axpy(vr, data_.data() + r * cols_, out.data(), cols_);
  }
  return out;
}

void Matrix::Resize(size_t rows, size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

StatusOr<Matrix> Matrix::Multiply(const Matrix& other) const {
  Matrix out;
  MIDAS_RETURN_IF_ERROR(MultiplyInto(other, &out));
  return out;
}

Status Matrix::MultiplyInto(const Matrix& other, Matrix* out,
                            bool accumulate) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument("matmul shape mismatch");
  }
  if (out == this || out == &other) {
    return Status::InvalidArgument("matmul output aliases an operand");
  }
  if (!accumulate) {
    out->Resize(rows_, other.cols_);
  } else if (out->rows_ != rows_ || out->cols_ != other.cols_) {
    return Status::InvalidArgument("matmul accumulate shape mismatch");
  }
  simd::GemmAcc(data_.data(), other.data_.data(), out->data_.data(), rows_,
                cols_, other.cols_);
  return Status::OK();
}

Status Matrix::MultiplyTransposedInto(const Matrix& other_t, Matrix* out,
                                      bool accumulate) const {
  if (cols_ != other_t.cols_) {
    return Status::InvalidArgument("matmul shape mismatch");
  }
  if (out == this || out == &other_t) {
    return Status::InvalidArgument("matmul output aliases an operand");
  }
  if (!accumulate) {
    out->Resize(rows_, other_t.rows_);
  } else if (out->rows_ != rows_ || out->cols_ != other_t.rows_) {
    return Status::InvalidArgument("matmul accumulate shape mismatch");
  }
  simd::GemmTransBAcc(data_.data(), other_t.data_.data(), out->data_.data(),
                      rows_, cols_, other_t.rows_);
  return Status::OK();
}

StatusOr<Vector> Matrix::MultiplyVector(const Vector& v) const {
  if (cols_ != v.size()) {
    return Status::InvalidArgument("matvec shape mismatch");
  }
  Vector out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    out[r] = simd::DotAcc(0.0, data_.data() + r * cols_, v.data(), cols_);
  }
  return out;
}

StatusOr<Matrix> Matrix::Add(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return Status::InvalidArgument("add shape mismatch");
  }
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

StatusOr<Matrix> Matrix::Subtract(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return Status::InvalidArgument("subtract shape mismatch");
  }
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] -= other.data_[i];
  return out;
}

Matrix Matrix::Scale(double factor) const {
  Matrix out = *this;
  for (double& x : out.data_) x *= factor;
  return out;
}

StatusOr<Matrix> Matrix::RowSlice(size_t begin, size_t end) const {
  if (begin > end || end > rows_) {
    return Status::OutOfRange("row slice out of range");
  }
  Matrix out(end - begin, cols_);
  for (size_t r = begin; r < end; ++r) out.SetRow(r - begin, Row(r));
  return out;
}

StatusOr<double> Matrix::MaxAbsDiff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return Status::InvalidArgument("diff shape mismatch");
  }
  double max_diff = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(data_[i] - other.data_[i]));
  }
  return max_diff;
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision);
  for (size_t r = 0; r < rows_; ++r) {
    os << "[";
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) os << ", ";
      os << data_[r * cols_ + c];
    }
    os << "]\n";
  }
  return os.str();
}

Status MultiplyReferenceInto(const Matrix& a, const Matrix& b, Matrix* out) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("matmul shape mismatch");
  }
  *out = Matrix(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      out->At(i, j) = acc;
    }
  }
  return Status::OK();
}

double Dot(const Vector& a, const Vector& b) {
  MIDAS_CHECK(a.size() == b.size()) << "dot length mismatch";
  return simd::Dot(a.data(), b.data(), a.size());
}

double Norm2(const Vector& v) { return std::sqrt(Dot(v, v)); }

size_t VectorHash::operator()(const Vector& v) const noexcept {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ v.size();
  for (double d : v) {
    if (d == 0.0) d = 0.0;  // collapse -0.0 onto +0.0
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    h ^= bits;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return static_cast<size_t>(h);
}

}  // namespace midas
