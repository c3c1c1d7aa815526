#include "ml/matrix.hpp"

#include "util/check.hpp"

namespace forumcast::ml {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), storage_(rows * cols, fill) {}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  storage_.resize(rows * cols);
}

double& Matrix::operator()(std::size_t r, std::size_t c) {
  FORUMCAST_CHECK(r < rows_ && c < cols_);
  return storage_[r * cols_ + c];
}

std::span<double> Matrix::row(std::size_t r) {
  FORUMCAST_CHECK(r < rows_);
  return std::span<double>(storage_).subspan(r * cols_, cols_);
}

std::span<const double> Matrix::row(std::size_t r) const {
  FORUMCAST_CHECK(r < rows_);
  return std::span<const double>(storage_).subspan(r * cols_, cols_);
}

void accumulate_weighted_rows(std::span<const double* const> rows,
                              std::span<const double> errs,
                              std::span<double> grads) {
  FORUMCAST_CHECK(rows.size() == errs.size());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const double e = errs[k];
    const double* x = rows[k];
    for (std::size_t c = 0; c < grads.size(); ++c) grads[c] += e * x[c];
  }
}

double dot(std::span<const double> a, std::span<const double> b) {
  FORUMCAST_CHECK(a.size() == b.size());
  double accum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) accum += a[i] * b[i];
  return accum;
}

}  // namespace forumcast::ml
