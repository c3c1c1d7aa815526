// Non-owning typed view over a block of elements: pointer + Shape + row
// stride.
//
// Tensor is the currency between the Workspace arena and the ml kernels: the
// arena hands out raw aligned storage, Tensor gives it rows/cols structure
// without taking ownership or copying. It deliberately mirrors the read/write
// surface of Matrix (rows/cols/row()/operator()/data) so call sites migrate
// mechanically, but unlike Matrix it never allocates — constructing, slicing,
// or passing one by value is free.
//
// Mutability follows the element type: Tensor<double> is writable,
// Tensor<const double> is a read-only view, and the former converts
// implicitly to the latter (same rule std::span uses).
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

#include "ml/shape.hpp"
#include "util/check.hpp"

namespace forumcast::ml {

template <typename T>
class Tensor {
 public:
  Tensor() = default;

  /// Dense view: row r starts at data + r * stride. `stride >= shape.cols()`
  /// allows viewing a sub-block of a wider buffer; the default packs rows
  /// contiguously.
  Tensor(T* data, Shape shape, std::size_t stride = 0)
      : data_(data),
        shape_(shape),
        stride_(stride == 0 ? shape.cols() : stride) {
    FORUMCAST_CHECK(stride_ >= shape_.cols());
  }

  Tensor(T* data, std::size_t rows, std::size_t cols)
      : Tensor(data, Shape::matrix(rows, cols)) {}

  /// Writable → read-only conversion.
  operator Tensor<const T>() const
    requires(!std::is_const_v<T>)
  {
    return Tensor<const T>(data_, shape_, stride_);
  }

  const Shape& shape() const { return shape_; }
  std::size_t rows() const { return shape_.rows(); }
  std::size_t cols() const { return shape_.cols(); }
  std::size_t stride() const { return stride_; }

  /// Total addressable elements (rows * stride also works for dense views,
  /// but elements() reports the logical extent).
  std::size_t elements() const { return shape_.elements(); }

  T* data() const { return data_; }

  T& operator()(std::size_t r, std::size_t c) const {
    FORUMCAST_CHECK(r < rows() && c < cols());
    return data_[r * stride_ + c];
  }

  std::span<T> row(std::size_t r) const {
    FORUMCAST_CHECK(r < rows());
    return {data_ + r * stride_, cols()};
  }

  /// Flat span over the whole view. Only valid for packed views (stride ==
  /// cols), where the logical elements are contiguous.
  std::span<T> flat() const {
    FORUMCAST_CHECK(stride_ == shape_.cols());
    return {data_, elements()};
  }

  /// View of rows [begin, begin + count).
  Tensor<T> rows_slice(std::size_t begin, std::size_t count) const {
    FORUMCAST_CHECK(begin + count <= rows());
    return Tensor<T>(data_ + begin * stride_, Shape::matrix(count, cols()),
                     stride_);
  }

 private:
  T* data_ = nullptr;
  Shape shape_{};
  std::size_t stride_ = 0;
};

/// One sample as a 1 × size view: the batch-of-one form through which the
/// per-row predictor entry points reach their batch forwards.
inline Tensor<const double> one_row(std::span<const double> row) {
  return Tensor<const double>(row.data(), 1, row.size());
}

}  // namespace forumcast::ml
