#include "mlp/tensor.hh"

#include <algorithm>

#include "common/float_eq.hh"
#include "common/logging.hh"

namespace e3 {

Mat::Mat(size_t rows, size_t cols, double init)
    : rows_(rows), cols_(cols), data_(rows * cols, init)
{
}

Mat
Mat::randn(size_t rows, size_t cols, double stdev, Rng &rng)
{
    Mat m(rows, cols);
    for (double &v : m.data_)
        v = rng.normal(0.0, stdev);
    return m;
}

Mat
Mat::rowVector(const std::vector<double> &values)
{
    Mat m(1, values.size());
    m.data_ = values;
    return m;
}

double &
Mat::at(size_t r, size_t c)
{
    e3_assert(r < rows_ && c < cols_, "Mat index (", r, ", ", c,
              ") out of ", rows_, "x", cols_);
    return data_[r * cols_ + c];
}

double
Mat::at(size_t r, size_t c) const
{
    e3_assert(r < rows_ && c < cols_, "Mat index (", r, ", ", c,
              ") out of ", rows_, "x", cols_);
    return data_[r * cols_ + c];
}

std::vector<double>
Mat::row(size_t r) const
{
    e3_assert(r < rows_, "row ", r, " out of ", rows_);
    return {data_.begin() + static_cast<long>(r * cols_),
            data_.begin() + static_cast<long>((r + 1) * cols_)};
}

Mat
Mat::matmul(const Mat &other) const
{
    e3_assert(cols_ == other.rows_, "matmul shape mismatch: ", rows_,
              "x", cols_, " * ", other.rows_, "x", other.cols_);
    Mat out(rows_, other.cols_);
    for (size_t i = 0; i < rows_; ++i) {
        for (size_t k = 0; k < cols_; ++k) {
            const double a = data_[i * cols_ + k];
            if (isExactZero(a))
                continue;
            const double *brow = &other.data_[k * other.cols_];
            double *orow = &out.data_[i * other.cols_];
            for (size_t j = 0; j < other.cols_; ++j)
                orow[j] += a * brow[j];
        }
    }
    return out;
}

Mat
Mat::transposed() const
{
    Mat out(cols_, rows_);
    for (size_t i = 0; i < rows_; ++i) {
        for (size_t j = 0; j < cols_; ++j)
            out.data_[j * rows_ + i] = data_[i * cols_ + j];
    }
    return out;
}

Mat
Mat::operator+(const Mat &other) const
{
    e3_assert(rows_ == other.rows_ && cols_ == other.cols_,
              "elementwise shape mismatch");
    Mat out = *this;
    for (size_t i = 0; i < data_.size(); ++i)
        out.data_[i] += other.data_[i];
    return out;
}

Mat
Mat::operator-(const Mat &other) const
{
    e3_assert(rows_ == other.rows_ && cols_ == other.cols_,
              "elementwise shape mismatch");
    Mat out = *this;
    for (size_t i = 0; i < data_.size(); ++i)
        out.data_[i] -= other.data_[i];
    return out;
}

Mat
Mat::hadamard(const Mat &other) const
{
    e3_assert(rows_ == other.rows_ && cols_ == other.cols_,
              "elementwise shape mismatch");
    Mat out = *this;
    for (size_t i = 0; i < data_.size(); ++i)
        out.data_[i] *= other.data_[i];
    return out;
}

Mat
Mat::scaled(double s) const
{
    Mat out = *this;
    for (double &v : out.data_)
        v *= s;
    return out;
}

void
Mat::addRowBroadcast(const Mat &rowVec)
{
    e3_assert(rowVec.rows_ == 1 && rowVec.cols_ == cols_,
              "broadcast vector must be 1x", cols_);
    for (size_t i = 0; i < rows_; ++i) {
        for (size_t j = 0; j < cols_; ++j)
            data_[i * cols_ + j] += rowVec.data_[j];
    }
}

Mat
Mat::sumRows() const
{
    Mat out(1, cols_);
    for (size_t i = 0; i < rows_; ++i) {
        for (size_t j = 0; j < cols_; ++j)
            out.data_[j] += data_[i * cols_ + j];
    }
    return out;
}

void
Mat::zero()
{
    std::fill(data_.begin(), data_.end(), 0.0);
}

} // namespace e3
