#include "apps/jacobi.hpp"

#include <cmath>

namespace dmr::apps {

JacobiState::JacobiState(JacobiConfig config) : config_(config) {
  // Wire/checkpoint order: x, b, then the matrix (element = one row).
  registry().add_block("x", x_, config_.n);
  registry().add_block("b", b_, config_.n);
  registry().add_block("A", matrix_, config_.n, /*items_per_element=*/
                       config_.n);
}

void JacobiState::on_layout_changed(int rank, int nprocs) {
  my_rank_ = rank;
  nprocs_ = nprocs;
}

void jacobi_matrix_row(std::size_t row, std::size_t n, double* out) {
  for (std::size_t j = 0; j < n; ++j) out[j] = 0.0;
  out[row] = 8.0;
  if (row >= 1) out[row - 1] = -1.0;
  if (row + 1 < n) out[row + 1] = -1.0;
  if (row >= 2) out[row - 2] = -0.5;
  if (row + 2 < n) out[row + 2] = -0.5;
}

std::vector<double> jacobi_reference_solve(std::size_t n, int iterations) {
  std::vector<double> matrix(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    jacobi_matrix_row(i, n, matrix.data() + i * n);
  }
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += matrix[i * n + j];
  }
  std::vector<double> x(n, 0.0), next(n);
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      double sigma = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) sigma += matrix[i * n + j] * x[j];
      }
      next[i] = (b[i] - sigma) / matrix[i * n + i];
    }
    x.swap(next);
  }
  return x;
}

void JacobiState::build_local(int rank, int nprocs) {
  my_rank_ = rank;
  nprocs_ = nprocs;
  const redist::BlockDistribution dist(config_.n, nprocs);
  const std::size_t rows = dist.count(rank);
  const std::size_t first = dist.begin(rank);
  matrix_.resize(rows * config_.n);
  for (std::size_t i = 0; i < rows; ++i) {
    jacobi_matrix_row(first + i, config_.n, matrix_.data() + i * config_.n);
  }
  b_.assign(rows, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < config_.n; ++j) {
      b_[i] += matrix_[i * config_.n + j];
    }
  }
}

void JacobiState::init(int rank, int nprocs) {
  build_local(rank, nprocs);
  x_.assign(b_.size(), 0.0);
}

void JacobiState::compute_step(const smpi::Comm& world, int step) {
  (void)step;
  const std::vector<double> full_x =
      world.allgatherv(std::span<const double>(x_));
  const redist::BlockDistribution dist(config_.n, world.size());
  const std::size_t first = dist.begin(world.rank());
  const std::size_t rows = x_.size();
  std::vector<double> next(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = matrix_.data() + i * config_.n;
    const std::size_t global_i = first + i;
    double sigma = 0.0;
    for (std::size_t j = 0; j < config_.n; ++j) {
      if (j != global_i) sigma += row[j] * full_x[j];
    }
    next[i] = (b_[i] - sigma) / row[global_i];
  }
  x_.swap(next);
}

double JacobiState::local_error() const {
  double err = 0.0;
  for (double v : x_) err = std::max(err, std::fabs(v - 1.0));
  return err;
}

}  // namespace dmr::apps
