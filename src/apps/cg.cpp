#include "apps/cg.hpp"

namespace dmr::apps {

namespace {
double dot_local(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}
}  // namespace

CgState::CgState(CgConfig config) : config_(config) {
  // Registration order fixes the wire and checkpoint layout: the Krylov
  // scalar first, then the four vectors, then the matrix (one logical
  // element = one row of n doubles).
  registry().add_scalar("rho", rho_);
  registry().add_block("x", x_, config_.n);
  registry().add_block("b", b_, config_.n);
  registry().add_block("r", r_, config_.n);
  registry().add_block("p", p_, config_.n);
  registry().add_block("A", matrix_, config_.n, /*items_per_element=*/
                       config_.n);
}

void CgState::on_layout_changed(int rank, int nprocs) {
  my_rank_ = rank;
  nprocs_ = nprocs;
}

void cg_matrix_row(std::size_t row, std::size_t n, double* out) {
  for (std::size_t j = 0; j < n; ++j) out[j] = 0.0;
  out[row] = 4.0;
  if (row >= 1) out[row - 1] = -1.0;
  if (row + 1 < n) out[row + 1] = -1.0;
  if (row >= 2) out[row - 2] = -0.5;
  if (row + 2 < n) out[row + 2] = -0.5;
}

std::vector<double> cg_reference_solve(std::size_t n, int iterations) {
  std::vector<double> matrix(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    cg_matrix_row(i, n, matrix.data() + i * n);
  }
  // b = A * ones, so the exact solution is a vector of ones.
  std::vector<double> b(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) b[i] += matrix[i * n + j];
  }
  std::vector<double> x(n, 0.0), r = b, p = b, q(n);
  double rho = 0.0;
  for (std::size_t i = 0; i < n; ++i) rho += r[i] * r[i];
  for (int it = 0; it < iterations && rho > 0.0; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      q[i] = 0.0;
      for (std::size_t j = 0; j < n; ++j) q[i] += matrix[i * n + j] * p[j];
    }
    double pq = 0.0;
    for (std::size_t i = 0; i < n; ++i) pq += p[i] * q[i];
    if (pq == 0.0) break;
    const double alpha = rho / pq;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
    }
    double rho_next = 0.0;
    for (std::size_t i = 0; i < n; ++i) rho_next += r[i] * r[i];
    const double beta = rho_next / rho;
    rho = rho_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
  }
  return x;
}

void CgState::build_local(int rank, int nprocs) {
  my_rank_ = rank;
  nprocs_ = nprocs;
  const redist::BlockDistribution dist(config_.n, nprocs);
  const std::size_t rows = dist.count(rank);
  const std::size_t first = dist.begin(rank);
  matrix_.resize(rows * config_.n);
  for (std::size_t i = 0; i < rows; ++i) {
    cg_matrix_row(first + i, config_.n, matrix_.data() + i * config_.n);
  }
  b_.assign(rows, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < config_.n; ++j) {
      b_[i] += matrix_[i * config_.n + j];
    }
  }
}

void CgState::init(int rank, int nprocs) {
  build_local(rank, nprocs);
  const std::size_t rows = b_.size();
  x_.assign(rows, 0.0);
  r_ = b_;
  p_ = b_;
  rho_ = -1.0;  // computed collectively on the first step
}

void CgState::compute_step(const smpi::Comm& world, int step) {
  (void)step;
  if (rho_ < 0.0) rho_ = world.allreduce_sum(dot_local(r_, r_));
  if (rho_ == 0.0) return;  // converged; steps become no-ops
  // q = A p needs the full direction vector.
  const std::vector<double> full_p =
      world.allgatherv(std::span<const double>(p_));
  const std::size_t rows = b_.size();
  std::vector<double> q(rows, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    const double* row = matrix_.data() + i * config_.n;
    double acc = 0.0;
    for (std::size_t j = 0; j < config_.n; ++j) acc += row[j] * full_p[j];
    q[i] = acc;
  }
  const double pq = world.allreduce_sum(dot_local(p_, q));
  if (pq == 0.0) {
    rho_ = 0.0;
    return;
  }
  const double alpha = rho_ / pq;
  for (std::size_t i = 0; i < rows; ++i) {
    x_[i] += alpha * p_[i];
    r_[i] -= alpha * q[i];
  }
  const double rho_next = world.allreduce_sum(dot_local(r_, r_));
  const double beta = rho_next / rho_;
  rho_ = rho_next;
  for (std::size_t i = 0; i < rows; ++i) p_[i] = r_[i] + beta * p_[i];
}

double CgState::residual_norm2(const smpi::Comm& world) const {
  return world.allreduce_sum(dot_local(r_, r_));
}

}  // namespace dmr::apps
