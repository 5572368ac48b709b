#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tensor/gemm.hpp"

namespace hdczsc::tensor {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape())
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + shape_str(a.shape()) +
                                " vs " + shape_str(b.shape()));
}

void check_matrix(const Tensor& a, const char* op) {
  if (a.dim() != 2)
    throw std::invalid_argument(std::string(op) + ": expected 2-D tensor, got " +
                                shape_str(a.shape()));
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor out = a.clone();
  out.add_scaled(b, 1.0f);
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor out = a.clone();
  out.add_scaled(b, -1.0f);
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor out = a.clone();
  float* o = out.data();
  const float* bb = b.data();
  for (std::size_t i = 0; i < out.numel(); ++i) o[i] *= bb[i];
  return out;
}

Tensor add_scalar(const Tensor& a, float s) {
  Tensor out = a.clone();
  float* o = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) o[i] += s;
  return out;
}

Tensor mul_scalar(const Tensor& a, float s) {
  Tensor out = a.clone();
  out.scale(s);
  return out;
}

Tensor map(const Tensor& a, float (*fn)(float)) {
  Tensor out = a.clone();
  float* o = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) o[i] = fn(o[i]);
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_matrix(a, "matmul(A)");
  check_matrix(b, "matmul(B)");
  const std::size_t m = a.size(0), k = a.size(1), n = b.size(1);
  if (b.size(0) != k)
    throw std::invalid_argument("matmul: inner dims differ: " + shape_str(a.shape()) + " x " +
                                shape_str(b.shape()));
  Tensor c({m, n});
  gemm_accumulate(Trans::N, Trans::N, m, n, k, a.data(), k, b.data(), n, c.data(), n);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check_matrix(a, "matmul_tn(A)");
  check_matrix(b, "matmul_tn(B)");
  const std::size_t k = a.size(0), m = a.size(1), n = b.size(1);
  if (b.size(0) != k)
    throw std::invalid_argument("matmul_tn: inner dims differ: " + shape_str(a.shape()) +
                                "^T x " + shape_str(b.shape()));
  Tensor c({m, n});
  gemm_accumulate(Trans::T, Trans::N, m, n, k, a.data(), m, b.data(), n, c.data(), n);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check_matrix(a, "matmul_nt(A)");
  check_matrix(b, "matmul_nt(B)");
  const std::size_t m = a.size(0), k = a.size(1), n = b.size(0);
  if (b.size(1) != k)
    throw std::invalid_argument("matmul_nt: inner dims differ: " + shape_str(a.shape()) + " x " +
                                shape_str(b.shape()) + "^T");
  Tensor c({m, n});
  gemm_accumulate(Trans::N, Trans::T, m, n, k, a.data(), k, b.data(), k, c.data(), n);
  return c;
}

Tensor matvec(const Tensor& a, const Tensor& x) {
  check_matrix(a, "matvec(A)");
  if (x.dim() != 1 || x.size(0) != a.size(1))
    throw std::invalid_argument("matvec: shape mismatch " + shape_str(a.shape()) + " x " +
                                shape_str(x.shape()));
  const std::size_t m = a.size(0), k = a.size(1);
  Tensor y({m});
  const float* A = a.data();
  const float* X = x.data();
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    const float* arow = A + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * X[kk];
    y[i] = static_cast<float>(acc);
  }
  return y;
}

Tensor transpose(const Tensor& a) {
  check_matrix(a, "transpose");
  const std::size_t m = a.size(0), n = a.size(1);
  Tensor t({n, m});
  const float* A = a.data();
  float* T = t.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) T[j * m + i] = A[i * n + j];
  return t;
}

Tensor concat_rows(const Tensor& a, const Tensor& b) {
  if (a.dim() == 0 || a.dim() != b.dim() ||
      !std::equal(a.shape().begin() + 1, a.shape().end(), b.shape().begin() + 1))
    throw std::invalid_argument("concat_rows: trailing dims differ: " + shape_str(a.shape()) +
                                " vs " + shape_str(b.shape()));
  Shape shape = a.shape();
  shape[0] += b.size(0);
  Tensor out(std::move(shape));
  std::copy(a.data(), a.data() + a.numel(), out.data());
  std::copy(b.data(), b.data() + b.numel(), out.data() + a.numel());
  return out;
}

Tensor sum_rows(const Tensor& a) {
  check_matrix(a, "sum_rows");
  const std::size_t m = a.size(0), n = a.size(1);
  Tensor out({n});
  const float* A = a.data();
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) out[j] += A[i * n + j];
  return out;
}

Tensor sum_cols(const Tensor& a) {
  check_matrix(a, "sum_cols");
  const std::size_t m = a.size(0), n = a.size(1);
  Tensor out({m});
  const float* A = a.data();
  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += A[i * n + j];
    out[i] = static_cast<float>(acc);
  }
  return out;
}

std::vector<std::size_t> argmax_rows(const Tensor& a) {
  check_matrix(a, "argmax_rows");
  const std::size_t m = a.size(0), n = a.size(1);
  std::vector<std::size_t> idx(m, 0);
  const float* A = a.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = A + i * n;
    std::size_t best = 0;
    for (std::size_t j = 1; j < n; ++j)
      if (row[j] > row[best]) best = j;
    idx[i] = best;
  }
  return idx;
}

std::vector<std::vector<std::size_t>> topk_rows(const Tensor& a, std::size_t k) {
  check_matrix(a, "topk_rows");
  const std::size_t m = a.size(0), n = a.size(1);
  if (k > n) throw std::invalid_argument("topk_rows: k > columns");
  std::vector<std::vector<std::size_t>> out(m);
  const float* A = a.data();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = A + i * n;
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(k), order.end(),
                      [row](std::size_t x, std::size_t y) { return row[x] > row[y]; });
    out[i].assign(order.begin(), order.begin() + static_cast<long>(k));
  }
  return out;
}

Tensor softmax_rows(const Tensor& logits) {
  check_matrix(logits, "softmax_rows");
  const std::size_t m = logits.size(0), n = logits.size(1);
  Tensor out({m, n});
  const float* L = logits.data();
  float* O = out.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = L + i * n;
    float* orow = O + i * n;
    float mx = row[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      orow[j] = std::exp(row[j] - mx);
      denom += orow[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (std::size_t j = 0; j < n; ++j) orow[j] *= inv;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& logits) {
  check_matrix(logits, "log_softmax_rows");
  const std::size_t m = logits.size(0), n = logits.size(1);
  Tensor out({m, n});
  const float* L = logits.data();
  float* O = out.data();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = L + i * n;
    float* orow = O + i * n;
    float mx = row[0];
    for (std::size_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < n; ++j) denom += std::exp(row[j] - mx);
    const float lse = mx + static_cast<float>(std::log(denom));
    for (std::size_t j = 0; j < n; ++j) orow[j] = row[j] - lse;
  }
  return out;
}

Tensor l2_normalize_rows(const Tensor& a, Tensor* norms_out, float eps) {
  check_matrix(a, "l2_normalize_rows");
  const std::size_t m = a.size(0), n = a.size(1);
  Tensor out = a.clone();
  Tensor norms({m});
  float* O = out.data();
  for (std::size_t i = 0; i < m; ++i) {
    float* row = O + i * n;
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += static_cast<double>(row[j]) * row[j];
    const float nrm = static_cast<float>(std::sqrt(s));
    norms[i] = nrm;
    if (nrm > eps) {
      const float inv = 1.0f / nrm;
      for (std::size_t j = 0; j < n; ++j) row[j] *= inv;
    }
  }
  if (norms_out) *norms_out = norms;
  return out;
}

Tensor cosine_similarity(const Tensor& a, const Tensor& b, float eps) {
  Tensor an = l2_normalize_rows(a, nullptr, eps);
  Tensor bn = l2_normalize_rows(b, nullptr, eps);
  return matmul_nt(an, bn);
}

MeanStd mean_std(const std::vector<double>& xs) {
  MeanStd out;
  if (xs.empty()) return out;
  double s = 0.0;
  for (double x : xs) s += x;
  out.mean = s / static_cast<double>(xs.size());
  double v = 0.0;
  for (double x : xs) v += (x - out.mean) * (x - out.mean);
  out.stddev = std::sqrt(v / static_cast<double>(xs.size()));
  return out;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  float m = 0.0f;
  const float* A = a.data();
  const float* B = b.data();
  for (std::size_t i = 0; i < a.numel(); ++i) m = std::max(m, std::abs(A[i] - B[i]));
  return m;
}

}  // namespace hdczsc::tensor
