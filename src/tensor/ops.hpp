// Free-function tensor operations: elementwise arithmetic, GEMM variants,
// reductions, row-wise softmax / normalization, cosine-similarity matrices.
//
// Convention: matrices are row-major 2-D tensors [rows, cols]. All matmul
// variants route through the cache-blocked, runtime-ISA-dispatched kernel in
// tensor/gemm.hpp (packed panels, register-tiled micro-kernel, parallel over
// block tasks); tiny products fall back to a plain triple loop.
#pragma once

#include "tensor/tensor.hpp"

namespace hdczsc::tensor {

// -- elementwise -------------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);  ///< Hadamard product
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
/// Apply fn to every element (returns new tensor).
Tensor map(const Tensor& a, float (*fn)(float));

// -- GEMM family ---------------------------------------------------------------
/// C[m,n] = A[m,k] * B[k,n]
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[m,n] = A[k,m]^T * B[k,n]
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C[m,n] = A[m,k] * B[n,k]^T
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// y[m] = A[m,k] * x[k]
Tensor matvec(const Tensor& a, const Tensor& x);

/// Transpose a 2-D tensor.
Tensor transpose(const Tensor& a);

/// Stack b's rows under a's: the leading-dim concatenation [n_a + n_b, ...]
/// of two tensors whose trailing dims agree (throws std::invalid_argument
/// otherwise). Both inputs are copied verbatim, a's first.
Tensor concat_rows(const Tensor& a, const Tensor& b);

// -- reductions / row ops -----------------------------------------------------
/// Sum over rows -> [cols] (axis 0) of a 2-D tensor.
Tensor sum_rows(const Tensor& a);
/// Sum over cols -> [rows] (axis 1) of a 2-D tensor.
Tensor sum_cols(const Tensor& a);
/// Row-wise argmax of a 2-D tensor.
std::vector<std::size_t> argmax_rows(const Tensor& a);
/// Indices of the k largest entries of each row (descending score).
std::vector<std::vector<std::size_t>> topk_rows(const Tensor& a, std::size_t k);

/// Numerically stable row-wise softmax of logits [n, c].
Tensor softmax_rows(const Tensor& logits);
/// Row-wise log-softmax.
Tensor log_softmax_rows(const Tensor& logits);

/// L2-normalize each row; rows with norm < eps are left untouched.
/// If `norms_out` is non-null it receives the pre-normalization row norms [n].
Tensor l2_normalize_rows(const Tensor& a, Tensor* norms_out = nullptr, float eps = 1e-12f);

/// Cosine-similarity matrix between rows of A [n,d] and rows of B [m,d] -> [n,m].
Tensor cosine_similarity(const Tensor& a, const Tensor& b, float eps = 1e-12f);

/// Mean and (population) stddev of a sequence of scalars.
struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStd mean_std(const std::vector<double>& xs);

/// Max |a - b| over all elements (shapes must match).
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace hdczsc::tensor
