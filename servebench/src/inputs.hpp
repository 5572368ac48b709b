// Seeded serving artifacts: the trained synthetic-CUB model frozen as the
// two .hdcsnap artifacts the CUB workloads serve with their held-out query
// pools, and the 250k-class catalog artifact. Everything served is a pure
// function of one fixed artifact seed (inputs.cpp), so every run serves the
// same model; it is built once into a cache directory (a `done` marker is
// written last, so an interrupted build is redone).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace servebench {

/// The CUB workloads' artifacts and query pools.
struct CubInputs {
  std::string joint_path;   ///< 150 seen + 50 unseen, expansion 8, calibrated penalty
  std::string unseen_path;  ///< 50 unseen classes (the ZSC label space)
  /// Held-out embeddings [N, d] from both domains (images the model never
  /// trained on and the calibration split never saw), joint labels.
  hdczsc::tensor::Tensor joint_queries;
  std::vector<std::size_t> joint_labels;
  /// Unseen-class test images [M, 3, S, S] with unseen-space labels.
  hdczsc::tensor::Tensor unseen_images;
  std::vector<std::size_t> unseen_labels;
};

/// Train (or reuse) the synthetic-CUB model and its artifacts.
CubInputs ensure_cub_inputs(const std::string& cache_dir);

/// The catalog workload's clustered label space.
struct CatalogSpec {
  std::size_t classes = 250000;
  std::size_t dim = 64;        ///< d
  std::size_t alpha = 24;      ///< attribute width α
  std::size_t expansion = 4;   ///< D = expansion · d
  std::size_t shards = 4;
};

/// Build (or reuse) the catalog artifact, IVF index persisted; returns its
/// path.
std::string ensure_catalog_inputs(const std::string& cache_dir, const CatalogSpec& spec);

/// Attribute rows [n, α] in the catalog's distribution — the classes the
/// catalog workload appends over the wire. Each `stream` draws different
/// rows around the same cluster centers.
hdczsc::tensor::Tensor catalog_attribute_rows(std::size_t n, std::size_t alpha,
                                              std::uint64_t stream);

}  // namespace servebench
