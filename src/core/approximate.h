#ifndef BREP_CORE_APPROXIMATE_H_
#define BREP_CORE_APPROXIMATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/top_k.h"
#include "core/brepartition.h"
#include "core/stats.h"

namespace brep {

/// Configuration of the approximate extension (paper Section 8).
struct ApproximateConfig {
  /// Probability guarantee p: each returned point is an exact kNN point
  /// with probability >= p (under the fitted distribution model).
  double probability = 0.9;
  /// Data points sampled to estimate the distribution Psi of beta_xy.
  size_t distribution_sample = 500;
  /// Bins of the empirical histogram for Psi.
  size_t histogram_bins = 64;
  uint64_t seed = 12345;
};

/// "ABP": BrePartition's approximate kNN search with a probability
/// guarantee (Proposition 1).
///
/// The exact searching bound decomposes as kappa + mu, where mu is the
/// Cauchy-Schwarz relaxation of the cross term beta_xy. Knowing the
/// distribution Psi of beta_xy (estimated per query from a fixed point
/// sample via an equi-width histogram, as the paper suggests), the slack is
/// tightened to c * mu with
///
///   c = Psi^{-1}( p * Psi(mu) + (1 - p) * Psi(-kappa) ) / mu,
///
/// and every partition's exact radius is scaled by c before the filter step.
/// Smaller p => smaller c => fewer candidates => faster, less accurate.
class ApproximateBrePartition {
 public:
  /// `exact` must outlive this object.
  ApproximateBrePartition(const BrePartition* exact,
                          const ApproximateConfig& config);

  /// Approximate kNN with probability guarantee config().probability.
  std::vector<Neighbor> KnnSearch(std::span<const double> y, size_t k,
                                  Stats* stats = nullptr) const;

  const ApproximateConfig& config() const { return config_; }

 private:
  const BrePartition* exact_;
  ApproximateConfig config_;
  std::vector<uint32_t> sample_ids_;
};

/// The evaluation's accuracy metric (Section 9.8):
///   OR = (1/k) * sum_i D(p_i, q) / D(p*_i, q),
/// where p_i is the i-th returned point and p*_i the true i-th NN. Both
/// vectors must be sorted ascending and equally sized; OR >= 1, and 1 means
/// exact. Zero-distance pairs are treated as ratio 1.
double OverallRatio(std::span<const Neighbor> approx,
                    std::span<const Neighbor> exact);

}  // namespace brep

#endif  // BREP_CORE_APPROXIMATE_H_
