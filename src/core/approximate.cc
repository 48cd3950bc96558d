#include "core/approximate.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/timer.h"

namespace brep {

ApproximateBrePartition::ApproximateBrePartition(
    const BrePartition* exact, const ApproximateConfig& config)
    : exact_(exact), config_(config) {
  BREP_CHECK(exact_ != nullptr);
  BREP_CHECK_MSG(exact_->has_data(),
                 "the approximate extension samples raw data rows; build the "
                 "exact index from data (an Open()ed index has none)");
  BREP_CHECK(config_.probability > 0.0 && config_.probability <= 1.0);
  BREP_CHECK(config_.distribution_sample >= 10);
  Rng rng(config_.seed);
  const size_t n = exact_->data().rows();
  const size_t count = std::min(config_.distribution_sample, n);
  const auto rows = rng.SampleWithoutReplacement(n, count);
  sample_ids_.reserve(rows.size());
  for (size_t r : rows) sample_ids_.push_back(static_cast<uint32_t>(r));
}

std::vector<Neighbor> ApproximateBrePartition::KnnSearch(
    std::span<const double> y, size_t k, Stats* stats) const {
  const BregmanDivergence& div = exact_->divergence();
  BREP_CHECK(y.size() == div.dim());
  Stats local;
  Stats& st = stats != nullptr ? *stats : local;
  st = Stats{};

  Timer total_timer;
  const IoStats io_before = exact_->pager()->stats();
  // One pinned version serves the bound, the filter and the refinement.
  const BrePartition::ReadView view = exact_->OpenReadView();

  // Exact bound phase (identical to BrePartition::KnnSearch).
  Timer bound_timer;
  const auto y_subs = exact_->GatherQuery(y);
  const auto triples = exact_->TransformQueryAll(y_subs);
  const QueryBounds qb = QBDetermine(view.transformed(), triples, k);

  // Whole-space decomposition of the anchor's bound: kappa + mu.
  const size_t m = triples.size();
  double alpha_x = 0.0, gamma_x = 0.0;
  double alpha_y = 0.0, beta_yy = 0.0, delta_y = 0.0;
  for (size_t mi = 0; mi < m; ++mi) {
    const PointTuple& t = view.transformed().At(qb.anchor_id, mi);
    alpha_x += t.alpha;
    gamma_x += t.gamma;
    alpha_y += triples[mi].alpha;
    beta_yy += triples[mi].beta_yy;
    delta_y += triples[mi].delta;
  }
  const double kappa = alpha_x + alpha_y + beta_yy;
  const double mu = std::sqrt(gamma_x * delta_y);

  // Empirical distribution of beta_xy = -<x, grad f(y)> over the sample.
  std::vector<double> grad(div.dim());
  div.Gradient(y, std::span<double>(grad));
  const Matrix& data = exact_->data();
  std::vector<double> betas;
  betas.reserve(sample_ids_.size());
  for (uint32_t id : sample_ids_) {
    const auto x = data.Row(id);
    double b = 0.0;
    for (size_t j = 0; j < x.size(); ++j) b -= x[j] * grad[j];
    betas.push_back(b);
  }
  const Histogram psi(betas, config_.histogram_bins);

  // Proposition 1: c = Psi^{-1}(p Psi(mu) + (1-p) Psi(-kappa)) / mu.
  double c = 1.0;
  if (mu > 0.0) {
    const double target = config_.probability * psi.Cdf(mu) +
                          (1.0 - config_.probability) * psi.Cdf(-kappa);
    c = psi.InverseCdf(target) / mu;
  }
  c = std::clamp(c, 1e-3, 1.0);

  // Every partition's exact bound is scaled by the coefficient.
  std::vector<double> radii(qb.radii);
  for (double& r : radii) r *= c;
  st.radius_total = qb.total * c;
  st.bound_ms = bound_timer.ElapsedMillis();

  auto result = exact_->FilterAndRefineOn(view, y, y_subs, radii, k,
                                          /*pool=*/nullptr, &st);

  st.io_reads = (exact_->pager()->stats() - io_before).reads;
  st.queries = 1;
  st.wall_ms = total_timer.ElapsedMillis();
  return result;
}

double OverallRatio(std::span<const Neighbor> approx,
                    std::span<const Neighbor> exact) {
  BREP_CHECK(!exact.empty());
  BREP_CHECK(approx.size() == exact.size());
  constexpr double kEps = 1e-12;
  double acc = 0.0;
  for (size_t i = 0; i < exact.size(); ++i) {
    const double num = approx[i].distance;
    const double den = exact[i].distance;
    acc += den <= kEps ? (num <= kEps ? 1.0 : (num + kEps) / kEps)
                       : num / den;
  }
  return acc / static_cast<double>(exact.size());
}

}  // namespace brep
