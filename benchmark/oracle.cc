// The benchmark's correctness oracle: closed-form divergences over the
// live-point record the benchmark keeps itself, never the index's code.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"

namespace bench {

namespace {

constexpr double kRelTol = 1e-9;
/// Margin of the cached truth beyond the k-th distance: wide enough that a
/// range radius taken from the index's own k-th distance (within kRelTol of
/// the oracle's) never reaches past it.
constexpr double kTruthMargin = 1e-6;

bool Close(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max(std::fabs(a), std::fabs(b));
}

std::string Fmt(const char* format, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

}  // namespace

double OracleDivergence(Kind kind, std::span<const double> x,
                        std::span<const double> y) {
  double sum = 0.0;
  if (kind == Kind::kItakuraSaito) {
    for (size_t j = 0; j < x.size(); ++j) {
      const double r = x[j] / y[j];
      sum += r - std::log(r) - 1.0;
    }
  } else {
    for (size_t j = 0; j < x.size(); ++j) {
      const double diff = x[j] - y[j];
      sum += diff * diff;
    }
  }
  return sum;
}

void LiveSet::Insert(uint32_t id, std::span<const double> x) {
  if (id >= alive_.size()) {
    alive_.resize(size_t(id) + 1, 0);
    rows_.resize(alive_.size() * d_, 0.0);
  }
  std::copy(x.begin(), x.end(), rows_.begin() + size_t(id) * d_);
  if (kind_ == Kind::kItakuraSaito) {
    logs_.resize(rows_.size(), 0.0);
    for (size_t j = 0; j < d_; ++j) logs_[size_t(id) * d_ + j] = std::log(x[j]);
  }
  if (alive_[id] == 0) ++live_;
  alive_[id] = 1;
  ++version_;
}

void LiveSet::Erase(uint32_t id) {
  if (Contains(id)) {
    alive_[id] = 0;
    --live_;
  }
  ++version_;
}

std::vector<uint32_t> LiveSet::Ids() const {
  std::vector<uint32_t> ids;
  ids.reserve(live_);
  for (uint32_t id = 0; id < alive_.size(); ++id) {
    if (alive_[id] != 0) ids.push_back(id);
  }
  return ids;
}

Matrix LiveSet::Rows() const {
  const std::vector<uint32_t> ids = Ids();
  Matrix m(ids.size(), d_);
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto src = Point(ids[i]);
    std::copy(src.begin(), src.end(), m.MutableRow(i).begin());
  }
  return m;
}

std::vector<Neighbor> Oracle::Within(std::span<const double> q,
                                     double radius) const {
  std::vector<Neighbor> out;
  for (uint32_t id : live_.Ids()) {
    const double dist = live_.Distance(id, q);
    if (dist <= radius) out.push_back({dist, id});
  }
  std::sort(out.begin(), out.end());
  return out;
}

const Oracle::Truth& Oracle::TruthFor(std::span<const double> q, size_t k) {
  Truth& t = cache_[q.data()];
  if (t.version == live_.version() && t.k == k && !t.top.empty() &&
      std::equal(q.begin(), q.end(), t.query.begin(), t.query.end())) {
    return t;
  }
  // Select with a fast equivalent of the closed form (Itakura-Saito as
  // sum x * (1/y) - (log x - log y) - 1 over cached logs), then give the
  // survivors their closed-form distances. The forms differ by rounding
  // only, far inside kTruthMargin.
  const size_t d = live_.dim();
  std::vector<double> inv_y(d), log_y(d);
  for (size_t j = 0; j < d; ++j) {
    inv_y[j] = 1.0 / q[j];
    log_y[j] = std::log(q[j]);
  }
  std::vector<Neighbor> all;
  all.reserve(live_.size());
  for (uint32_t id : live_.Ids()) {
    const std::span<const double> x = live_.Point(id);
    double sum = 0.0;
    if (live_.kind() == Kind::kItakuraSaito) {
      const std::span<const double> log_x = live_.LogPoint(id);
      for (size_t j = 0; j < d; ++j) {
        sum += x[j] * inv_y[j] - (log_x[j] - log_y[j]) - 1.0;
      }
    } else {
      sum = OracleDivergence(Kind::kSquaredL2, x, q);
    }
    all.push_back({sum, id});
  }
  const size_t kk = std::min(k, all.size());
  std::nth_element(all.begin(), all.begin() + (kk - 1), all.end());
  t.cutoff = all[kk - 1].distance * (1.0 + kTruthMargin);
  t.top.clear();
  for (const Neighbor& nb : all) {
    if (nb.distance <= t.cutoff) {
      t.top.push_back({live_.Distance(nb.id, q), nb.id});
    }
  }
  std::sort(t.top.begin(), t.top.end());
  t.query.assign(q.begin(), q.end());
  t.version = live_.version();
  t.k = k;
  return t;
}

bool Oracle::CheckKnn(std::span<const double> q, size_t k,
                      const std::vector<Neighbor>& got, std::string* why) {
  const size_t want = std::min(k, live_.size());
  if (got.size() != want) {
    *why = "knn returned " + std::to_string(got.size()) + " results, want " +
           std::to_string(want);
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && !(got[i - 1] < got[i])) {
      *why = "knn results not strictly sorted by (distance, id)";
      return false;
    }
    if (!live_.Contains(got[i].id)) {
      *why = "knn returned id " + std::to_string(got[i].id) +
             ", which is not live";
      return false;
    }
    const double exact = live_.Distance(got[i].id, q);
    if (!Close(got[i].distance, exact)) {
      *why = Fmt("knn distance %.17g differs from closed form %.17g",
                 got[i].distance, exact);
      return false;
    }
  }
  if (want == 0) return true;
  const Truth& t = TruthFor(q, want);
  const double kth = t.top[want - 1].distance;
  // Ids must match up to ties at the k-th distance: everything strictly
  // inside it is returned, and nothing returned lies beyond it.
  for (const Neighbor& nb : t.top) {
    if (nb.distance >= kth * (1.0 - kRelTol)) break;
    const bool found = std::any_of(got.begin(), got.end(),
                                   [&](const Neighbor& g) {
                                     return g.id == nb.id;
                                   });
    if (!found) {
      *why = "knn missed id " + std::to_string(nb.id) +
             Fmt(" at distance %.17g (k-th is %.17g)", nb.distance, kth);
      return false;
    }
  }
  for (const Neighbor& g : got) {
    if (live_.Distance(g.id, q) > kth * (1.0 + kRelTol)) {
      *why = "knn returned id " + std::to_string(g.id) +
             " beyond the true k-th distance";
      return false;
    }
  }
  return true;
}

double Oracle::KthDistance(std::span<const double> q, size_t k) {
  return TruthFor(q, k).top[k - 1].distance;
}

bool Oracle::CheckRange(std::span<const double> q, double radius,
                        const std::vector<uint32_t>& got, std::string* why) {
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0 && !(got[i - 1] < got[i])) {
      *why = "range ids not strictly ascending";
      return false;
    }
    if (!live_.Contains(got[i])) {
      *why = "range returned id " + std::to_string(got[i]) +
             ", which is not live";
      return false;
    }
    if (live_.Distance(got[i], q) > radius * (1.0 + kRelTol)) {
      *why = "range returned id " + std::to_string(got[i]) +
             " beyond the radius";
      return false;
    }
  }
  // The cached truth holds every point within its cutoff; a wider radius
  // takes a fresh pass.
  const double reach = radius * (1.0 - kRelTol);
  std::vector<Neighbor> fresh;
  const std::vector<Neighbor>* inside = nullptr;
  auto it = cache_.find(q.data());
  if (it != cache_.end() && it->second.version == live_.version() &&
      reach <= it->second.cutoff &&
      std::equal(q.begin(), q.end(), it->second.query.begin(),
                 it->second.query.end())) {
    inside = &it->second.top;
  } else {
    fresh = Within(q, reach);
    inside = &fresh;
  }
  for (const Neighbor& nb : *inside) {
    if (nb.distance > reach) break;
    if (!std::binary_search(got.begin(), got.end(), nb.id)) {
      *why = "range missed id " + std::to_string(nb.id) +
             Fmt(" at distance %.17g (radius %.17g)", nb.distance, radius);
      return false;
    }
  }
  return true;
}

}  // namespace bench
