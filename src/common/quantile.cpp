#include "analognf/common/quantile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace analognf {

P2Quantile::P2Quantile(double q) : q_(q) {
  if (!(q > 0.0) || !(q < 1.0)) {
    throw std::invalid_argument("P2Quantile: q must be in (0, 1)");
  }
  desired_increment_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
}

void P2Quantile::Add(double x) {
  if (count_ < 5) {
    heights_[count_] = x;
    ++count_;
    if (count_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (int i = 0; i < 5; ++i) {
        positions_[static_cast<std::size_t>(i)] = i + 1;
      }
      desired_ = {1.0, 1.0 + 2.0 * q_, 1.0 + 4.0 * q_, 3.0 + 2.0 * q_, 5.0};
    }
    return;
  }

  // Locate the cell containing x and clamp the extreme markers.
  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[static_cast<std::size_t>(k + 1)]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) {
    positions_[static_cast<std::size_t>(i)] += 1.0;
  }
  for (int i = 0; i < 5; ++i) {
    desired_[static_cast<std::size_t>(i)] +=
        desired_increment_[static_cast<std::size_t>(i)];
  }

  // Adjust the three interior markers.
  for (int i = 1; i <= 3; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const double diff = desired_[idx] - positions_[idx];
    const double ahead = positions_[idx + 1] - positions_[idx];
    const double behind = positions_[idx - 1] - positions_[idx];
    if ((diff >= 1.0 && ahead > 1.0) || (diff <= -1.0 && behind < -1.0)) {
      const double d = diff >= 1.0 ? 1.0 : -1.0;
      double candidate = Parabolic(i, d);
      if (heights_[idx - 1] < candidate && candidate < heights_[idx + 1]) {
        heights_[idx] = candidate;
      } else {
        heights_[idx] = Linear(i, d);
      }
      positions_[idx] += d;
    }
  }
  ++count_;
}

double P2Quantile::Parabolic(int i, double d) const {
  const auto idx = static_cast<std::size_t>(i);
  const double qp = heights_[idx + 1];
  const double qc = heights_[idx];
  const double qm = heights_[idx - 1];
  const double np = positions_[idx + 1];
  const double nc = positions_[idx];
  const double nm = positions_[idx - 1];
  return qc + d / (np - nm) *
                  ((nc - nm + d) * (qp - qc) / (np - nc) +
                   (np - nc - d) * (qc - qm) / (nc - nm));
}

double P2Quantile::Linear(int i, double d) const {
  const auto idx = static_cast<std::size_t>(i);
  const auto j = static_cast<std::size_t>(i + static_cast<int>(d));
  return heights_[idx] + d * (heights_[j] - heights_[idx]) /
                             (positions_[j] - positions_[idx]);
}

double P2Quantile::Value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact small-sample quantile from the sorted prefix.
    std::array<double, 5> sorted = heights_;
    std::sort(sorted.begin(), sorted.begin() + static_cast<long>(count_));
    const double pos = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, static_cast<std::size_t>(count_ - 1));
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  return heights_[2];
}

}  // namespace analognf
