#pragma once

/// \file backoff.hpp
/// Shared retry-backoff policy used by every retry loop in the tree
/// (UserWorkload's closed and open loops, inter-service calls).  Two modes:
///
///  - schedule mode: an explicit per-attempt delay table (the paper's
///    slapd-style 3/6/12/... ladder); attempts past the end reuse the
///    last entry.
///  - exponential mode (empty schedule): base * growth^k capped at `cap`.
///    growth == 1.0 reproduces the legacy "empty schedule -> constant 1 s"
///    fallback exactly.
///
/// Jitter multiplies the raw delay by uniform(1-jitter, 1+jitter) drawn
/// from the caller's forked sim::Rng, consuming exactly one draw per
/// delay so existing seed-determinism goldens are unaffected when the
/// parameters match the legacy inline arithmetic.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "gridmon/sim/rng.hpp"

namespace gridmon::resilience {

struct BackoffPolicy {
  std::vector<double> schedule;  // per-attempt delays; empty -> exponential
  double base = 1.0;             // exponential mode: first delay
  double growth = 1.0;           // exponential mode: multiplier per retry
  double cap = 120.0;            // exponential mode: delay ceiling
  double jitter = 0.02;          // +/- fraction applied multiplicatively

  /// Raw (unjittered) delay before the k-th retry (k counts from 0).
  double raw_delay(std::size_t k) const {
    if (!schedule.empty()) {
      return schedule[std::min(k, schedule.size() - 1)];
    }
    double d = base;
    for (std::size_t i = 0; i < k; ++i) {
      d *= growth;
      if (d >= cap) return cap;
    }
    return std::min(d, cap);
  }

  /// Jittered delay before the k-th retry.  Always consumes exactly one
  /// uniform draw from `rng` (even at jitter == 0), mirroring the legacy
  /// inline `delay *= uniform(...)` so RNG streams stay aligned.
  double delay(std::size_t k, sim::Rng& rng) const {
    return raw_delay(k) * rng.uniform(1.0 - jitter, 1.0 + jitter);
  }
};

}  // namespace gridmon::resilience
