#pragma once
/// \file error_metrics.h
/// \brief Output-quality metrics for accuracy modes.
///
/// The paper treats accuracy abstractly as the active bitwidth; these
/// helpers quantify what a mode costs in application terms (mean/max
/// error, SNR) so the examples can show the full energy-vs-quality
/// picture that motivates adequate computing.

#include <cstdint>
#include <vector>

namespace adq::core {

struct ErrorStats {
  double mean_abs = 0.0;     ///< mean absolute error (MED)
  double mean_sq = 0.0;      ///< mean squared error
  double max_abs = 0.0;      ///< worst-case absolute error
  double snr_db = 0.0;       ///< 10*log10(signal power / error power)
  std::size_t samples = 0;
};

/// Compares a degraded stream against a reference stream.
ErrorStats CompareStreams(const std::vector<double>& reference,
                          const std::vector<double>& degraded);

/// Analytic mean absolute error of zeroing `z` LSBs of a uniformly
/// distributed operand: E|e| = (2^z - 1) / 2 per operand.
double ExpectedTruncationError(int zeroed_lsbs);

/// Closed-form worst-case absolute error of a W x W two's-complement
/// multiplier with `z` zeroed LSBs per operand:
///   max |a*b - trunc(a)*trunc(b)| = 2^W * (2^z - 1)
///                                 = 2^(W+1) * ExpectedTruncationError(z).
/// Exactly representable in double for every shipped width. The
/// per-mode soundness matrix (tests/test_mode_soundness.cpp) checks
/// the Booth and array multipliers' simulated error against it.
double MultTruncationErrorBound(int width, int zeroed_lsbs);

}  // namespace adq::core
