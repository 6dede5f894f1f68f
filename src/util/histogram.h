#pragma once
/// \file histogram.h
/// \brief Fixed-bin histogram used for endpoint-slack reporting
/// (reproduces the style of paper Fig. 1).

#include <string>
#include <vector>

namespace adq::util {

/// Uniform-bin histogram over [lo, hi). Samples outside the range are
/// clamped into the first/last bin so no data is silently dropped —
/// a deeply negative slack must still show up on the left edge.
class Histogram {
 public:
  /// \param lo    lower edge of the first bin
  /// \param hi    upper edge of the last bin (must exceed lo)
  /// \param bins  number of bins (>= 1)
  Histogram(double lo, double hi, int bins);

  void Add(double sample);

  int bins() const { return static_cast<int>(counts_.size()); }
  double bin_lo(int b) const;
  double bin_hi(int b) const;
  long count(int b) const;
  long total() const { return total_; }
  /// Sum of the raw samples (pre-clamping), so mean = sum/total is
  /// exact even when outliers were clamped into the edge bins.
  double sum() const { return sum_; }

  /// Index of the bin a sample would fall in (after clamping).
  int BinOf(double sample) const;

  /// Interpolated q-quantile (q in [0,1], clamped) of the *binned*
  /// distribution: linear within the bin where the cumulative count
  /// crosses q*total. Edge semantics, pinned by tests: an empty
  /// histogram returns bin_lo(0); q=0 returns the first non-empty
  /// bin's lower edge; q=1 the last non-empty bin's upper edge; and
  /// because out-of-range samples clamp into the edge bins, the
  /// result always lies inside [lo, hi].
  double Quantile(double q) const;

  /// Render as rows "lo..hi : count ####" suitable for terminal output.
  /// Bins entirely below `violation_mark` are flagged (the paper marks
  /// violating endpoints in red; we use a textual marker).
  std::string Render(double violation_mark, const std::string& label) const;

 private:
  double lo_, hi_, width_;
  std::vector<long> counts_;
  long total_ = 0;
  double sum_ = 0.0;
};

}  // namespace adq::util
