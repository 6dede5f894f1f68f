#pragma once
/// \file back_bias.h
/// \brief Back-biasing model for UTBB FDSOI (28nm-class).
///
/// The paper (Sec. II-C) relies on two facts about 28nm UTBB FDSOI:
///   * the applicable back-bias (BB) range spans more than 2 V thanks
///     to the buried-oxide back-gate (vs ±300 mV for bulk body bias);
///   * the body factor (sensitivity of Vth to the BB voltage) is about
///     85 mV/V.
/// The methodology restricts runtime assignments to two states per
/// domain: NoBB (standard Vth, "SVT") and FBB (forward back-bias at
/// ±1.1 V on the wells, "LVT"), which keeps both the design-space
/// exploration and the on-die bias generation (two charge pumps plus
/// power switches) simple. This header models exactly that knob while
/// staying parametric in the underlying voltages.

#include <cstdint>
#include <string>

#include "util/check.h"

namespace adq::tech {

/// Per-domain bias-selection mask: bit d describes Vth domain d. This
/// is THE mask type of the whole stack — exploration points, runtime
/// knob settings, lint mode entries and the batched STA lanes all use
/// it — so its width is decided exactly once, here. 64 bits covers a
/// paper-realistic 6x6 grid (2^36 lattice points) and every grid the
/// guardband overhead would plausibly allow; `kMaxDomains` is the
/// single ceiling the rest of the code checks against.
using DomainMask = std::uint64_t;

inline constexpr int kMaxDomains = 64;

/// `1 << d` at DomainMask width. The shift is well-defined for every
/// d in [0, kMaxDomains); the DCHECK catches the out-of-range shifts
/// that were silent UB when masks were 32-bit.
inline DomainMask MaskBit(int d) {
  ADQ_DCHECK(d >= 0 && d < kMaxDomains);
  return DomainMask{1} << d;
}

/// All `ndom` low bits set. Unlike the naive `(1 << ndom) - 1`, this
/// is defined for ndom == kMaxDomains (the full-width mask).
inline DomainMask FullMask(int ndom) {
  ADQ_DCHECK(ndom >= 0 && ndom <= kMaxDomains);
  return ndom >= kMaxDomains ? ~DomainMask{0}
                             : (DomainMask{1} << ndom) - DomainMask{1};
}

/// Bit test at DomainMask width (DCHECKed shift).
inline bool MaskHas(DomainMask mask, int d) {
  ADQ_DCHECK(d >= 0 && d < kMaxDomains);
  return ((mask >> d) & DomainMask{1}) != 0;
}

/// Runtime back-bias state of one Vth domain.
/// NoBB = wells grounded, nominal (standard) threshold voltage.
/// FBB  = forward back-bias, threshold lowered -> faster and leakier.
/// These are the paper's two runtime states (Sec. III).
enum class BiasState { kNoBB = 0, kFBB = 1 };

inline constexpr int kNumBiasStates = 2;

/// Static parameters of the back-bias mechanism.
/// Defaults reproduce the paper's technology: 85 mV/V body factor and
/// a ±1.1 V FBB well voltage.
struct BackBiasParams {
  double body_factor_v_per_v = 0.085;  ///< dVth / dVBB [V/V]
  double fbb_well_voltage_v = 1.1;     ///< |VBB| applied in FBB state [V]
  /// Drive-current boost of forward back-bias beyond the pure Vth
  /// shift (mobility / DIBL / velocity effects). Measured FDSOI
  /// silicon shows FBB buys 30-40% speed at the nominal supply — more
  /// than the alpha-power law predicts from dVth alone (cf. the
  /// paper's ref [17], an FDSOI DSP with FBB fmax tracking). Delay of
  /// a NoBB cell is this factor times slower than the same cell under
  /// FBB at equal (VDD, Vth-shifted) conditions.
  double fbb_drive_factor = 1.25;

  /// Threshold-voltage shift produced by a bias state (<= 0 for FBB).
  double VthShift(BiasState s) const {
    return s == BiasState::kFBB ? -body_factor_v_per_v * fbb_well_voltage_v
                                : 0.0;
  }

  /// Multiplicative delay penalty of a state relative to FBB drive.
  double DrivePenalty(BiasState s) const {
    return s == BiasState::kFBB ? 1.0 : fbb_drive_factor;
  }
};

/// Nominal (NoBB) threshold voltage plus the bias mechanism; yields
/// the effective Vth for each bias state.
struct ThresholdModel {
  double vth0_v = 0.35;  ///< SVT threshold at NoBB, 28nm-class [V]
  BackBiasParams bb;

  double Vth(BiasState s) const {
    const double v = vth0_v + bb.VthShift(s);
    ADQ_DCHECK(v > 0.0);
    return v;
  }
};

}  // namespace adq::tech
