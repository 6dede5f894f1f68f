#include "analysis/analysis.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "lint/rules.h"
#include "sim/logic_sim.h"

namespace adq::analysis {
namespace {

// ---------------------------------------------------------------------------
// Small word helpers (Wide variants of util/fixed_point.h).

Wide ToSignedW(Wide raw, int bits) {
  ADQ_CHECK(raw >= 0 && raw < Pow2(bits));
  return raw >= Pow2(bits - 1) ? raw - Pow2(bits) : raw;
}

/// Two's-complement raw bits of a signed value, for sim::LogicSim
/// SetBus (which takes a uint64, so bits <= 64).
std::uint64_t RawOf(Wide v, int bits) {
  ADQ_CHECK(bits <= 64);
  const Wide m = Pow2(bits);
  Wide r = v % m;
  if (r < 0) r += m;
  return static_cast<std::uint64_t>(r);
}

/// Value of a signed operand after its z LSBs are forced to zero —
/// clearing low bits of the two's-complement word truncates toward
/// minus infinity.
Wide MaskLow(Wide v, int z) {
  return MulChecked(FloorShiftRight(v, z), Pow2(z));
}

/// Reads a bus of any width as a signed value, bit by bit (ReadBus
/// itself is capped at 64 bits; the MAC/FIR accumulator is 2W+8).
Wide ReadBusSigned(const sim::LogicSim& s, const netlist::Bus& bus) {
  Wide raw = 0;
  for (int i = bus.width() - 1; i >= 0; --i)
    raw = (raw << 1) | static_cast<Wide>(s.Value(bus.bits[i]) ? 1 : 0);
  return ToSignedW(raw, bus.width());
}

// ---------------------------------------------------------------------------
// Deterministic probe stimulus for template validation. Three
// sequences: 0 = LCG random at full precision, 1 = corner cycling
// (extremes exercise the butterfly's output wrap), 2 = LCG random
// with half the LSBs masked (exercises the truncated-operand space).

class ProbeStim {
 public:
  ProbeStim(int width, int seq)
      : w_(width),
        seq_(seq),
        st_(0x9e3779b97f4a7c15ULL + 0x1000ULL * static_cast<unsigned>(seq) +
            static_cast<unsigned>(width)) {}

  Wide Next() {
    const Wide h = Pow2(w_ - 1);
    if (seq_ == 1) {
      const Wide corners[6] = {-h, -h + 1, -1, 0, 1, h - 1};
      return corners[n_++ % 6];
    }
    st_ = st_ * 6364136223846793005ULL + 1442695040888963407ULL;
    Wide v = ToSignedW(static_cast<Wide>(st_ >> (64 - w_)), w_);
    if (seq_ == 2) v = MaskLow(v, w_ / 2);
    return v;
  }

 private:
  int w_;
  int seq_;
  std::uint64_t st_;
  std::size_t n_ = 0;
};

constexpr int kProbeSeqs = 3;
constexpr int kProbeSteps = 24;

// ---------------------------------------------------------------------------
// Word models. Each mirrors the generator's register discipline:
// input DFFs and output DFFs mean a combinational operator's visible
// output after tick t is F(inputs of step t-1); the MAC/FIR output
// register captures the same gated accumulator sum the state
// register does, so the visible bus tracks the accumulator with no
// extra cycle of lag.

struct ButterflyWords {
  Wide xr, xi, yr, yi;
};

/// Exact word semantics of gen::BuildButterflyOperator's datapath,
/// including the 2W+2-bit modular sum and the W+2-bit output slice
/// (which *can* wrap for operands outside the Q-format contract).
ButterflyWords ButterflyModel(int width, Wide ar, Wide ai, Wide br, Wide bi,
                              Wide wr, Wide wi) {
  const int pw = 2 * width + 2, ow = width + 2, shift = width - 1;
  const Wide s1 = br + bi, s2 = wi - wr, s3 = wr + wi;
  const Wide k1 = MulChecked(s1, wr);
  const Wide k2 = MulChecked(s2, br);
  const Wide k3 = MulChecked(s3, bi);
  const auto fuse = [&](Wide addend, Wide t1, Wide t2) {
    const Wide sum = WrapSigned(MulChecked(addend, Pow2(shift)) + t1 + t2, pw);
    return WrapSigned(FloorShiftRight(sum, shift), ow);
  };
  return {fuse(ar, k1, -k3), fuse(ai, k1, k2), fuse(ar, -k1, k3),
          fuse(ai, -k1, -k2)};
}

bool ValidateMult(const gen::Operator& op) {
  const int w = op.spec.data_width;
  const netlist::Bus& a = op.nl.InputBus("a");
  const netlist::Bus& b = op.nl.InputBus("b");
  const netlist::Bus& p = op.nl.OutputBus("p");
  sim::LogicSim s(op.nl);
  for (int seq = 0; seq < kProbeSeqs; ++seq) {
    s.Reset();
    ProbeStim st(w, seq);
    Wide ra = 0, rb = 0;
    for (int step = 0; step < kProbeSteps; ++step) {
      const Wide va = st.Next(), vb = st.Next();
      s.SetBus(a, RawOf(va, w));
      s.SetBus(b, RawOf(vb, w));
      s.Settle();
      s.Tick();
      if (ReadBusSigned(s, p) != MulChecked(ra, rb)) return false;
      ra = va;
      rb = vb;
    }
  }
  return true;
}

bool ValidateButterfly(const gen::Operator& op) {
  const int w = op.spec.data_width;
  const char* in_names[6] = {"ar", "ai", "br", "bi", "wr", "wi"};
  const char* out_names[4] = {"xr", "xi", "yr", "yi"};
  std::array<const netlist::Bus*, 6> in{};
  std::array<const netlist::Bus*, 4> out{};
  for (int i = 0; i < 6; ++i) in[i] = &op.nl.InputBus(in_names[i]);
  for (int i = 0; i < 4; ++i) out[i] = &op.nl.OutputBus(out_names[i]);
  sim::LogicSim s(op.nl);
  for (int seq = 0; seq < kProbeSeqs; ++seq) {
    s.Reset();
    ProbeStim st(w, seq);
    std::array<Wide, 6> reg{};
    for (int step = 0; step < kProbeSteps; ++step) {
      std::array<Wide, 6> v{};
      for (int i = 0; i < 6; ++i) {
        v[i] = st.Next();
        s.SetBus(*in[i], RawOf(v[i], w));
      }
      s.Settle();
      s.Tick();
      const ButterflyWords exp =
          ButterflyModel(w, reg[0], reg[1], reg[2], reg[3], reg[4], reg[5]);
      if (ReadBusSigned(s, *out[0]) != exp.xr ||
          ReadBusSigned(s, *out[1]) != exp.xi ||
          ReadBusSigned(s, *out[2]) != exp.yr ||
          ReadBusSigned(s, *out[3]) != exp.yi)
        return false;
      reg = v;
    }
  }
  return true;
}

/// MAC and the folded FIR share one accumulator model: `taps`
/// products per cycle into a 2W+8-bit register with synchronous
/// clear, the output bus one register behind the accumulator.
bool ValidateAccumulator(const gen::Operator& op, int taps) {
  const int w = op.spec.data_width;
  const int aw = 2 * w + 8;
  const int frame = op.spec.accumulation_cycles;
  if (frame <= 0) return false;
  std::vector<const netlist::Bus*> xs, cs;
  if (taps == 1) {
    xs = {&op.nl.InputBus("a")};
    cs = {&op.nl.InputBus("b")};
  } else {
    for (int i = 0; i < taps; ++i) {
      xs.push_back(&op.nl.InputBus("x" + std::to_string(i)));
      cs.push_back(&op.nl.InputBus("c" + std::to_string(i)));
    }
  }
  const netlist::Bus& clr = op.nl.InputBus("clr");
  const netlist::Bus& y = op.nl.OutputBus(taps == 1 ? "acc" : "y");
  sim::LogicSim s(op.nl);
  for (int seq = 0; seq < kProbeSeqs; ++seq) {
    s.Reset();
    ProbeStim st(w, seq);
    std::vector<Wide> rx(taps, 0), rc(taps, 0);
    std::vector<Wide> vx(taps, 0), vc(taps, 0);
    bool rclr = false;
    Wide acc = 0;
    for (int step = 0; step < kProbeSteps; ++step) {
      const bool vclr = (step % frame) == 0;
      for (int i = 0; i < taps; ++i) {
        vx[i] = st.Next();
        vc[i] = st.Next();
        s.SetBus(*xs[i], RawOf(vx[i], w));
        s.SetBus(*cs[i], RawOf(vc[i], w));
      }
      s.SetBus(clr, vclr ? 1 : 0);
      s.Settle();
      s.Tick();
      // The output register captures the same gated sum the state
      // register does, so the visible bus already holds this edge's
      // accumulation result (computed from the pre-edge input regs).
      Wide inc = 0;
      for (int i = 0; i < taps; ++i) inc += MulChecked(rx[i], rc[i]);
      acc = rclr ? 0 : WrapSigned(acc + inc, aw);
      if (ReadBusSigned(s, y) != acc) return false;
      rx = vx;
      rc = vc;
      rclr = vclr;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// AccuracyAnalyzer

AccuracyAnalyzer::AccuracyAnalyzer(const gen::Operator& op) : op_(op) {
  const Model m = DetectModel();
  model_ = (m != Model::kGeneric && ValidateModel(m)) ? m : Model::kGeneric;
}

const char* AccuracyAnalyzer::model_name() const {
  switch (model_) {
    case Model::kMult: return "mult";
    case Model::kMac: return "mac";
    case Model::kFir: return "fir";
    case Model::kButterfly: return "butterfly";
    case Model::kGeneric: break;
  }
  return "generic";
}

AccuracyAnalyzer::Model AccuracyAnalyzer::DetectModel() const {
  const gen::OperatorSpec& sp = op_.spec;
  const int w = sp.data_width;
  // Probe validation drives W-bit buses through LogicSim::SetBus
  // (uint64) and the envelopes need product headroom in 128 bits.
  if (w < 2 || w > 56) return Model::kGeneric;
  const auto in_bus = [&](const std::string& n) -> const netlist::Bus* {
    for (const netlist::Bus& b : op_.nl.input_buses())
      if (b.name == n) return &b;
    return nullptr;
  };
  const auto out_bus = [&](const std::string& n) -> const netlist::Bus* {
    for (const netlist::Bus& b : op_.nl.output_buses())
      if (b.name == n) return &b;
    return nullptr;
  };
  const auto in_w = [&](const std::string& n, int width) {
    const netlist::Bus* b = in_bus(n);
    return b != nullptr && b->width() == width;
  };
  const auto out_w = [&](const std::string& n, int width) {
    const netlist::Bus* b = out_bus(n);
    return b != nullptr && b->width() == width;
  };
  std::vector<std::string> scal = sp.scalable_buses;
  std::sort(scal.begin(), scal.end());
  const auto scal_is = [&](std::vector<std::string> want) {
    std::sort(want.begin(), want.end());
    return scal == want;
  };

  if (sp.accumulation_cycles == 0 && in_w("a", w) && in_w("b", w) &&
      in_bus("clr") == nullptr && out_w("p", 2 * w) && scal_is({"a", "b"}))
    return Model::kMult;

  if (sp.accumulation_cycles > 0 && in_w("a", w) && in_w("b", w) &&
      in_w("clr", 1) && out_w("acc", 2 * w + 8) && scal_is({"a", "b"}))
    return Model::kMac;

  bool fir_ins = in_w("clr", 1);
  std::vector<std::string> fir_scal;
  for (int i = 0; i < gen::kFirMacsPerCycle; ++i) {
    fir_ins = fir_ins && in_w("x" + std::to_string(i), w) &&
              in_w("c" + std::to_string(i), w);
    fir_scal.push_back("x" + std::to_string(i));
    fir_scal.push_back("c" + std::to_string(i));
  }
  if (sp.accumulation_cycles > 0 && fir_ins && out_w("y", 2 * w + 8) &&
      scal_is(fir_scal))
    return Model::kFir;

  if (sp.accumulation_cycles == 0 && in_w("ar", w) && in_w("ai", w) &&
      in_w("br", w) && in_w("bi", w) && in_w("wr", w) && in_w("wi", w) &&
      out_w("xr", w + 2) && out_w("xi", w + 2) && out_w("yr", w + 2) &&
      out_w("yi", w + 2) && scal_is({"br", "bi", "wr", "wi"}))
    return Model::kButterfly;

  return Model::kGeneric;
}

bool AccuracyAnalyzer::ValidateModel(Model m) const {
  switch (m) {
    case Model::kMult: return ValidateMult(op_);
    case Model::kMac: return ValidateAccumulator(op_, 1);
    case Model::kFir: return ValidateAccumulator(op_, gen::kFirMacsPerCycle);
    case Model::kButterfly: return ValidateButterfly(op_);
    case Model::kGeneric: break;
  }
  return false;
}

std::vector<AccuracyAnalyzer::BusErr> AccuracyAnalyzer::BusBoundsFor(
    int zeroed) const {
  const int w = op_.spec.data_width;
  ADQ_CHECK(zeroed >= 0 && zeroed < w);
  const Wide h = Pow2(w - 1);
  // One scalable operand with z zeroed LSBs: the truncation error
  // e = v - v_masked lies in [0, 2^z - 1]; the operand itself in
  // [-H, H-1]; the masked operand in [-H, H - 2^z].
  const Interval ve{0, Pow2(zeroed) - 1};
  const Interval vf{-h, h - 1};
  const Interval vd{-h, h - Pow2(zeroed)};
  // a*b - a_d*b_d = e_a*b + a_d*e_b: the product-error envelope whose
  // max-abs is exactly 2^W (2^z - 1) = 2^(W+1) ExpectedTruncationError.
  const Interval emul = Interval::Mul(ve, vf) + Interval::Mul(vd, ve);

  if (zeroed == 0) {
    // Degraded run is the exact run; every envelope collapses.
    std::vector<BusErr> zeros;
    for (const netlist::Bus& b : op_.nl.output_buses())
      zeros.push_back({b.name, b.width(), 0});
    return zeros;
  }

  switch (model_) {
    case Model::kMult:
      return {{"p", 2 * w, emul.MaxAbs()}};

    case Model::kMac:
    case Model::kFir: {
      const int aw = 2 * w + 8;
      const int taps = model_ == Model::kFir ? gen::kFirMacsPerCycle : 1;
      const Wide frames = op_.spec.accumulation_cycles;
      // Value envelope of the accumulator over a frame: if it fits the
      // register, accumulation is wrap-free and errors add linearly.
      const Interval vacc =
          Interval::Mul(vf, vf).ScaleN(taps).ScaleN(frames);
      Wide bound;
      if (vacc.FitsSigned(aw)) {
        bound = emul.ScaleN(taps).ScaleN(frames).MaxAbs();
      } else {
        bound = Pow2(aw) - 1;  // sound cap: two aw-bit signed values
      }
      return {{model_ == Model::kFir ? "y" : "acc", aw, bound}};
    }

    case Model::kButterfly: {
      const int ow = w + 2, pw = 2 * w + 2, shift = w - 1;
      // Pre-adders.
      const Interval es1 = ve + ve, es2 = ve - ve, es3 = ve + ve;
      const Interval vds1 = vd + vd, vds2 = vd - vd, vds3 = vd + vd;
      const Interval vs1 = vf + vf, vs2 = vf - vf, vs3 = vf + vf;
      // Karatsuba-style products k1 = s1*wr, k2 = s2*br, k3 = s3*bi.
      const Interval ek1 = Interval::Mul(es1, vf) + Interval::Mul(vds1, ve);
      const Interval ek2 = Interval::Mul(es2, vf) + Interval::Mul(vds2, ve);
      const Interval ek3 = Interval::Mul(es3, vf) + Interval::Mul(vds3, ve);
      const Interval vk1 = Interval::Mul(vs1, vf);
      const Interval vk2 = Interval::Mul(vs2, vf);
      const Interval vk3 = Interval::Mul(vs3, vf);
      const Interval vsh{MulChecked(vf.lo, Pow2(shift)),
                         MulChecked(vf.hi, Pow2(shift))};
      const Wide cap = Pow2(ow) - 1;
      const auto bound_of = [&](Interval et, Interval vt) -> Wide {
        // vt covers the fused sum's k-terms over *all* inputs (the
        // degraded run included, as Vd subset Vf); et is the
        // exact-minus-degraded envelope of the same terms.
        const Interval vsum = vsh + vt;
        const Interval vout = vsum.FloorShift(shift);
        if (!vsum.FitsSigned(pw) || !vout.FitsSigned(ow)) {
          // The W+2-bit output slice can wrap (operands beyond the
          // Q-format contract), and a wrap turns a small pre-slice
          // error into up to the full output range — and that range
          // is genuinely reachable, so the cap is near-tight, not
          // slack.
          return cap;
        }
        const Interval eout{FloorShiftRight(et.lo, shift) - 1,
                            FloorShiftRight(et.hi, shift) + 1};
        return std::min(eout.MaxAbs(), cap);
      };
      return {{"xr", ow, bound_of(ek1 - ek3, vk1 - vk3)},
              {"xi", ow, bound_of(ek1 + ek2, vk1 + vk2)},
              {"yr", ow, bound_of(ek3 - ek1, vk3 - vk1)},
              {"yi", ow, bound_of((-ek1) - ek2, (-vk1) - vk2)}};
    }

    case Model::kGeneric: break;
  }
  ADQ_CHECK(false && "BusBoundsFor requires a validated template");
  return {};
}

std::vector<AccuracyAnalyzer::BusErr> AccuracyAnalyzer::TaintBounds(
    int zeroed) const {
  const netlist::Netlist& nl = op_.nl;
  // May-differ taint: a net is tainted when its value in the degraded
  // run may ever differ from the exact run. Forced-zero ports seed the
  // taint; any cell (registers included — the fixpoint is over cycles
  // too) propagates taint from any input to every output.
  std::vector<char> differ(nl.num_nets(), 0);
  std::vector<std::size_t> work;
  const auto taint_net = [&](netlist::NetId n) {
    if (differ[n.index()]) return;
    differ[n.index()] = 1;
    for (const netlist::PinRef& snk : nl.net(n).sinks)
      work.push_back(snk.inst.index());
  };
  for (const netlist::ForcedValue& fv : gen::ForcedZeroLsbs(op_, zeroed))
    taint_net(fv.net);
  while (!work.empty()) {
    const std::size_t ii = work.back();
    work.pop_back();
    const netlist::Instance& inst = nl.instances()[ii];
    for (int k = 0; k < inst.num_outputs(); ++k)
      if (inst.out[static_cast<std::size_t>(k)].valid())
        taint_net(inst.out[static_cast<std::size_t>(k)]);
  }
  // Untainted bits agree between the runs, so the difference is at
  // most the sum of the tainted bit weights — sound for two's
  // complement (the sign bit's weight has the same magnitude).
  std::vector<BusErr> bounds;
  for (const netlist::Bus& bus : nl.output_buses()) {
    Wide b = 0;
    for (int i = 0; i < bus.width(); ++i)
      if (differ[bus.bits[static_cast<std::size_t>(i)].index()]) b += Pow2(i);
    bounds.push_back({bus.name, bus.width(), b});
  }
  return bounds;
}

Wide AccuracyAnalyzer::WitnessFor(int zeroed) const {
  if (zeroed <= 0) return 0;
  const int w = op_.spec.data_width;
  const Wide h = Pow2(w - 1), m = Pow2(zeroed) - 1;
  const std::array<Wide, 6> corners = {-h, -h + m, -1, 0, m, h - 1};
  const auto mult_witness = [&] {
    Wide best = 0;
    for (Wide a : corners)
      for (Wide b : corners) {
        const Wide e = WideAbs(MulChecked(a, b) - MulChecked(MaskLow(a, zeroed),
                                                             MaskLow(b, zeroed)));
        best = std::max(best, e);
      }
    return best;
  };
  switch (model_) {
    case Model::kMult:
      return mult_witness();

    case Model::kMac:
    case Model::kFir: {
      const int aw = 2 * w + 8;
      const int taps = model_ == Model::kFir ? gen::kFirMacsPerCycle : 1;
      const Wide frames = op_.spec.accumulation_cycles;
      // clr is high one cycle per frame, so frames-1 accumulations of
      // the same corner operands are achievable back to back.
      const Wide steps = frames > 1 ? frames - 1 : 0;
      const Interval vacc = Interval::Mul({-h, h - 1}, {-h, h - 1})
                                .ScaleN(taps)
                                .ScaleN(frames);
      if (!vacc.FitsSigned(aw)) return mult_witness();  // wrap: one step only
      return MulChecked(mult_witness(), MulChecked(steps, taps));
    }

    case Model::kButterfly: {
      const std::array<Wide, 5> c2 = {-h, -h + m, -1, m, h - 1};
      Wide best = 0;
      for (Wide br : c2)
        for (Wide bi : c2)
          for (Wide wr : c2)
            for (Wide wi : c2) {
              const ButterflyWords e = ButterflyModel(w, 0, 0, br, bi, wr, wi);
              const ButterflyWords d = ButterflyModel(
                  w, 0, 0, MaskLow(br, zeroed), MaskLow(bi, zeroed),
                  MaskLow(wr, zeroed), MaskLow(wi, zeroed));
              for (Wide diff : {e.xr - d.xr, e.xi - d.xi, e.yr - d.yr,
                                e.yi - d.yi})
                best = std::max(best, WideAbs(diff));
            }
      return best;
    }

    case Model::kGeneric: break;
  }
  return 0;  // the taint fallback exhibits no achievable error
}

double AccuracyAnalyzer::ProvedMaxAbsError(int bitwidth) const {
  const int w = op_.spec.data_width;
  ADQ_CHECK(bitwidth >= 1 && bitwidth <= w);
  const int z = w - bitwidth;
  const std::vector<BusErr> errs =
      exact_model() ? BusBoundsFor(z) : TaintBounds(z);
  Wide worst = 0;
  for (const BusErr& e : errs) worst = std::max(worst, e.bound);
  return ToDoubleCeil(worst);
}

double AccuracyAnalyzer::WitnessAbsError(int bitwidth) const {
  const int w = op_.spec.data_width;
  ADQ_CHECK(bitwidth >= 1 && bitwidth <= w);
  return ToDoubleCeil(WitnessFor(w - bitwidth));
}

ModeBounds AccuracyAnalyzer::Analyze(int bitwidth) const {
  const int w = op_.spec.data_width;
  ADQ_CHECK(bitwidth >= 1 && bitwidth <= w);
  const int z = w - bitwidth;
  ModeBounds mb;
  mb.bitwidth = bitwidth;
  mb.zeroed_lsbs = z;
  mb.exact_model = exact_model();
  mb.constants = std::make_shared<netlist::CaseAnalysis>(
      op_.nl, gen::ForcedZeroLsbs(op_, z));
  mb.constant_nets = mb.constants->num_constant();
  for (const netlist::Instance& inst : op_.nl.instances()) {
    bool quiesced = inst.num_outputs() > 0;
    for (int k = 0; k < inst.num_outputs(); ++k) {
      const netlist::NetId o = inst.out[static_cast<std::size_t>(k)];
      if (o.valid() && !mb.constants->IsConstant(o)) {
        quiesced = false;
        break;
      }
    }
    if (quiesced) ++mb.quiesced_cells;
  }
  const std::vector<BusErr> errs =
      exact_model() ? BusBoundsFor(z) : TaintBounds(z);
  for (const BusErr& e : errs) {
    BusBound bb;
    bb.bus = e.bus;
    bb.width = e.width;
    bb.max_abs_error = ToDoubleCeil(e.bound);
    const netlist::Bus& bus = op_.nl.OutputBus(e.bus);
    for (netlist::NetId bit : bus.bits)
      if (!mb.constants->IsConstant(bit)) ++bb.togglable_bits;
    mb.max_abs_error = std::max(mb.max_abs_error, bb.max_abs_error);
    mb.outputs.push_back(std::move(bb));
  }
  mb.witness_abs_error = ToDoubleCeil(WitnessFor(z));
  return mb;
}

// ---------------------------------------------------------------------------
// AC00x lint pass

lint::LintReport LintAccuracy(const gen::Operator& op, const QualitySpec& spec,
                              const std::vector<int>& bitwidths,
                              const lint::LintOptions& opt) {
  const int w = op.spec.data_width;
  std::vector<int> modes = bitwidths;
  if (modes.empty())
    for (int b = 1; b <= w; ++b) modes.push_back(b);
  lint::LintReport rep;
  rep.subject = op.spec.name;
  rep.scope = "accuracy";
  const AccuracyAnalyzer az(op);

  if (opt.RuleEnabled(lint::kRuleQualityUnsat)) {
    ++rep.rules_run;
    if (std::isfinite(spec.max_abs_error)) {
      double best = std::numeric_limits<double>::infinity();
      int best_b = 0;
      for (int b : modes) {
        const double wit = az.WitnessAbsError(b);
        if (wit < best) {
          best = wit;
          best_b = b;
        }
      }
      if (!modes.empty() && best > spec.max_abs_error) {
        lint::Diagnostic d;
        d.rule = lint::kRuleQualityUnsat;
        d.severity = lint::Severity::kError;
        d.location = "operator " + op.spec.name;
        d.message = "quality spec max_abs_error <= " +
                    std::to_string(spec.max_abs_error) +
                    " is unsatisfiable: the most accurate requested mode "
                    "(bitwidth " +
                    std::to_string(best_b) + ") provably reaches " +
                    std::to_string(best);
        d.hint = "raise the error target or request more accurate modes";
        rep.Add(std::move(d));
      }
    }
  }

  if (opt.RuleEnabled(lint::kRuleMaskGatesNothing)) {
    ++rep.rules_run;
    int reported = 0, folded = 0;
    for (const std::string& name : op.spec.scalable_buses) {
      const netlist::Bus& bus = op.nl.InputBus(name);
      // The accuracy mask zeroes LSB *prefixes*, so the meaningful
      // question per bit is incremental: does extending the zeroed
      // prefix from [0, i) to [0, i] fold anything beyond the port
      // and its input register?
      std::vector<netlist::ForcedValue> prefix;
      std::size_t prev_constant = netlist::CaseAnalysis(op.nl, {}).num_constant();
      for (int i = 0; i < bus.width(); ++i) {
        prefix.push_back({bus.bits[static_cast<std::size_t>(i)], false});
        const netlist::CaseAnalysis ca(op.nl, prefix);
        const std::size_t extra = ca.num_constant() - prev_constant;
        prev_constant = ca.num_constant();
        if (extra > 2) continue;  // folds more than the port + its DFF
        if (reported++ < opt.max_diags_per_rule) {
          lint::Diagnostic d;
          d.rule = lint::kRuleMaskGatesNothing;
          d.severity = lint::Severity::kWarning;
          d.location = "bus " + name + " bit " + std::to_string(i);
          d.message = "zeroing this scalable bit on top of the lower ones "
                      "folds no logic beyond the port and its input "
                      "register";
          d.hint = "the accuracy mask spends a bit without quiescing "
                   "any datapath logic";
          rep.Add(std::move(d));
        } else {
          ++folded;
        }
      }
    }
    if (folded > 0) {
      lint::Diagnostic d;
      d.rule = lint::kRuleMaskGatesNothing;
      d.severity = lint::Severity::kWarning;
      d.location = "operator " + op.spec.name;
      d.message = "... and " + std::to_string(folded) + " more";
      rep.Add(std::move(d));
    }
  }

  if (opt.RuleEnabled(lint::kRuleConstantOutput)) {
    ++rep.rules_run;
    int reported = 0, folded = 0;
    for (int b : modes) {
      const netlist::CaseAnalysis ca(
          op.nl, gen::ForcedZeroLsbs(op, op.spec.data_width - b));
      for (const netlist::Bus& ob : op.nl.output_buses()) {
        bool all_const = ob.width() > 0;
        for (netlist::NetId bit : ob.bits)
          if (!ca.IsConstant(bit)) {
            all_const = false;
            break;
          }
        if (!all_const) continue;
        if (reported++ < opt.max_diags_per_rule) {
          lint::Diagnostic d;
          d.rule = lint::kRuleConstantOutput;
          d.severity = lint::Severity::kWarning;
          d.location = "bus " + ob.name;
          d.message = "output bus is provably constant in accuracy mode "
                      "bitwidth=" +
                      std::to_string(b);
          d.hint = "this mode computes nothing; drop it from the schedule";
          rep.Add(std::move(d));
        } else {
          ++folded;
        }
      }
    }
    if (folded > 0) {
      lint::Diagnostic d;
      d.rule = lint::kRuleConstantOutput;
      d.severity = lint::Severity::kWarning;
      d.location = "operator " + op.spec.name;
      d.message = "... and " + std::to_string(folded) + " more";
      rep.Add(std::move(d));
    }
  }

  return rep;
}

}  // namespace adq::analysis
