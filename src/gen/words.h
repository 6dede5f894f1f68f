#pragma once
/// \file words.h
/// \brief Word-level helpers for the structural generators.
///
/// A Word is an LSB-first vector of nets. These helpers implement the
/// bit-slicing idioms every datapath generator needs: extension,
/// inversion, bitwise ops against a shared control net, shifting.
/// Sign extension repeats the MSB *net* (no cells added) — exactly
/// what a synthesizer does before optimization.

#include <vector>

#include "netlist/netlist.h"

namespace adq::gen {

using Word = std::vector<netlist::NetId>;

inline int Width(const Word& w) { return static_cast<int>(w.size()); }

/// Sign-extends (by repeating the MSB net) or truncates to `width`.
inline Word SignExtend(const Word& w, int width) {
  ADQ_CHECK(!w.empty());
  Word out = w;
  if (width <= Width(w)) {
    out.resize(width);
    return out;
  }
  out.reserve(width);
  while (Width(out) < width) out.push_back(w.back());
  return out;
}

/// Zero-extends with the shared constant-0 net, or truncates.
inline Word ZeroExtend(netlist::Netlist& nl, const Word& w, int width) {
  Word out = w;
  if (width <= Width(w)) {
    out.resize(width);
    return out;
  }
  while (Width(out) < width) out.push_back(nl.ConstNet(false));
  return out;
}

/// Bitwise inversion (one INV per bit).
inline Word Not(netlist::Netlist& nl, const Word& w) {
  Word out;
  out.reserve(w.size());
  for (netlist::NetId b : w)
    out.push_back(nl.AddGate(tech::CellKind::kInv, {b}));
  return out;
}

/// Bitwise AND of a word with one shared control net (gating).
inline Word AndAll(netlist::Netlist& nl, const Word& w,
                   netlist::NetId ctrl) {
  Word out;
  out.reserve(w.size());
  for (netlist::NetId b : w)
    out.push_back(nl.AddGate(tech::CellKind::kAnd2, {b, ctrl}));
  return out;
}

}  // namespace adq::gen
