#include "core/accuracy.h"

namespace adq::core {

std::vector<netlist::ForcedValue> ForcedZeros(const gen::Operator& op,
                                              int bitwidth) {
  return gen::ForcedZeroLsbs(op, ZeroedLsbs(op, bitwidth));
}

}  // namespace adq::core
