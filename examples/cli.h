#pragma once
/// \file cli.h
/// \brief Command-line argument helpers shared by the example tools:
/// whole-string integer parsing with a range check, and the operator
/// generators by name.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "gen/operator.h"

namespace adq::cli {

/// Parses all of `s` as a base-10 integer in [lo, hi]. On failure
/// prints "<what> must be an integer in [lo, hi], got '<s>'" to
/// stderr and returns false.
inline bool ParseLong(const char* s, long lo, long hi, const char* what,
                      long* out) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr, "%s must be an integer in [%ld, %ld], got '%s'\n",
                 what, lo, hi, s);
    return false;
  }
  *out = v;
  return true;
}

using OperatorBuilder = gen::Operator (*)(int width);

/// The generator of the shipped operator `name` (booth, butterfly,
/// fir, mac, array); nullptr for any other name.
inline OperatorBuilder FindOperator(const char* name) {
  struct Named {
    const char* name;
    OperatorBuilder build;
  };
  static constexpr Named kOperators[] = {
      {"booth", &gen::BuildBoothOperator},
      {"butterfly", &gen::BuildButterflyOperator},
      {"fir", &gen::BuildFirMacOperator},
      {"mac", &gen::BuildMacOperator},
      {"array", &gen::BuildArrayMultOperator},
  };
  for (const Named& n : kOperators)
    if (std::strcmp(name, n.name) == 0) return n.build;
  return nullptr;
}

}  // namespace adq::cli
