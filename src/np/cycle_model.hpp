// Cycle-cost model of the PLASMA-like soft core: maps a retired
// instruction mix onto cycles so simulator packet counts translate into
// modeled packets-per-second at the prototype's 100 MHz clock. Costs are
// the classic single-issue embedded profile: 1 cycle ALU, an extra cycle
// of load-use latency, a taken-branch refetch bubble, and a multi-cycle
// iterative multiply/divide unit.
#ifndef SDMMON_NP_CYCLE_MODEL_HPP
#define SDMMON_NP_CYCLE_MODEL_HPP

#include <cstdint>

#include "isa/isa.hpp"

namespace sdmmon::np {

/// Cumulative retired-instruction mix of a core.
struct InstrMix {
  std::uint64_t alu = 0;
  std::uint64_t load = 0;
  std::uint64_t store = 0;
  std::uint64_t branch_not_taken = 0;
  std::uint64_t branch_taken = 0;
  std::uint64_t jump = 0;       // j/jal/jr/jalr
  std::uint64_t muldiv = 0;     // mult/multu/div/divu
  std::uint64_t trap = 0;

  std::uint64_t total() const {
    return alu + load + store + branch_not_taken + branch_taken + jump +
           muldiv + trap;
  }

  InstrMix operator-(const InstrMix& rhs) const {
    return InstrMix{alu - rhs.alu,
                    load - rhs.load,
                    store - rhs.store,
                    branch_not_taken - rhs.branch_not_taken,
                    branch_taken - rhs.branch_taken,
                    jump - rhs.jump,
                    muldiv - rhs.muldiv,
                    trap - rhs.trap};
  }

  InstrMix& operator+=(const InstrMix& rhs) {
    alu += rhs.alu;
    load += rhs.load;
    store += rhs.store;
    branch_not_taken += rhs.branch_not_taken;
    branch_taken += rhs.branch_taken;
    jump += rhs.jump;
    muldiv += rhs.muldiv;
    trap += rhs.trap;
    return *this;
  }

  InstrMix& operator-=(const InstrMix& rhs) { return *this = *this - rhs; }

  /// The mix of `times` repeats of this one.
  InstrMix operator*(std::uint64_t times) const {
    return InstrMix{alu * times,          load * times,
                    store * times,        branch_not_taken * times,
                    branch_taken * times, jump * times,
                    muldiv * times,       trap * times};
  }
};

struct CycleCosts {
  double alu = 1.0;
  double load = 2.0;              // 1 + load-use bubble
  double store = 1.0;
  double branch_not_taken = 1.0;
  double branch_taken = 2.0;      // refetch bubble
  double jump = 2.0;
  double muldiv = 12.0;           // iterative unit
  double trap = 1.0;
};

class CycleModel {
 public:
  explicit CycleModel(CycleCosts costs = {}, double clock_hz = 100e6)
      : costs_(costs), clock_hz_(clock_hz) {}

  double cycles(const InstrMix& mix) const {
    return static_cast<double>(mix.alu) * costs_.alu +
           static_cast<double>(mix.load) * costs_.load +
           static_cast<double>(mix.store) * costs_.store +
           static_cast<double>(mix.branch_not_taken) * costs_.branch_not_taken +
           static_cast<double>(mix.branch_taken) * costs_.branch_taken +
           static_cast<double>(mix.jump) * costs_.jump +
           static_cast<double>(mix.muldiv) * costs_.muldiv +
           static_cast<double>(mix.trap) * costs_.trap;
  }

  double seconds(const InstrMix& mix) const {
    return cycles(mix) / clock_hz_;
  }

  /// Cycles-per-instruction of the mix (1.0 = ideal single-issue).
  double cpi(const InstrMix& mix) const {
    const std::uint64_t n = mix.total();
    return n == 0 ? 0.0 : cycles(mix) / static_cast<double>(n);
  }

  double clock_hz() const { return clock_hz_; }

 private:
  CycleCosts costs_;
  double clock_hz_;
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_CYCLE_MODEL_HPP
