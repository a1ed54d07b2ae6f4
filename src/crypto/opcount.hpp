// Primitive-operation counters used by the embedded-core timing model
// (sdmmon/timing.hpp). Every crypto primitive increments a thread-local
// counter; the Table 2 reproduction converts counts into modeled Nios II
// cycles instead of trusting host wall-clock.
#ifndef SDMMON_CRYPTO_OPCOUNT_HPP
#define SDMMON_CRYPTO_OPCOUNT_HPP

#include <cstdint>

namespace sdmmon::crypto {

/// Cumulative primitive-op counts for the current thread.
struct OpCounters {
  /// 64x64->128 multiply-accumulate steps inside bignum mul/reduce and
  /// division; a Montgomery product over k limbs counts 2k^2.
  std::uint64_t limb_muls = 0;
  /// AES block-cipher invocations (one 16-byte block each).
  std::uint64_t aes_blocks = 0;
  /// SHA-256 compression-function invocations (one 64-byte block each).
  std::uint64_t sha256_blocks = 0;
  /// Modular exponentiations, by operand width (for reporting).
  std::uint64_t modexps = 0;

  OpCounters operator-(const OpCounters& rhs) const {
    return OpCounters{limb_muls - rhs.limb_muls, aes_blocks - rhs.aes_blocks,
                      sha256_blocks - rhs.sha256_blocks, modexps - rhs.modexps};
  }
};

/// Thread-local counters; reset with `op_counters() = {}`.
OpCounters& op_counters();

/// RAII snapshot: `delta()` gives the ops spent since construction.
class OpScope {
 public:
  OpScope() : start_(op_counters()) {}
  OpCounters delta() const { return op_counters() - start_; }

 private:
  OpCounters start_;
};

}  // namespace sdmmon::crypto

#endif  // SDMMON_CRYPTO_OPCOUNT_HPP
