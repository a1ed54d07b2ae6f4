// Memory of one NP core: the five regions of np/memmap.hpp in one flat
// arena. All regions are readable and writable and *all readable memory
// is executable* -- faithful to the simple embedded cores the paper
// targets and required for the code-injection attack path the monitor
// defends against.
//
// The arena holds only mapped bytes: pkt-out is packed right after pkt-in,
// the rest sit at their guest addresses. Each guest page (kPageBytes) up
// to pkt-out's end has one attribute byte:
//  * kMapped: regions are page-aligned and an aligned access never
//    crosses a page, so this bit is the whole bounds check;
//  * kNonzero: clear => the page is all-zero. Set pages are also listed,
//    so clear()/zero_region() visit only pages written since they were
//    last zeroed: the per-packet soft reset is O(bytes touched).
// Loads and stores are inline; only a store to an unmapped or all-zero
// page goes out of line.
#ifndef SDMMON_NP_MEMORY_HPP
#define SDMMON_NP_MEMORY_HPP

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "np/memmap.hpp"
#include "util/bytes.hpp"

namespace sdmmon::np {

/// Why a memory access failed; becomes a core trap.
enum class MemFault {
  None,
  OutOfRange,
  Unaligned,
};

/// Dirty-page tracking granularity. Small enough that a soft reset after
/// a packet touching a few stack slots zeroes a few hundred bytes, large
/// enough that the per-store bookkeeping is one shift and one attribute
/// byte.
inline constexpr std::uint32_t kPageBytes = 256;

class Memory {
 public:
  Memory();

  /// Zero all regions (used on full core reset).
  void clear();

  /// Zero the single region starting at `base`. Used by
  /// the per-packet soft reset on stack/pktin/pktout.
  void zero_region(std::uint32_t base);

  // All accessors return/accept little-endian values (MIPS LE).
  std::optional<std::uint32_t> load32(std::uint32_t addr) const {
    return load_optional<std::uint32_t>(addr);
  }
  std::optional<std::uint16_t> load16(std::uint32_t addr) const {
    return load_optional<std::uint16_t>(addr);
  }
  std::optional<std::uint8_t> load8(std::uint32_t addr) const {
    return load_optional<std::uint8_t>(addr);
  }
  /// Load a T (std::uint8_t/uint16_t/uint32_t) zero-extended into `out`;
  /// false, with `out` untouched, when the access is unaligned or
  /// unmapped. The executors' form: no std::optional to keep in memory.
  template <typename T>
  bool load(std::uint32_t addr, std::uint32_t& out) const {
    const std::uint32_t page = addr / kPageBytes;
    if (addr % sizeof(T) != 0 || page >= kPages || !(attr_[page] & kMapped)) {
      return false;
    }
    const std::uint8_t* p = arena_.data() + arena_offset(addr);
    T value = 0;
    for (unsigned i = 0; i < sizeof(T); ++i) {
      value |= static_cast<T>(T{p[i]} << 8 * i);
    }
    out = value;
    return true;
  }
  MemFault store32(std::uint32_t addr, std::uint32_t value) {
    return store(addr, value);
  }
  MemFault store16(std::uint32_t addr, std::uint16_t value) {
    return store(addr, value);
  }
  MemFault store8(std::uint32_t addr, std::uint8_t value) {
    return store(addr, value);
  }

  /// Bulk copy used by the loader and packet I/O. Throws
  /// std::out_of_range unless the block lies inside one region.
  void write_block(std::uint32_t addr, std::span<const std::uint8_t> data);
  util::Bytes read_block(std::uint32_t addr, std::size_t len) const;

  /// Throws std::out_of_range(`what`) unless [addr, addr + len) lies
  /// inside one region: the bounds check of write_block/read_block, so
  /// a loader can check a block fits before it changes any memory.
  static void check_block(std::uint32_t addr, std::size_t len,
                          const char* what);

 private:
  static constexpr std::uint8_t kMapped = 1, kNonzero = 2;
  /// A store to a page missing either bit takes the out-of-line path.
  static constexpr std::uint8_t kStoreMask = kMapped | kNonzero;
  /// Pages with an attribute byte, and the hole left out of the arena.
  static constexpr std::uint32_t kPages =
      (kPktOutBase + kPktOutSize) / kPageBytes;
  // Every access at or above kPages * kPageBytes fails, so none reaches
  // the MMIO window: the superblock executor relies on this to stop
  // before MMIO loads and stores without testing for them.
  static_assert(kMmioBase >= kPages * kPageBytes,
                "the MMIO window must lie above the mapped pages");
  static constexpr std::uint32_t kHole =
      kPktOutBase - (kPktInBase + kPktInSize);

  static std::uint32_t arena_offset(std::uint32_t addr) {
    return addr >= kPktOutBase ? addr - kHole : addr;
  }

  template <typename T>
  std::optional<T> load_optional(std::uint32_t addr) const {
    std::uint32_t value = 0;
    if (!load<T>(addr, value)) return std::nullopt;
    return static_cast<T>(value);
  }

  template <typename T>
  MemFault store(std::uint32_t addr, T value) {
    if (addr % sizeof(T) != 0) return MemFault::Unaligned;
    const std::uint32_t page = addr / kPageBytes;
    if (page >= kPages) return MemFault::OutOfRange;
    if ((attr_[page] & kStoreMask) != kStoreMask) {
      if (!(attr_[page] & kMapped)) return MemFault::OutOfRange;
      touch_page(page);
    }
    std::uint8_t* p = arena_.data() + arena_offset(addr);
    for (unsigned i = 0; i < sizeof(T); ++i) {
      p[i] = static_cast<std::uint8_t>(value >> 8 * i);
    }
    return MemFault::None;
  }

  /// Flag (and list) the page nonzero.
  void touch_page(std::uint32_t page);
  /// Zero every nonzero page in [begin, end) (shared by clear/zero_region).
  void scrub(std::uint32_t begin, std::uint32_t end);

  std::vector<std::uint8_t> arena_;
  std::array<std::uint8_t, kPages> attr_{};
  /// Exactly the pages whose kNonzero bit is set.
  std::vector<std::uint16_t> nonzero_pages_;
};

}  // namespace sdmmon::np

#endif  // SDMMON_NP_MEMORY_HPP
