#include "np/memory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace sdmmon::np {
namespace {

TEST(Memory, Load32StoreRoundTrip) {
  Memory m;
  EXPECT_EQ(m.store32(kDataBase, 0xDEADBEEF), MemFault::None);
  EXPECT_EQ(m.load32(kDataBase).value(), 0xDEADBEEFu);
}

TEST(Memory, LittleEndianByteOrder) {
  Memory m;
  ASSERT_EQ(m.store32(kDataBase, 0x11223344), MemFault::None);
  EXPECT_EQ(m.load8(kDataBase).value(), 0x44);
  EXPECT_EQ(m.load8(kDataBase + 3).value(), 0x11);
  EXPECT_EQ(m.load16(kDataBase).value(), 0x3344);
  EXPECT_EQ(m.load16(kDataBase + 2).value(), 0x1122);
}

TEST(Memory, Store8And16) {
  Memory m;
  EXPECT_EQ(m.store8(kStackBase + 1, 0xAB), MemFault::None);
  EXPECT_EQ(m.load8(kStackBase + 1).value(), 0xAB);
  EXPECT_EQ(m.store16(kStackBase + 2, 0xCDEF), MemFault::None);
  EXPECT_EQ(m.load16(kStackBase + 2).value(), 0xCDEF);
}

TEST(Memory, UnalignedAccessFaults) {
  Memory m;
  EXPECT_EQ(m.store32(kDataBase + 1, 0), MemFault::Unaligned);
  EXPECT_EQ(m.store16(kDataBase + 1, 0), MemFault::Unaligned);
  EXPECT_FALSE(m.load32(kDataBase + 2).has_value());
  EXPECT_FALSE(m.load16(kDataBase + 1).has_value());
  EXPECT_EQ(m.store32(kDataBase + 2, 0), MemFault::Unaligned);
}

TEST(Memory, OutOfRangeAccessFaults) {
  Memory m;
  // Hole above the packet-out region.
  const std::uint32_t hole = kPktOutBase + kPktOutSize + 0x100;
  EXPECT_EQ(m.store32(hole, 1), MemFault::OutOfRange);
  EXPECT_FALSE(m.load32(hole).has_value());
  EXPECT_EQ(m.store32(hole + 4, 1), MemFault::OutOfRange);
  EXPECT_FALSE(m.load32(hole + 4).has_value());
  // Far beyond all regions (but below MMIO).
  EXPECT_FALSE(m.load8(0x0010'0000).has_value());
}

TEST(Memory, RegionBoundaryStraddleFaults) {
  Memory m;
  // Last word inside the text region works; one past straddles out.
  EXPECT_EQ(m.store32(kTextBase + kTextSize - 4, 7), MemFault::None);
  EXPECT_FALSE(m.load32(kTextBase + kTextSize - 2).has_value());
}

TEST(Memory, AllFiveRegionsExist) {
  Memory m;
  for (std::uint32_t base :
       {kTextBase, kDataBase, kStackBase, kPktInBase, kPktOutBase}) {
    EXPECT_EQ(m.store32(base, 0x55AA55AA), MemFault::None) << base;
    EXPECT_EQ(m.load32(base).value(), 0x55AA55AAu) << base;
  }
}

TEST(Memory, PacketBufferIsExecutableStorage) {
  // No execute protection: reads from the packet-in region succeed, which
  // is exactly the property the code-injection attack exploits.
  Memory m;
  ASSERT_EQ(m.store32(kPktInBase + 8, 0x01234567), MemFault::None);
  EXPECT_EQ(m.load32(kPktInBase + 8).value(), 0x01234567u);
}

TEST(Memory, BlockCopyRoundTrip) {
  Memory m;
  util::Bytes data = {1, 2, 3, 4, 5};
  m.write_block(kDataBase + 100, data);
  EXPECT_EQ(m.read_block(kDataBase + 100, 5), data);
}

TEST(Memory, BlockCopyOverflowThrows) {
  Memory m;
  util::Bytes big(kPktInSize + 1, 0xFF);
  EXPECT_THROW(m.write_block(kPktInBase, big), std::out_of_range);
  EXPECT_THROW(m.read_block(kPktInBase, kPktInSize + 1), std::out_of_range);
}

TEST(Memory, ClearZeroesEverything) {
  Memory m;
  ASSERT_EQ(m.store32(kDataBase, 0xFFFFFFFF), MemFault::None);
  m.clear();
  EXPECT_EQ(m.load32(kDataBase).value(), 0u);
}

// ---------------------------------------------------------------------
// Differential property: Memory against a naive byte model
// ---------------------------------------------------------------------

// Every boundary where a bulk copy must throw. The arena is contiguous
// across all but the hole, and pkt-in's end abuts pkt-out in it.
constexpr std::uint32_t kBoundaries[] = {
    kDataBase, kStackBase, kPktInBase, kPktInBase + kPktInSize,
    kPktOutBase, kPktOutBase + kPktOutSize};

// The five regions as separate byte vectors: the obvious semantics with
// none of Memory's layout, attribute or page tracking.
class NaiveMemory {
 public:
  NaiveMemory() {
    for (auto [base, size] :
         {std::pair{kTextBase, kTextSize}, {kDataBase, kDataSize},
          {kStackBase, kStackSize}, {kPktInBase, kPktInSize},
          {kPktOutBase, kPktOutSize}}) {
      regions_.push_back({base, util::Bytes(size, 0)});
    }
  }

  std::optional<std::uint32_t> load(std::uint32_t addr, unsigned size) const {
    if (addr % size != 0) return std::nullopt;
    const Region* r = find(addr, size);
    if (!r) return std::nullopt;
    std::uint32_t v = 0;
    for (unsigned i = 0; i < size; ++i) {
      v |= std::uint32_t{r->bytes[addr - r->base + i]} << (8 * i);
    }
    return v;
  }

  MemFault store(std::uint32_t addr, unsigned size, std::uint32_t value) {
    if (addr % size != 0) return MemFault::Unaligned;
    Region* r = find(addr, size);
    if (!r) return MemFault::OutOfRange;
    for (unsigned i = 0; i < size; ++i) {
      r->bytes[addr - r->base + i] = static_cast<std::uint8_t>(value >> 8 * i);
    }
    return MemFault::None;
  }

  /// False where Memory must throw.
  bool write_block(std::uint32_t addr, const util::Bytes& data) {
    if (data.empty()) return true;
    Region* r = find(addr, data.size());
    if (!r) return false;
    std::copy(data.begin(), data.end(), r->bytes.begin() + (addr - r->base));
    return true;
  }

  std::optional<util::Bytes> read_block(std::uint32_t addr,
                                        std::size_t len) const {
    if (len == 0) return util::Bytes{};
    const Region* r = find(addr, len);
    if (!r) return std::nullopt;
    auto first = r->bytes.begin() + (addr - r->base);
    return util::Bytes(first, first + static_cast<std::ptrdiff_t>(len));
  }

  // Every byte from the start of `base`'s page up.
  void zero_from(std::uint32_t base) {
    const std::uint32_t floor = base - base % kPageBytes;
    for (Region& r : regions_) {
      for (std::size_t i = 0; i < r.bytes.size(); ++i) {
        if (r.base + i >= floor) r.bytes[i] = 0;
      }
    }
  }

  void clear() {
    for (Region& r : regions_) std::fill(r.bytes.begin(), r.bytes.end(), 0);
  }

  util::Bytes image() const {
    util::Bytes out;
    for (const Region& r : regions_) {
      out.insert(out.end(), r.bytes.begin(), r.bytes.end());
    }
    return out;
  }

 private:
  struct Region {
    std::uint32_t base;
    util::Bytes bytes;
  };

  const Region* find(std::uint32_t addr, std::size_t size) const {
    for (const Region& r : regions_) {
      if (addr >= r.base && std::uint64_t{addr} + size <=
                                std::uint64_t{r.base} + r.bytes.size()) {
        return &r;
      }
    }
    return nullptr;
  }
  Region* find(std::uint32_t addr, std::size_t size) {
    return const_cast<Region*>(std::as_const(*this).find(addr, size));
  }

  std::vector<Region> regions_;
};

struct Xorshift {
  std::uint32_t state;
  std::uint32_t operator()() {
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
  }
};

util::Bytes full_image(const Memory& m) {
  util::Bytes image;
  image.reserve(kTextSize + kDataSize + kStackSize + kPktInSize +
                kPktOutSize);
  for (auto [base, size] :
       {std::pair{kTextBase, kTextSize}, {kDataBase, kDataSize},
        {kStackBase, kStackSize}, {kPktInBase, kPktInSize},
        {kPktOutBase, kPktOutSize}}) {
    util::Bytes region = m.read_block(base, size);
    image.insert(image.end(), region.begin(), region.end());
  }
  return image;
}

// A Memory and its model. Copyable, so copying a harness copies the
// Memory under test.
struct Harness {
  Memory mem;
  NaiveMemory model;

  static std::uint32_t pick_addr(Xorshift& rng) {
    switch (rng() % 8) {
      case 0:  // the unmapped hole between pkt-in and pkt-out
        return kPktInBase + kPktInSize +
               rng() % (kPktOutBase - kPktInBase - kPktInSize);
      case 1:  // above pkt-out, up to MMIO
        return kPktOutBase + kPktOutSize +
               rng() % (kMmioBase - kPktOutBase - kPktOutSize);
      case 2:  // within 8 bytes of a region boundary
        return kBoundaries[rng() % std::size(kBoundaries)] + rng() % 17 - 8;
      default: {  // inside a region, mostly in its first few pages
        static constexpr std::uint32_t kBases[] = {
            kTextBase, kDataBase, kStackBase, kPktInBase, kPktOutBase};
        return kBases[rng() % 5] + rng() % (rng() % 2 ? 0x800 : 0x10000);
      }
    }
  }

  // One random operation on both sides; returns its description.
  std::string step(Xorshift& rng) {
    const std::uint32_t kind = rng() % 89;
    std::uint32_t addr = pick_addr(rng);
    const unsigned size = 1u << (rng() % 3);
    if (rng() % 4 != 0) addr &= ~(size - 1);
    const std::string at = " @" + std::to_string(addr);
    if (kind < 40) {
      std::optional<std::uint32_t> got;
      if (size == 1) got = mem.load8(addr);
      if (size == 2) got = mem.load16(addr);
      if (size == 4) got = mem.load32(addr);
      EXPECT_EQ(got, model.load(addr, size)) << "load" << size << at;
      return "load" + std::to_string(size) + at;
    }
    if (kind < 75) {
      const std::uint32_t value = rng() % 3 == 0 ? 0 : rng();
      MemFault got = MemFault::None;
      if (size == 1) got = mem.store8(addr, static_cast<std::uint8_t>(value));
      if (size == 2) got = mem.store16(addr, static_cast<std::uint16_t>(value));
      if (size == 4) got = mem.store32(addr, value);
      EXPECT_EQ(got, model.store(addr, size, value)) << "store" << size << at;
      return "store" + std::to_string(size) + at;
    }
    if (kind < 85) {
      const std::size_t len = rng() % 700;
      if (len > 1 && rng() % 2) {  // straddle a boundary
        addr = kBoundaries[rng() % std::size(kBoundaries)] -
               (1 + rng() % static_cast<std::uint32_t>(len - 1));
      }
      const std::string what = " len " + std::to_string(len) + at;
      if (kind < 80) {
        util::Bytes data(len);
        for (auto& b : data) b = static_cast<std::uint8_t>(rng());
        bool threw = false;
        try {
          mem.write_block(addr, data);
        } catch (const std::out_of_range&) {
          threw = true;
        }
        EXPECT_EQ(threw, !model.write_block(addr, data)) << "write" << what;
        return "write_block" + what;
      }
      std::optional<util::Bytes> got;
      try {
        got = mem.read_block(addr, len);
      } catch (const std::out_of_range&) {
      }
      EXPECT_EQ(got, model.read_block(addr, len)) << "read" << what;
      return "read_block" + what;
    }
    if (kind < 88) {
      // Mostly from a region base (kStackBase is the soft reset's),
      // sometimes from anywhere.
      static constexpr std::uint32_t kBases[] = {
          kTextBase,  kDataBase,   kStackBase,
          kPktInBase, kPktOutBase, kPktOutBase + kPageBytes};
      const std::uint32_t base = rng() % 4 == 0
                                     ? pick_addr(rng)
                                     : kBases[rng() % std::size(kBases)];
      mem.zero_from(base);
      model.zero_from(base);
      return "zero_from " + std::to_string(base);
    }
    mem.clear();
    model.clear();
    return "clear";
  }
};

TEST(MemoryDifferential, RandomOpsMatchNaiveByteModel) {
  for (std::uint32_t seed : {1u, 0xBADC0DEu, 0x5EED5EEDu}) {
    Harness h;
    Xorshift rng{seed};
    for (int i = 0; i < 1500; ++i) {
      const std::string op = h.step(rng);
      ASSERT_TRUE(full_image(h.mem) == h.model.image())
          << "seed " << seed << " op " << i << ": " << op;
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << " op " << i << ": " << op;
      }
    }
  }
}

TEST(MemoryDifferential, CopyEqualsOriginalThenEvolvesIndependently) {
  Harness original;
  Xorshift rng{0xC0FFEE};
  for (int i = 0; i < 400; ++i) (void)original.step(rng);
  ASSERT_EQ(original.mem.store32(kStackBase + 0x40, 0xA5A5A5A5),
            MemFault::None);
  ASSERT_EQ(original.model.store(kStackBase + 0x40, 4, 0xA5A5A5A5),
            MemFault::None);

  Harness copy = original;
  ASSERT_TRUE(full_image(copy.mem) == full_image(original.mem));

  // Diverge: each side is only ever checked against its own model, so a
  // byte, attribute or log shared between the two would show up here.
  Xorshift rng_a{11}, rng_b{22};
  for (int i = 0; i < 600; ++i) {
    const std::string a = original.step(rng_a);
    const std::string b = copy.step(rng_b);
    ASSERT_TRUE(full_image(original.mem) == original.model.image())
        << "original op " << i << ": " << a;
    ASSERT_TRUE(full_image(copy.mem) == copy.model.image())
        << "copy op " << i << ": " << b;
    ASSERT_FALSE(::testing::Test::HasFailure()) << "op " << i;
  }
}

// ---------------------------------------------------------------------
// copy_bytes: the superblock executor's byte-copy loop
// ---------------------------------------------------------------------

// The loop copy_bytes stands for, on the model: byte loads and stores in
// ascending order, stopping at the first that faults.
Memory::CopyResult model_copy(NaiveMemory& model, std::uint32_t dst,
                              std::uint32_t src, std::uint32_t n) {
  Memory::CopyResult r;
  for (; r.done < n; ++r.done) {
    const std::optional<std::uint32_t> v = model.load(src + r.done, 1);
    if (!v || model.store(dst + r.done, 1, *v) != MemFault::None) break;
    r.last = static_cast<std::uint8_t>(*v);
  }
  return r;
}

void fill(Memory& m, std::uint32_t addr, const std::string& text) {
  m.write_block(addr, util::Bytes(text.begin(), text.end()));
}

std::string text_at(const Memory& m, std::uint32_t addr, std::size_t len) {
  const util::Bytes b = m.read_block(addr, len);
  return std::string(b.begin(), b.end());
}

TEST(MemoryCopyBytes, ForwardOverlapRepeatsTheFirstByte) {
  Memory m;
  fill(m, kDataBase + 0x10, "ABCDEFGH");
  const Memory::CopyResult r =
      m.copy_bytes(kDataBase + 0x11, kDataBase + 0x10, 7);
  EXPECT_EQ(r.done, 7u);
  EXPECT_EQ(r.last, 'A');
  EXPECT_EQ(text_at(m, kDataBase + 0x10, 8), "AAAAAAAA") << "not a memmove";
}

TEST(MemoryCopyBytes, ReverseOverlapShiftsDown) {
  Memory m;
  fill(m, kDataBase + 0x10, "ABCDEFGH");
  const Memory::CopyResult r =
      m.copy_bytes(kDataBase + 0x10, kDataBase + 0x11, 7);
  EXPECT_EQ(r.done, 7u);
  EXPECT_EQ(r.last, 'H');
  EXPECT_EQ(text_at(m, kDataBase + 0x10, 8), "BCDEFGHH");
}

// Source and destination cross page boundaries at different offsets, so
// the copy is cut into chunks at both.
TEST(MemoryCopyBytes, ChunksAcrossPageBoundaries) {
  Memory m;
  NaiveMemory model;
  util::Bytes data(600);
  for (std::size_t j = 0; j < data.size(); ++j) {
    data[j] = static_cast<std::uint8_t>(j * 7 + 1);
  }
  const std::uint32_t src = kDataBase + kPageBytes - 3;
  const std::uint32_t dst = kStackBase + 2 * kPageBytes - 101;
  m.write_block(src, data);
  ASSERT_TRUE(model.write_block(src, data));
  const Memory::CopyResult r = m.copy_bytes(dst, src, 600);
  const Memory::CopyResult want = model_copy(model, dst, src, 600);
  EXPECT_EQ(r.done, 600u);
  EXPECT_EQ(r.last, want.last);
  EXPECT_EQ(m.read_block(dst, 600), data);
  EXPECT_TRUE(full_image(m) == model.image());
}

// It stops at the exact byte where the source or the destination leaves
// the mapped pages: the end of pkt-in (the hole follows), the end of
// pkt-out (the end of the arena).
TEST(MemoryCopyBytes, StopsWhereAnAccessWouldFault) {
  Memory m;
  fill(m, kPktInBase + kPktInSize - 5, "vwxyz");
  Memory::CopyResult r =
      m.copy_bytes(kDataBase, kPktInBase + kPktInSize - 5, 20);
  EXPECT_EQ(r.done, 5u);
  EXPECT_EQ(r.last, 'z');
  EXPECT_EQ(text_at(m, kDataBase, 6), std::string("vwxyz\0", 6));

  r = m.copy_bytes(kPktOutBase + kPktOutSize - 3, kDataBase, 10);
  EXPECT_EQ(r.done, 3u);
  EXPECT_EQ(r.last, 'x');
  EXPECT_EQ(text_at(m, kPktOutBase + kPktOutSize - 3, 3), "vwx");

  r = m.copy_bytes(kPktInBase + kPktInSize - 2, kDataBase, 10);
  EXPECT_EQ(r.done, 2u) << "the destination enters the hole";
  r = m.copy_bytes(kDataBase, 0x0010'0000u, 10);
  EXPECT_EQ(r.done, 0u);
  EXPECT_EQ(r.last, 0);
  r = m.copy_bytes(kDataBase, kMmioBase, 4);
  EXPECT_EQ(r.done, 0u) << "MMIO is not mapped memory";
  EXPECT_EQ(m.copy_bytes(kDataBase, kDataBase + 1, 0).done, 0u);
}

// The last byte of pkt-out is the last byte of the arena.
TEST(MemoryCopyBytes, CopyEndingOnTheLastByteOfPktOut) {
  Memory m;
  const std::string text(64, 'q');
  fill(m, kPktInBase, text);
  const Memory::CopyResult r =
      m.copy_bytes(kPktOutBase + kPktOutSize - 64, kPktInBase, 64);
  EXPECT_EQ(r.done, 64u);
  EXPECT_EQ(text_at(m, kPktOutBase + kPktOutSize - 64, 64), text);
}

// A page only copy_bytes wrote is listed as nonzero, so the per-packet
// zero_from scrubs it: no output bytes leak into the next packet.
TEST(MemoryCopyBytes, PagesItWritesAreScrubbedByZeroFrom) {
  Memory m;
  fill(m, kPktInBase, std::string(kPageBytes + 10, 'p'));
  ASSERT_EQ(m.copy_bytes(kPktOutBase + kPageBytes - 5, kPktInBase,
                         kPageBytes + 10)
                .done,
            kPageBytes + 10);
  m.zero_from(kStackBase);
  EXPECT_EQ(m.read_block(kPktOutBase, kPktOutSize),
            util::Bytes(kPktOutSize, 0));
}

// Random copies interleaved with the random ops of the differential
// harness (stores, block writes, zero_from, clear), against the byte
// loop on the model: result and the whole image.
TEST(MemoryCopyBytes, RandomCopiesMatchTheByteLoop) {
  for (std::uint32_t seed : {3u, 0xC09Eu}) {
    Harness h;
    Xorshift rng{seed};
    for (int i = 0; i < 1200; ++i) {
      std::string op;
      if (rng() % 3 == 0) {
        std::uint32_t src = Harness::pick_addr(rng);
        std::uint32_t dst = Harness::pick_addr(rng);
        if (rng() % 2) src |= kPageBytes - 1 - rng() % 8;  // near a page end
        if (rng() % 2) dst |= kPageBytes - 1 - rng() % 8;
        if (rng() % 4 == 0) dst = src + rng() % 5 - 2;  // overlapping
        const std::uint32_t n = rng() % 600;
        op = "copy " + std::to_string(n) + " " + std::to_string(src) +
             " -> " + std::to_string(dst);
        const Memory::CopyResult got = h.mem.copy_bytes(dst, src, n);
        const Memory::CopyResult want = model_copy(h.model, dst, src, n);
        EXPECT_EQ(got.done, want.done) << op;
        EXPECT_EQ(got.last, want.last) << op;
      } else {
        op = h.step(rng);
      }
      ASSERT_TRUE(full_image(h.mem) == h.model.image())
          << "seed " << seed << " op " << i << ": " << op;
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "seed " << seed << " op " << i << ": " << op;
    }
  }
}

TEST(MemoryDifferential, BlocksCrossingARegionBoundaryThrow) {
  Memory m;
  for (std::uint32_t edge : kBoundaries) {
    EXPECT_THROW(m.write_block(edge - 4, util::Bytes(8, 1)), std::out_of_range)
        << edge;
    EXPECT_THROW(m.read_block(edge - 4, 8), std::out_of_range) << edge;
    EXPECT_THROW(m.write_block(edge - kPageBytes / 2,
                               util::Bytes(kPageBytes, 1)),
                 std::out_of_range)
        << edge;
  }
  // Nothing was written by the rejected copies.
  EXPECT_TRUE(full_image(m) == NaiveMemory().image());
}

}  // namespace
}  // namespace sdmmon::np
