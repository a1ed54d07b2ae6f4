#include "np/memory.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace sdmmon::np {

namespace {

struct Region {
  std::uint32_t base;
  std::uint32_t size;
};

constexpr Region kRegions[] = {
    {kTextBase, kTextSize},   {kDataBase, kDataSize},
    {kStackBase, kStackSize}, {kPktInBase, kPktInSize},
    {kPktOutBase, kPktOutSize}};

// Page-aligned regions, and pkt-out the only one above the hole.
constexpr bool regions_fit_arena() {
  for (const Region& r : kRegions) {
    if ((r.base | r.size) % kPageBytes != 0) return false;
    if (r.base != kPktOutBase && r.base + r.size > kPktInBase + kPktInSize) {
      return false;
    }
  }
  return true;
}
static_assert(regions_fit_arena());

}  // namespace

// The arena is contiguous across region boundaries, so a bulk copy is
// checked against the region map.
void Memory::check_block(std::uint32_t addr, std::size_t len,
                         const char* what) {
  for (const Region& r : kRegions) {
    if (addr - r.base < r.size) {
      if (len <= r.size - (addr - r.base)) return;
      break;
    }
  }
  throw std::out_of_range(what);
}

Memory::Memory() : arena_(arena_offset(kPktOutBase + kPktOutSize)) {
  static_assert(kPages <= 0x10000, "page numbers are listed as uint16");
  for (const Region& r : kRegions) {
    for (std::uint32_t a = r.base; a < r.base + r.size; a += kPageBytes) {
      attr_[a / kPageBytes] = kMapped;
    }
  }
}

void Memory::touch_page(std::uint32_t page) {
  std::uint8_t& attr = attr_[page];
  if (!(attr & kNonzero)) {
    attr |= kNonzero;
    nonzero_pages_.push_back(static_cast<std::uint16_t>(page));
  }
}

void Memory::scrub(std::uint32_t begin, std::uint32_t end) {
  std::size_t kept = 0;
  for (const std::uint16_t page : nonzero_pages_) {
    if (page < begin || page >= end) {
      nonzero_pages_[kept++] = page;
      continue;
    }
    std::memset(arena_.data() + arena_offset(page * kPageBytes), 0,
                kPageBytes);
    attr_[page] &= static_cast<std::uint8_t>(~kNonzero);
  }
  nonzero_pages_.resize(kept);
}

void Memory::clear() { scrub(0, kPages); }

Memory::CopyResult Memory::copy_bytes(std::uint32_t dst, std::uint32_t src,
                                      std::uint32_t n) {
  CopyResult result;
  while (result.done < n) {
    const std::uint32_t src_page = src / kPageBytes;
    const std::uint32_t dst_page = dst / kPageBytes;
    if (src_page >= kPages || !(attr_[src_page] & kMapped) ||
        dst_page >= kPages || !(attr_[dst_page] & kMapped)) {
      break;
    }
    touch_page(dst_page);
    // Up to the nearer page end: both pages are mapped throughout.
    const std::uint32_t chunk =
        std::min({n - result.done, kPageBytes - src % kPageBytes,
                  kPageBytes - dst % kPageBytes});
    const std::uint8_t* from = arena_.data() + arena_offset(src);
    std::uint8_t* to = arena_.data() + arena_offset(dst);
    if (to + chunk <= from || from + chunk <= to) {
      std::memcpy(to, from, chunk);
    } else {
      for (std::uint32_t j = 0; j < chunk; ++j) to[j] = from[j];
    }
    result.last = to[chunk - 1];
    result.done += chunk;
    src += chunk;
    dst += chunk;
  }
  return result;
}

void Memory::write_block(std::uint32_t addr,
                         std::span<const std::uint8_t> data) {
  if (data.empty()) return;
  check_block(addr, data.size(), "Memory::write_block outside a region");
  for (std::uint32_t a = addr & ~(kPageBytes - 1); a < addr + data.size();
       a += kPageBytes) {
    touch_page(a / kPageBytes);
  }
  std::memcpy(arena_.data() + arena_offset(addr), data.data(), data.size());
}

util::Bytes Memory::read_block(std::uint32_t addr, std::size_t len) const {
  if (len == 0) return {};
  check_block(addr, len, "Memory::read_block outside a region");
  const std::uint8_t* p = arena_.data() + arena_offset(addr);
  return util::Bytes(p, p + len);
}

}  // namespace sdmmon::np
