// Test-only reference for the FTLs: a flat logical store that records,
// per logical page, whether it holds data and which write put it there,
// plus the host op counts. It has no physical layout, no GC and no
// merges, so it is obviously correct; every FTL scheme is run in
// lockstep against it (tests/ftl_schemes_test.cpp's FtlSweepTest).
#pragma once

#include <cstdint>
#include <vector>

#include "src/ftl/ftl.hpp"

namespace ssdse {

class ReferenceFtl {
 public:
  explicit ReferenceFtl(Lpn logical_pages) : pages_(logical_pages) {}

  void write(Lpn lpn) {
    Page& p = pages_.at(lpn);
    live_ += p.mapped ? 0 : 1;
    p.mapped = true;
    ++p.version;
    ++host_writes_;
  }

  void trim(Lpn lpn) {
    Page& p = pages_.at(lpn);
    live_ -= p.mapped ? 1 : 0;
    p.mapped = false;
    ++host_trims_;
  }

  /// Whether a read of `lpn` must reach flash (the page holds data).
  bool read(Lpn lpn) {
    ++host_reads_;
    return pages_.at(lpn).mapped;
  }

  [[nodiscard]] bool mapped(Lpn lpn) const { return pages_.at(lpn).mapped; }
  /// Number of host writes that have landed on `lpn` so far.
  [[nodiscard]] std::uint32_t version(Lpn lpn) const {
    return pages_.at(lpn).version;
  }
  [[nodiscard]] Lpn live_pages() const { return live_; }
  [[nodiscard]] std::uint64_t host_reads() const { return host_reads_; }
  [[nodiscard]] std::uint64_t host_writes() const { return host_writes_; }
  [[nodiscard]] std::uint64_t host_trims() const { return host_trims_; }

 private:
  struct Page {
    bool mapped = false;
    std::uint32_t version = 0;
  };
  std::vector<Page> pages_;
  Lpn live_ = 0;
  std::uint64_t host_reads_ = 0;
  std::uint64_t host_writes_ = 0;
  std::uint64_t host_trims_ = 0;
};

}  // namespace ssdse
