// Flash translation layer interface (paper §II.A).
//
// The FTL exposes a flat logical-page address space over a NandArray and
// hides erase-before-write behind out-of-place updates + garbage
// collection. The paper takes the "ideal page-based FTL" as its
// baseline; we implement that (PageFtl) plus block mapping (BlockFtl),
// the other end of the mapping-granularity range §II.A surveys, for
// ablation.
//
// Correctness instrumentation: every logical page carries a version
// counter; writes program tag = (lpn << 32 | version) into NAND and
// reads verify the mapped physical page holds exactly that tag, so any
// mapping or GC bug trips immediately.
#pragma once

#include <cstdint>
#include <string>

#include "src/storage/nand.hpp"
#include "src/util/types.hpp"

namespace ssdse {

/// Logical page number.
using Lpn = std::uint64_t;

struct FtlStats {
  std::uint64_t host_reads = 0;
  std::uint64_t host_writes = 0;
  std::uint64_t host_trims = 0;
  std::uint64_t gc_invocations = 0;
  std::uint64_t gc_page_copies = 0;
  Micros host_busy = micros(0);  // latency charged to host ops (incl. GC stalls)
  Micros gc_busy = micros(0);    // portion of host_busy spent inside GC/merges
  // Fault/BBM accounting (DESIGN.md §10); all zero when faults are off.
  std::uint64_t read_retries = 0;        // ECC ladder steps consumed
  std::uint64_t uncorrectable_reads = 0; // host reads failed past the ladder
  std::uint64_t program_failures = 0;    // injected host program failures
  std::uint64_t remapped_writes = 0;     // host writes salvaged by remap
  std::uint64_t grown_bad_blocks = 0;    // blocks retired from the pool

  /// Write amplification: NAND programs / host writes.
  double write_amplification(const NandStats& nand) const {
    return host_writes
               ? static_cast<double>(nand.page_programs) /
                     static_cast<double>(host_writes)
               : 0.0;
  }
  [[nodiscard]] Micros mean_access() const {
    const auto ops = host_reads + host_writes;
    return ops ? host_busy / static_cast<double>(ops) : Micros{};
  }
};

class Ftl {
 public:
  explicit Ftl(NandArray& nand) : nand_(nand) {}
  virtual ~Ftl() = default;

  Ftl(const Ftl&) = delete;
  Ftl& operator=(const Ftl&) = delete;

  /// Logical capacity exported to the host (< physical capacity; the
  /// rest is over-provisioning).
  [[nodiscard]] virtual Lpn logical_pages() const = 0;

  /// Read a logical page. Reading a never-written/trimmed page is legal
  /// (returns erased-pattern cost). Returns latency + status: with the
  /// NAND fault model armed, a read may be kRetried (extra latency) or
  /// kUncorrectable (data unavailable; the caller degrades).
  virtual IoResult read(Lpn lpn) = 0;

  /// Read `count` consecutive logical pages. Identical accounting to
  /// calling read() per page (same per-page latency sum, same stats),
  /// but one dispatch per run — the host read path issues every list
  /// and result-cache access through here. Statuses merge to the most
  /// severe.
  virtual IoResult read_run(Lpn first, std::uint64_t count) {
    IoResult io;
    for (std::uint64_t i = 0; i < count; ++i) io += read(first + i);
    return io;
  }

  /// Write a logical page (out-of-place). Returns latency including any
  /// GC work it had to wait for. FTLs with bad-block management remap
  /// failed programs internally and return kOk.
  virtual IoResult write(Lpn lpn) = 0;

  /// Write `count` consecutive logical pages; identical accounting to
  /// calling write() per page, one dispatch per run.
  virtual IoResult write_run(Lpn first, std::uint64_t count) {
    IoResult io;
    for (std::uint64_t i = 0; i < count; ++i) io += write(first + i);
    return io;
  }

  /// Drop a logical page (SSD TRIM): unmap and invalidate. Pure mapping
  /// work — cannot fail, so it keeps the bare-latency signature.
  [[nodiscard]] virtual Micros trim(Lpn lpn) = 0;

  /// Whether this scheme tolerates program failures via grown-bad-block
  /// management. Ssd's constructor rejects configs that inject program
  /// faults into a scheme that cannot absorb them.
  [[nodiscard]] virtual bool supports_bad_blocks() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] const FtlStats& stats() const { return stats_; }
  NandArray& nand() { return nand_; }
  [[nodiscard]] const NandArray& nand() const { return nand_; }

 protected:
  static std::uint64_t make_tag(Lpn lpn, std::uint32_t version) {
    return (lpn << 32) | version;
  }
  static Lpn tag_lpn(std::uint64_t tag) { return tag >> 32; }

  NandArray& nand_;
  FtlStats stats_;
};

struct FtlConfig {
  /// Fraction of physical blocks reserved as over-provisioning (not in
  /// the host-visible logical space). Intel consumer SSDs are ~7 %.
  double over_provisioning = 0.07;
  /// GC starts when the free-block pool drops to this size.
  std::uint32_t gc_low_watermark = 4;
  /// Wear leveling (PageFtl): allocate the least-worn free block and
  /// break GC-victim ties toward less-worn blocks, narrowing the erase
  /// spread across the array.
  bool wear_leveling = false;
};

}  // namespace ssdse
