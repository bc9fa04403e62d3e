#include "src/ftl/page_ftl.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ssdse {

PageFtl::PageFtl(NandArray& nand, const FtlConfig& cfg)
    : Ftl(nand), cfg_(cfg) {
  const auto& nc = nand_.config();
  // Over-provisioning must at least cover the GC watermark plus the two
  // active blocks and one block of GC headroom, or steady-state GC can
  // never refill the free pool on small arrays.
  const auto reserved = std::max(
      static_cast<std::uint32_t>(static_cast<double>(nc.num_blocks) *
                                 cfg_.over_provisioning),
      cfg_.gc_low_watermark + 4);
  if (nc.num_blocks <= reserved + 2) {
    throw std::invalid_argument("PageFtl: NAND too small for OP + reserve");
  }
  // NandArray keeps total_pages() below kUnmapped, so every page number
  // fits the 32-bit maps.
  logical_pages_ =
      static_cast<Lpn>(nc.num_blocks - reserved) * nc.pages_per_block;
  map_.assign(logical_pages_, kUnmapped);
  version_.assign(logical_pages_, 0);
  rmap_.assign(nc.total_pages(), kUnmapped);
  valid_.assign(nc.num_blocks, 0);
  state_.assign(nc.num_blocks, BState::kFree);
  seal_wear_.assign(nc.num_blocks, 0);
  by_valid_.assign(nc.pages_per_block + 1, Bitmap(nc.num_blocks));
  run_tags_.resize(nc.pages_per_block);
  free_blocks_.reserve(nc.num_blocks);
  // Highest block numbers first so allocation starts at block 0. Under
  // wear leveling the vector is kept as a heap ordered by wear (least
  // worn popped first); with uniform initial wear the orders coincide.
  for (Pbn b = nc.num_blocks; b-- > 0;) free_blocks_.push_back(b);
  if (cfg_.wear_leveling) {
    auto cmp = [this](Pbn x, Pbn y) {
      const auto wx = nand_.erase_count(x);
      const auto wy = nand_.erase_count(y);
      if (wx != wy) return wx > wy;
      return x > y;
    };
    std::make_heap(free_blocks_.begin(), free_blocks_.end(), cmp);
  }
  for (int s = 0; s < 2; ++s) {
    active_[s] = pop_free_block();
    state_[active_[s]] = BState::kActive;
    cursor_[s] = 0;
  }
}

void PageFtl::check_run(Lpn first, std::uint64_t count) const {
  if (count > logical_pages_ || first > logical_pages_ - count) {
    throw std::out_of_range("PageFtl: lpn beyond logical space");
  }
}

void PageFtl::drop_valid(Pbn blk, std::uint32_t pages) {
  assert(valid_[blk] >= pages);
  if (state_[blk] == BState::kUsed) {
    by_valid_[valid_[blk]].clear(blk);
    by_valid_[valid_[blk] - pages].set(blk);
  }
  valid_[blk] -= pages;
}

Pbn PageFtl::pop_free_block() {
  assert(!free_blocks_.empty());
  if (!cfg_.wear_leveling) {
    const Pbn b = free_blocks_.back();
    free_blocks_.pop_back();
    return b;
  }
  // Least-worn free block first (heap by descending wear at the back).
  auto cmp = [this](Pbn a, Pbn b) {
    const auto wa = nand_.erase_count(a);
    const auto wb = nand_.erase_count(b);
    if (wa != wb) return wa > wb;  // min-wear at the heap top
    return a > b;
  };
  std::pop_heap(free_blocks_.begin(), free_blocks_.end(), cmp);
  const Pbn b = free_blocks_.back();
  free_blocks_.pop_back();
  return b;
}

void PageFtl::push_free_block(Pbn b) {
  free_blocks_.push_back(b);
  if (cfg_.wear_leveling) {
    auto cmp = [this](Pbn x, Pbn y) {
      const auto wx = nand_.erase_count(x);
      const auto wy = nand_.erase_count(y);
      if (wx != wy) return wx > wy;
      return x > y;
    };
    std::push_heap(free_blocks_.begin(), free_blocks_.end(), cmp);
  }
}

void PageFtl::open_block(int s) {
  const Pbn old = active_[s];
  state_[old] = BState::kUsed;
  seal_wear_[old] = cfg_.wear_leveling ? nand_.erase_count(old) : 0;
  by_valid_[valid_[old]].set(old);
  if (free_blocks_.empty()) {
    throw std::logic_error("PageFtl: free pool exhausted (GC invariant)");
  }
  active_[s] = pop_free_block();
  state_[active_[s]] = BState::kActive;
  cursor_[s] = 0;
}

std::uint32_t PageFtl::alloc_gc_page() {
  const auto ppb = nand_.config().pages_per_block;
  if (cursor_[1] == ppb) open_block(1);
  return active_[1] * ppb + cursor_[1]++;
}

Micros PageFtl::relocate_valid_pages(Pbn b) {
  Micros cost = micros(0);
  const auto ppb = nand_.config().pages_per_block;
  const std::uint32_t base = b * ppb;
  for (std::uint32_t src = base; src < base + ppb && valid_[b] > 0; ++src) {
    const std::uint32_t lpn = rmap_[src];
    if (lpn == kUnmapped) continue;  // invalid page, skip
    assert(map_[lpn] == src);
    std::uint64_t tag = 0;
    cost += nand_.read_page(src, &tag);
    assert(tag == make_tag(lpn, version_[lpn]));
    const std::uint32_t dst = alloc_gc_page();
    cost += nand_.program_page(dst, tag);
    map_[lpn] = dst;
    rmap_[dst] = lpn;
    // Direct invalidation: `b` is out of the victim index.
    --valid_[b];
    rmap_[src] = kUnmapped;
    ++valid_[nand_.block_of(dst)];
  }
  if (valid_[b] != 0) {
    throw std::logic_error("PageFtl: valid count above the block's live pages");
  }
  return cost;
}

Micros PageFtl::gc_once(std::uint32_t v) {
  Bitmap& bucket = by_valid_[v];
  auto victim = static_cast<Pbn>(bucket.next_set(0));
  if (cfg_.wear_leveling) {
    // Least (seal_wear, block): blocks come in ascending order, so only
    // strictly less wear displaces the current pick.
    for (std::size_t b = bucket.next_set(victim + 1); b < bucket.size();
         b = bucket.next_set(b + 1)) {
      if (seal_wear_[b] < seal_wear_[victim]) victim = static_cast<Pbn>(b);
    }
  }
  bucket.clear(victim);
  Micros cost = relocate_valid_pages(victim);
  stats_.gc_page_copies += v;
  cost += nand_.erase_block(victim);
  state_[victim] = BState::kFree;
  push_free_block(victim);
  ++stats_.gc_invocations;
  stats_.gc_busy += cost;
  return cost;
}

Micros PageFtl::collect_garbage() {
  const auto ppb = nand_.config().pages_per_block;
  Micros cost = micros(0);
  while (free_blocks_.size() < cfg_.gc_low_watermark) {
    std::uint32_t v = 0;
    while (v < ppb && by_valid_[v].none()) ++v;
    // A victim is reclaimable when it holds an invalid page and its
    // valid pages can be relocated.
    if (v == ppb || !relocation_fits(v, /*held=*/0)) {
      if (stats_.grown_bad_blocks == 0) {
        throw std::logic_error(
            "PageFtl: no reclaimable block (logical space overcommitted)");
      }
      break;  // grown bad blocks ate the headroom: stay below the watermark
    }
    cost += gc_once(v);
  }
  return cost;
}

IoResult PageFtl::read_run(Lpn first, std::uint64_t count) {
  check_run(first, count);
  IoResult run;
  for (Lpn lpn = first; lpn < first + count; ++lpn) {
    ++stats_.host_reads;
    IoResult io;
    io += kCtrlOverhead;
    const std::uint32_t ppn = map_[lpn];
    if (ppn != kUnmapped) {
      std::uint64_t tag = 0;
      io += nand_.read_page_checked(ppn, &tag);
      if (tag != make_tag(lpn, version_[lpn])) {
        throw std::logic_error("PageFtl: tag mismatch on read (mapping bug)");
      }
      stats_.read_retries += io.retries;
      if (io.status == IoStatus::kUncorrectable) ++stats_.uncorrectable_reads;
    }
    stats_.host_busy += io.latency;
    run += io;
  }
  return run;
}

bool PageFtl::relocation_fits(std::uint32_t pages, std::size_t held) const {
  // The pages fill the GC stream's open block, then at most one fresh
  // block: a relocated block holds fewer valid pages than a block has.
  const auto room = nand_.config().pages_per_block - cursor_[1];
  return free_blocks_.size() >= held + (pages > room ? 1 : 0);
}

Micros PageFtl::retire_active_block(int s) {
  const Pbn b = active_[s];
  // Install the replacement first so relocation programs land in a
  // different block than the one being retired. The caller (write_run)
  // retires only when relocation_fits() holds with the replacement held
  // back, so neither this pop nor relocation can find the pool empty.
  assert(!free_blocks_.empty());
  active_[s] = pop_free_block();
  state_[active_[s]] = BState::kActive;
  cursor_[s] = 0;
  // Relocate the dying block's valid pages onto the GC stream. The
  // poisoned page has no rmap entry, so it is skipped like any invalid
  // page. Relocation uses the fault-free NAND ops: modeling relocation
  // failure would mean data loss, which the latency-only simulation
  // cannot represent (DESIGN.md §10).
  Micros cost = relocate_valid_pages(b);
  cost += nand_.erase_block(b);
  state_[b] = BState::kBad;  // never pushed back to the free pool
  ++stats_.grown_bad_blocks;
  return cost;
}

void PageFtl::supersede(Lpn first, std::uint32_t count) {
  stats_.host_writes += count;
  // Pages written together are rewritten together, so a run's old
  // copies mostly sit side by side: drop valid counts once per stretch
  // of one block rather than once per page.
  Pbn blk = 0;
  std::uint32_t stale = 0;
  for (Lpn lpn = first; lpn < first + count; ++lpn) {
    ++version_[lpn];
    const std::uint32_t old = map_[lpn];
    if (old == kUnmapped) continue;
    rmap_[old] = kUnmapped;
    if (stale > 0 && nand_.block_of(old) != blk) {
      drop_valid(blk, stale);
      stale = 0;
    }
    blk = nand_.block_of(old);
    ++stale;
  }
  if (stale > 0) drop_valid(blk, stale);
}

IoResult PageFtl::write_run(Lpn first, std::uint64_t count) {
  check_run(first, count);
  const auto ppb = nand_.config().pages_per_block;
  const Lpn end = first + count;
  IoResult run;
  // The page at `lpn` and its latency so far. `retry`: its program
  // failed, so it is already superseded and waits for a fresh block.
  Lpn lpn = first;
  IoResult io;
  bool retry = false;
  while (lpn < end) {
    if (cursor_[0] == ppb) {
      if (free_blocks_.empty()) {
        // Spare-pool exhaustion (ROADMAP): grown bad blocks have eaten
        // the over-provisioning, so there is no page left to remap onto.
        // Surface a clean kWriteFailed instead of aborting the
        // simulation; the logical page reads as unmapped afterwards
        // (the data never reached flash).
        if (!retry) {
          supersede(lpn, 1);
          io = IoResult{};
          io += kCtrlOverhead;
        }
        map_[lpn] = kUnmapped;
        io.status = IoStatus::kWriteFailed;
        stats_.host_busy += io.latency;
        run += io;
        retry = false;
        ++lpn;
        continue;
      }
      open_block(0);
    }
    // One program run per stretch of the active block. GC runs after
    // the page that took a free block, before the next page programs,
    // so such a page runs alone.
    const bool gc_due = free_blocks_.size() < cfg_.gc_low_watermark;
    const auto n = gc_due ? 1u
                          : static_cast<std::uint32_t>(std::min<std::uint64_t>(
                                end - lpn, ppb - cursor_[0]));
    const std::uint32_t resumed = retry ? 1 : 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      run_tags_[i] =
          make_tag(lpn + i, version_[lpn + i] + (i < resumed ? 0 : 1));
    }
    const std::uint32_t base = active_[0] * ppb + cursor_[0];
    const auto programmed =
        nand_.program_run_checked(base, run_tags_.data(), n);
    cursor_[0] += programmed.consumed;
    // Every consumed page, a failed one included, is a host write.
    supersede(lpn + resumed, programmed.consumed - resumed);
    for (std::uint32_t i = 0; i < programmed.consumed; ++i, ++lpn) {
      if (i >= resumed) {
        io = IoResult{};
        io += kCtrlOverhead;
      }
      io += nand_.config().page_program;
      if (programmed.failed && i + 1 == programmed.consumed) break;
      map_[lpn] = base + i;
      rmap_[base + i] = static_cast<std::uint32_t>(lpn);
      ++valid_[active_[0]];
      if (gc_due) io += collect_garbage();
      stats_.host_busy += io.latency;
      run += io;
    }
    retry = programmed.failed;
    if (retry) {
      // Grown bad block: the program consumed the page but stored
      // nothing. Retire the whole active block and retry in a fresh one
      // — the failure never surfaces to the host while the pool can take
      // both the replacement and the block's live pages. Otherwise the
      // page retries in this block, which is later sealed and collected
      // like any other (program_failures then exceeds remapped_writes).
      ++stats_.program_failures;
      if (relocation_fits(valid_[active_[0]], /*held=*/1)) {
        io += retire_active_block(/*s=*/0);  // program faults hit the host stream
        ++stats_.remapped_writes;
      }
    }
  }
  return run;
}

Micros PageFtl::trim(Lpn lpn) {
  check_run(lpn, 1);
  ++stats_.host_trims;
  if (const std::uint32_t old = map_[lpn]; old != kUnmapped) {
    rmap_[old] = kUnmapped;
    drop_valid(nand_.block_of(old), 1);
    map_[lpn] = kUnmapped;
    ++version_[lpn];
  }
  return micros(1.0);  // mapping-table update only
}

}  // namespace ssdse
