// DataSource: one campaign, two execution backends.
//
// Every analysis kernel is written once, as a block scan plus an
// ordered fold, and runs on either backend: scan(block, base) turns
// one contiguous device range (a Dataset with block-local device ids
// whose global indices start at `base`) into a partial, and the fold
// merges partials in device order. A DataSource hides which backend
// delivers the blocks:
//
//  - InMemorySource serves the whole resident campaign as a single
//    block at base 0, so a kernel's in-memory result is *by
//    construction* the plain kernel over the full Dataset — the scan
//    half keeps its existing chunked-parallel implementation
//    (query/scan.h) and nothing changes byte-wise.
//  - ShardedSource walks an io::ShardedDataset shard by shard: an
//    io::ShardPrefetcher keeps one load in flight while up to K =
//    resident_shards scanner threads produce partials, bounding live
//    shard payloads to K + 1 (DESIGN.md §5j). K = 0 runs one scanner
//    with a one-shard budget: strictly one shard resident at a time.
//    Partials are always folded in strict shard order on the calling
//    thread.
//
// Determinism contract: every partial a kernel parks here is an exact
// integer accumulation, a max-merge, or per-device products folded one
// device at a time, so the shard-order fold reproduces the in-memory
// scan byte-identically at any (threads, shards, resident_shards) — the
// same argument DESIGN.md §5c makes for the chunk geometry in
// query/scan.h.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/records.h"
#include "io/snapshot.h"

namespace tokyonet::io {
class ShardedDataset;
}

namespace tokyonet::analysis::query {

/// Thrown by the out-of-core backend when a shard fails to load
/// (missing file, checksum mismatch, ...). Carries the io layer's
/// result so callers can map it onto the CLI exit-code contract.
class SourceError : public std::runtime_error {
 public:
  explicit SourceError(io::SnapshotResult r)
      : std::runtime_error(r.error), result_(std::move(r)) {}
  [[nodiscard]] const io::SnapshotResult& result() const noexcept {
    return result_;
  }

 private:
  io::SnapshotResult result_;
};

/// Appends one block's device-ordered products to the campaign's: the
/// merge step of DataSource::concat(), also used by partials that hold
/// several such vectors.
template <typename T>
void append(std::vector<T>& into, const std::vector<T>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

class DataSource {
 public:
  virtual ~DataSource() = default;

  // Campaign frame, resident in both backends.
  [[nodiscard]] virtual Year year() const noexcept = 0;
  [[nodiscard]] virtual const CampaignCalendar& calendar() const noexcept = 0;
  [[nodiscard]] virtual std::size_t n_devices() const noexcept = 0;
  [[nodiscard]] virtual std::size_t n_samples() const noexcept = 0;
  /// The global AP universe (shards reference APs by global id).
  [[nodiscard]] virtual const std::vector<ApInfo>& aps() const noexcept = 0;
  [[nodiscard]] int num_days() const noexcept {
    return calendar().num_days();
  }

  /// The whole campaign when it is resident (in-memory backend);
  /// nullptr out of core. No code under src/ calls it: every kernel
  /// runs through fold_blocks() on both backends. It stays for wrapping
  /// sources outside src/ that forward it.
  [[nodiscard]] virtual const Dataset* dataset_or_null() const noexcept = 0;

  /// Type-erased block fold. `scan` may run concurrently for several
  /// blocks and must be a pure function of (block, base); `fold` runs
  /// on the calling thread, in device (= shard) order. Throws
  /// SourceError when the backend fails to deliver a block.
  using ScanFn =
      std::function<std::shared_ptr<void>(const Dataset& block,
                                          std::size_t device_base)>;
  using FoldFn = std::function<void(std::shared_ptr<void> partial,
                                    std::size_t device_base)>;
  virtual void fold_blocks(const ScanFn& scan, const FoldFn& fold) const = 0;

  /// Typed fold: scan(block, base) -> P, fold(P&&, base) in block order.
  template <typename P, typename Scan, typename Fold>
  void fold(Scan&& scan, Fold&& fold) const {
    fold_blocks(
        [&](const Dataset& block, std::size_t base) -> std::shared_ptr<void> {
          return std::make_shared<P>(scan(block, base));
        },
        [&](std::shared_ptr<void> p, std::size_t base) {
          fold(std::move(*std::static_pointer_cast<P>(p)), base);
        });
  }

  /// Ordered reduction for base-independent monoid partials: the first
  /// block's partial seeds the accumulator (so the single-block
  /// in-memory case is exactly the plain scan), later partials merge in
  /// block order via merge(acc, partial).
  template <typename P, typename Scan, typename Merge>
  [[nodiscard]] P reduce(Scan&& scan, Merge&& merge) const {
    std::optional<P> acc;
    fold<P>(std::forward<Scan>(scan), [&](P&& p, std::size_t) {
      if (!acc) {
        acc.emplace(std::move(p));
      } else {
        merge(*acc, std::move(p));
      }
    });
    return acc ? std::move(*acc) : P{};
  }

  /// Concatenation for per-device products: scan(block, base) returns
  /// one vector in block-local device order; appending in block order
  /// yields the campaign's products in global device order.
  template <typename T, typename Scan>
  [[nodiscard]] std::vector<T> concat(Scan&& scan) const {
    return reduce<std::vector<T>>(std::forward<Scan>(scan),
                                  [](std::vector<T>& acc, std::vector<T>&& p) {
                                    append(acc, p);
                                  });
  }
};

/// The resident campaign as a single block at device base 0.
class InMemorySource final : public DataSource {
 public:
  explicit InMemorySource(const Dataset& ds) noexcept : ds_(&ds) {}

  [[nodiscard]] Year year() const noexcept override { return ds_->year; }
  [[nodiscard]] const CampaignCalendar& calendar() const noexcept override {
    return ds_->calendar;
  }
  [[nodiscard]] std::size_t n_devices() const noexcept override {
    return ds_->devices.size();
  }
  [[nodiscard]] std::size_t n_samples() const noexcept override {
    return ds_->samples.size();
  }
  [[nodiscard]] const std::vector<ApInfo>& aps() const noexcept override {
    return ds_->aps;
  }
  [[nodiscard]] const Dataset* dataset_or_null() const noexcept override {
    return ds_;
  }
  void fold_blocks(const ScanFn& scan, const FoldFn& fold) const override {
    fold(scan(*ds_, 0), 0);
  }

 private:
  const Dataset* ds_;
};

/// Shard-by-shard delivery from an open io::ShardedDataset. The store
/// must outlive the source; fold_blocks may be called any number of
/// times (each call is one full pass over the store).
class ShardedSource final : public DataSource {
 public:
  /// `resident_shards` is the K of DESIGN.md §5j: K >= 1 = prefetch +
  /// K scanner threads (K + 1 shards resident), 0 = one scanner and
  /// exactly one shard resident.
  explicit ShardedSource(io::ShardedDataset& store,
                         std::size_t resident_shards = 1) noexcept
      : store_(&store), resident_shards_(resident_shards) {}

  [[nodiscard]] Year year() const noexcept override;
  [[nodiscard]] const CampaignCalendar& calendar() const noexcept override;
  [[nodiscard]] std::size_t n_devices() const noexcept override;
  [[nodiscard]] std::size_t n_samples() const noexcept override;
  [[nodiscard]] const std::vector<ApInfo>& aps() const noexcept override;
  [[nodiscard]] const Dataset* dataset_or_null() const noexcept override {
    return nullptr;
  }
  void fold_blocks(const ScanFn& scan, const FoldFn& fold) const override;

  [[nodiscard]] io::ShardedDataset& store() const noexcept { return *store_; }

 private:
  io::ShardedDataset* store_;
  std::size_t resident_shards_;
};

}  // namespace tokyonet::analysis::query
