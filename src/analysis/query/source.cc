#include "analysis/query/source.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "io/shard_store.h"

namespace tokyonet::analysis::query {

Year ShardedSource::year() const noexcept { return store_->year(); }

const CampaignCalendar& ShardedSource::calendar() const noexcept {
  return store_->calendar();
}

std::size_t ShardedSource::n_devices() const noexcept {
  return static_cast<std::size_t>(store_->manifest().n_devices);
}

std::size_t ShardedSource::n_samples() const noexcept {
  return static_cast<std::size_t>(store_->manifest().n_samples);
}

const std::vector<ApInfo>& ShardedSource::aps() const noexcept {
  return store_->universe_aps();
}

void ShardedSource::fold_blocks(const ScanFn& scan, const FoldFn& fold) const {
  const std::size_t n_shards = store_->num_shards();

  // The prefetcher's loader thread stays one load ahead while up to K
  // scanner threads turn delivered shards into partials; this thread
  // folds the partials in shard order. Residency tokens bound live
  // shard payloads to K + 1 (K being scanned + one loading); K = 0 runs
  // one scanner under a budget of one token, so exactly one shard is
  // resident and the loader waits for each scan to finish. Folded-but-
  // unconsumed partials are whatever the kernel parks — O(shard devices
  // + touched APs) for every kernel in the catalog.
  const std::size_t k = resident_shards_;
  io::ShardPrefetcher prefetcher(*store_, k + 1);

  struct Slots {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::optional<std::shared_ptr<void>>> partials;
    std::size_t error_index;  // first failed shard, n_shards if none
    io::SnapshotResult error;
  };
  Slots slots;
  slots.partials.resize(n_shards);
  slots.error_index = n_shards;

  auto worker = [&] {
    io::ShardPrefetcher::Loaded item;
    while (prefetcher.next(item)) {
      if (!item.result.ok()) {
        std::lock_guard<std::mutex> lk(slots.mu);
        if (item.index < slots.error_index) {
          slots.error_index = item.index;
          slots.error = item.result;
        }
        slots.cv.notify_all();
        return;
      }
      const std::size_t idx = item.index;
      std::shared_ptr<void> p = scan(item.dataset, store_->device_begin(idx));
      // Drop the shard payload (and its residency token) before parking
      // the partial for the folder.
      item = io::ShardPrefetcher::Loaded{};
      std::lock_guard<std::mutex> lk(slots.mu);
      slots.partials[idx] = std::move(p);
      slots.cv.notify_all();
    }
  };

  std::vector<std::thread> workers;
  const std::size_t n_workers =
      std::min(std::max<std::size_t>(k, 1), n_shards);
  workers.reserve(n_workers);
  for (std::size_t w = 0; w < n_workers; ++w) workers.emplace_back(worker);

  io::SnapshotResult err;
  try {
    for (std::size_t i = 0; i < n_shards; ++i) {
      std::unique_lock<std::mutex> lk(slots.mu);
      slots.cv.wait(lk, [&] {
        return slots.partials[i].has_value() || slots.error_index <= i;
      });
      if (slots.error_index <= i) {
        // Shards >= error_index were never delivered; everything before
        // it has already been folded.
        err = slots.error;
        break;
      }
      std::shared_ptr<void> p = std::move(*slots.partials[i]);
      slots.partials[i].reset();
      lk.unlock();
      fold(std::move(p), store_->device_begin(i));
    }
  } catch (...) {
    prefetcher.cancel();
    for (std::thread& t : workers) t.join();
    throw;
  }
  for (std::thread& t : workers) t.join();
  if (!err.ok()) throw SourceError(std::move(err));
}

}  // namespace tokyonet::analysis::query
