#include "sfi/driver.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "sfi/engine.hpp"

namespace sfi::inject {

u32 resolve_threads(u32 requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

u32 campaign_shard_size(const CampaignConfig& cfg, u32 requested) {
  return std::max(
      {1u, requested, cfg.engine == EngineKind::Lanes ? cfg.lanes : 1u});
}

void run_workers(u32 threads, const std::function<void(u32 tid)>& work) {
  if (threads <= 1) {
    work(0);
    return;
  }
  std::mutex mu;
  std::exception_ptr first;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (u32 t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      // An exception escaping a std::thread terminates the process; park
      // it for the caller instead, so a daemon fails one campaign, not all.
      try {
        work(t);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!first) first = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  if (first) std::rethrow_exception(first);
}

DriveResult drive_campaign(const avp::Testcase& tc, const CampaignConfig& cfg,
                           const CampaignPlan& plan,
                           std::span<const u32> pending,
                           const DriverConfig& dc,
                           const std::function<void(const FlushWindow&)>& sink) {
  DriveResult result;
  const u64 shard_size = campaign_shard_size(cfg, dc.shard_size);
  const u64 num_shards = (pending.size() + shard_size - 1) / shard_size;
  const u64 cap = dc.max_new_injections == 0
                      ? pending.size()
                      : std::min<u64>(dc.max_new_injections, pending.size());
  if (num_shards == 0 || cap == 0) return result;

  const u32 threads =
      static_cast<u32>(std::min<u64>(resolve_threads(dc.threads), num_shards));
  CampaignTelemetry* tel = cfg.telemetry;
  if (tel != nullptr) tel->prepare_workers(threads);
  std::vector<std::unique_ptr<InjectionEngine>> engines;
  engines.reserve(threads);
  for (u32 t = 0; t < threads; ++t) {
    engines.push_back(make_engine(tc, cfg, plan));
  }

  const u32 flush_records = std::max(1u, dc.flush_records);
  std::atomic<u64> next_shard{0};
  std::atomic<u64> claimed{0};
  std::atomic<bool> stop_observed{false};
  std::atomic<bool> failed{false};

  const auto work = [&](u32 tid) {
    InjectionEngine& eng = *engines[tid];
    WorkerTelemetry* wt = tel != nullptr ? &tel->worker(tid) : nullptr;
    FlushWindow window;
    window.records.reserve(flush_records);
    const auto flush = [&] {
      // Fold this worker's metrics shard at every flush boundary: live
      // readers (the daemon's /metrics scrape) then see near-current totals
      // without touching a foreign shard. The worker owns its shard, so
      // this is race-free by construction.
      if (wt != nullptr) wt->fold();
      if (window.records.empty() && window.footprints.empty()) return;
      sink(window);
      window.records.clear();
      window.footprints.clear();
    };

    bool stop_claiming = false;
    while (!stop_claiming) {
      const u64 shard = next_shard.fetch_add(1, std::memory_order_relaxed);
      if (shard >= num_shards) break;
      const std::size_t begin = shard * shard_size;
      const std::size_t end =
          std::min<std::size_t>(begin + shard_size, pending.size());
      if (wt != nullptr) wt->shard_begin(shard, end - begin);
      u64 executed = 0;
      // The engine pulls claims one at a time; stop/cap checks live in the
      // claim so an engine holding lanes in flight stops claiming the
      // moment either fires (everything already claimed is finished and
      // emitted — the engine contract).
      std::size_t p = begin;
      eng.run(
          [&]() -> std::optional<u32> {
            if (p >= end) return std::nullopt;
            // Cooperative interruption (SIGINT/SIGTERM, early stop) or a
            // failed sibling: stop claiming, fall through to the final
            // flush so every finished record lands.
            if (failed.load(std::memory_order_relaxed)) {
              stop_claiming = true;
              return std::nullopt;
            }
            if (dc.should_stop && dc.should_stop()) {
              stop_observed.store(true, std::memory_order_relaxed);
              stop_claiming = true;
              return std::nullopt;
            }
            // Claim one execution slot; the cap models an interrupted run.
            if (claimed.fetch_add(1, std::memory_order_relaxed) >= cap) {
              stop_claiming = true;
              return std::nullopt;
            }
            return pending[p++];
          },
          [&](u32 index, const InjectionRecord& rec,
              std::optional<PropagationRecord> fp) {
            window.records.push_back({index, rec});
            if (fp) window.footprints.push_back(std::move(*fp));
            ++executed;
            if (window.records.size() >= flush_records) flush();
          },
          wt);
      if (wt != nullptr) wt->shard_end(shard, executed);
    }
    flush();
  };

  run_workers(threads, [&](u32 tid) {
    try {
      work(tid);
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      throw;
    }
  });

  result.shards = std::min<u64>(next_shard.load(), num_shards);
  result.stopped = stop_observed.load();
  for (const auto& eng : engines) {
    result.cycles_evaluated += eng->cycles_evaluated();
    result.cycles_fast_forwarded += eng->cycles_fast_forwarded();
    result.checkpoint_ops += eng->checkpoint_ops();
  }
  return result;
}

}  // namespace sfi::inject
