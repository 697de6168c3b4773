// Per-layer probes. Each one times calls into one module's public functions
// on the workload's own state: the registry's real field offsets and hash
// masks, the plan's trace states and checkpoint store in cycle-sorted order,
// and the records the run just produced.
#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "avp/runner.hpp"
#include "bench.hpp"
#include "core/core_model.hpp"
#include "emu/checkpoint_store.hpp"
#include "emu/emulator.hpp"
#include "sfi/engine.hpp"
#include "sfi/runner.hpp"
#include "sfi/telemetry.hpp"
#include "store/merge.hpp"
#include "store/reader.hpp"
#include "store/tail.hpp"
#include "store/writer.hpp"

namespace perfbench {
namespace {

using namespace sfi;

/// Keep `v` observable so the call that produced it cannot be dropped.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// A worker-private machine at reset for the workload, as a campaign worker
/// builds it.
struct Machine {
  core::Pearl6Model model;
  emu::Emulator emu;
  Machine(const avp::Testcase& tc, const core::CoreConfig& cc)
      : model(cc), emu(model) {
    model.load_workload(tc.program, tc.init);
    emu.reset();
  }
};

/// Up to `max` dispatches of `order`, in blocks of 64 consecutive ones spread
/// evenly over it (a worker claims consecutive cycle-sorted indices).
std::vector<u32> spread_sample(const std::vector<u32>& order,
                               std::size_t max) {
  constexpr std::size_t kBlock = 64;
  if (order.size() <= max) return order;
  const std::size_t blocks = std::max<std::size_t>(1, max / kBlock);
  const std::size_t stride = order.size() / blocks;
  std::vector<u32> out;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * stride;
    const std::size_t end = std::min(begin + kBlock, order.size());
    out.insert(out.end(), order.begin() + static_cast<std::ptrdiff_t>(begin),
               order.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

/// Run `body` in passes until at least `min_s` seconds of it were timed;
/// `body` returns the operations one pass made. Returns seconds per op.
template <typename F>
double per_op_seconds(double min_s, F&& body) {
  double total = 0.0;
  u64 ops = 0;
  do {
    const auto t0 = Clock::now();
    ops += body();
    total += seconds_since(t0);
  } while (total < min_s);
  return ops == 0 ? 0.0 : total / static_cast<double>(ops);
}

}  // namespace

void probe_avp_emu(Tracer& tr, const ProbeInput& in, Metrics& m) {
  constexpr int kReps = 3;
  std::vector<double> golden_ms;
  std::vector<double> reference_ms;
  std::vector<double> build_ms;
  for (int r = 0; r < kReps; ++r) {
    {
      Tracer::Scope s(tr, "avp::run_golden", "avp");
      const auto t0 = Clock::now();
      const avp::GoldenResult g = avp::run_golden(in.tc);
      golden_ms.push_back(seconds_since(t0) * 1e3);
      keep(g.instructions);
    }
    core::Pearl6Model model(in.cfg.core);
    emu::Emulator emu(model);
    emu::GoldenTrace trace;
    {
      Tracer::Scope s(tr, "avp::run_reference", "avp");
      const auto t0 = Clock::now();
      trace = avp::run_reference(model, emu, in.tc, /*max_cycles=*/200000,
                                 /*record_states=*/true);
      reference_ms.push_back(seconds_since(t0) * 1e3);
    }
    {
      // The same store plan_campaign builds: auto interval, same budget.
      Tracer::Scope s(tr, "emu::build_checkpoint_store", "emu");
      emu::CheckpointStoreConfig cc;
      cc.interval =
          in.cfg.ckpt_interval == emu::kCkptAuto ? 0 : in.cfg.ckpt_interval;
      cc.memory_budget_bytes = in.cfg.ckpt_memory_budget;
      const auto t0 = Clock::now();
      const emu::CheckpointStore store = emu::build_checkpoint_store(
          emu, in.plan.window_end - 1, cc, &trace);
      build_ms.push_back(seconds_since(t0) * 1e3);
      keep(store);
    }
  }
  m.set("avp.golden_ms", median(golden_ms), "ms");
  m.set("avp.reference_ms", median(reference_ms), "ms");
  m.set("emu.ckpt_build_ms", median(build_ms), "ms");

  // Checkpoints in the order the campaign's cycle-sorted dispatch visits
  // them (a worker materializes each one once, then reuses it).
  const emu::CheckpointStore& ckpts = in.plan.ckpts;
  std::vector<std::size_t> order;
  for (const u32 i : in.indices) {
    const auto idx = ckpts.index_at_or_before(in.plan.faults[i].cycle);
    if (idx && (order.empty() || order.back() != *idx)) order.push_back(*idx);
  }
  if (order.empty()) {
    throw std::runtime_error("probe: the plan has no usable checkpoints");
  }
  std::vector<emu::Checkpoint> materialized(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    ckpts.materialize(order[k], materialized[k]);
  }
  emu::Checkpoint warm = materialized.front();
  double materialize_s = 0.0;
  {
    Tracer::Scope s(tr, "emu::CheckpointStore::materialize", "emu");
    materialize_s = per_op_seconds(0.1, [&] {
      for (const std::size_t idx : order) ckpts.materialize(idx, warm);
      return order.size();
    });
  }
  Machine mc(in.tc, in.cfg.core);
  double restore_s = 0.0;
  {
    Tracer::Scope s(tr, "emu::Emulator::restore_checkpoint", "emu");
    restore_s = per_op_seconds(0.1, [&] {
      for (const emu::Checkpoint& cp : materialized) {
        mc.emu.restore_checkpoint(cp);
      }
      return materialized.size();
    });
  }
  m.set("emu.materialize_us", materialize_s * 1e6, "us");
  m.set("emu.restore_us", restore_s * 1e6, "us");
  m.set("emu.ckpt_count", static_cast<double>(ckpts.size()), "count");
  m.set("emu.ckpt_resident_mb",
        static_cast<double>(ckpts.resident_bytes()) / (1024.0 * 1024.0),
        "MB");
}

void probe_core_netlist(Tracer& tr, const ProbeInput& in, Metrics& m) {
  Machine mc(in.tc, in.cfg.core);
  const Cycle end = in.plan.trace.completion_cycle;

  double cycle_s = 0.0;
  {
    Tracer::Scope s(tr, "emu::Emulator::step", "core");
    cycle_s = per_op_seconds(0.2, [&] {
      mc.emu.reset();
      for (Cycle c = 0; c < end; ++c) mc.emu.step();
      return end;
    });
  }
  m.set("core.cycle_ns", cycle_s * 1e9, "ns");

  // Up to ~256 reference states along the fault-free run.
  const Cycle stride = std::max<Cycle>(1, end / 256);
  std::vector<netlist::StateVector> states;
  std::vector<Cycle> cycles;
  mc.emu.reset();
  while (mc.emu.cycle() < end) {
    mc.emu.step();
    if (mc.emu.cycle() % stride == 0) {
      states.push_back(mc.emu.state());
      cycles.push_back(mc.emu.cycle());
    }
  }

  double ras_s = 0.0;
  {
    Tracer::Scope s(tr, "core::Pearl6Model::ras_status", "core");
    ras_s = per_op_seconds(0.05, [&] {
      for (const netlist::StateVector& sv : states) {
        const emu::RasStatus st = mc.model.ras_status(sv);
        keep(st);
      }
      return states.size();
    });
  }
  m.set("core.ras_status_ns", ras_s * 1e9, "ns");

  const netlist::LatchRegistry& reg = mc.model.registry();
  const std::vector<netlist::LatchMeta>& fields = reg.fields();
  u64 acc = 0;
  double read_s = 0.0;
  {
    Tracer::Scope s(tr, "netlist::StateVector::read", "netlist");
    read_s = per_op_seconds(0.1, [&] {
      for (const netlist::StateVector& sv : states) {
        for (const netlist::LatchMeta& f : fields) {
          acc ^= sv.read(f.bit_offset, f.width);
        }
      }
      return states.size() * fields.size();
    });
  }
  keep(acc);
  m.set("netlist.read_ns", read_s * 1e9, "ns");

  // Each state's own field values written back in place.
  std::vector<u64> values(fields.size());
  double write_s = 0.0;
  u64 writes = 0;
  {
    Tracer::Scope s(tr, "netlist::StateVector::write", "netlist");
    while (write_s < 0.1) {
      for (netlist::StateVector& sv : states) {
        for (std::size_t k = 0; k < fields.size(); ++k) {
          values[k] = sv.read(fields[k].bit_offset, fields[k].width);
        }
        const auto t0 = Clock::now();
        for (std::size_t k = 0; k < fields.size(); ++k) {
          sv.write(fields[k].bit_offset, fields[k].width, values[k]);
        }
        write_s += seconds_since(t0);
        writes += fields.size();
      }
    }
  }
  m.set("netlist.write_ns", write_s / static_cast<double>(writes) * 1e9,
        "ns");

  // The convergence poll on converged inputs (the reference state itself)
  // and diverged ones (one hashable bit flipped, in a word that moves over
  // the vector so the early-out position varies).
  if (!in.plan.trace.has_states()) {
    throw std::runtime_error("probe: the plan recorded no trace states");
  }
  const std::vector<u64>& masks = reg.hash_masks();
  std::vector<std::size_t> hashable;
  for (std::size_t w = 0; w < masks.size(); ++w) {
    if (masks[w] != 0) hashable.push_back(w);
  }
  std::vector<netlist::StateVector> diverged = states;
  for (std::size_t k = 0; k < diverged.size(); ++k) {
    const std::size_t w = hashable[(k * 2654435761u) % hashable.size()];
    diverged[k].flip_bit(static_cast<BitIndex>(
        w * 64 + static_cast<std::size_t>(std::countr_zero(masks[w]))));
  }
  const auto poll = [&](const std::vector<netlist::StateVector>& vs) {
    u64 equal = 0;
    for (std::size_t k = 0; k < vs.size(); ++k) {
      equal += vs[k].masked_equals(masks,
                                   in.plan.trace.masked_state(cycles[k] - 1))
                   ? 1
                   : 0;
    }
    return equal;
  };
  if (poll(states) != states.size() || poll(diverged) != 0) {
    throw std::runtime_error(
        "probe: convergence poll disagrees with the reference trace");
  }
  double equals_s = 0.0;
  {
    Tracer::Scope s(tr, "netlist::StateVector::masked_equals", "netlist");
    equals_s = per_op_seconds(0.1, [&] {
      keep(poll(states) + poll(diverged));
      return states.size() + diverged.size();
    });
  }
  m.set("netlist.masked_equals_ns", equals_s * 1e9, "ns");

  double hash_s = 0.0;
  {
    Tracer::Scope s(tr, "netlist::StateVector::masked_hash", "netlist");
    hash_s = per_op_seconds(0.05, [&] {
      for (const netlist::StateVector& sv : states) acc ^= sv.masked_hash(masks);
      return states.size();
    });
  }
  keep(acc);
  m.set("netlist.masked_hash_ns", hash_s * 1e9, "ns");
}

void probe_sfi(Tracer& tr, const ProbeInput& in, Metrics& m) {
  // Per-injection latency on one worker, over blocks of the dispatch order.
  constexpr std::size_t kMaxSamples = 2000;
  constexpr std::size_t kMinSamples = 1000;
  constexpr double kSampleSeconds = 1.0;
  const std::vector<u32> sample = spread_sample(in.indices, kMaxSamples);
  std::vector<double> inj_us;
  {
    Tracer::Scope s(tr, "sfi::CampaignWorker::run", "sfi");
    inject::CampaignWorker worker(in.tc, in.cfg, in.plan);
    const auto start = Clock::now();
    for (const u32 i : sample) {
      const auto t0 = Clock::now();
      const inject::InjectionRecord rec = worker.run(in.plan.faults[i]);
      inj_us.push_back(seconds_since(t0) * 1e6);
      keep(rec);
      if (inj_us.size() >= kMinSamples && seconds_since(start) > kSampleSeconds) {
        break;
      }
    }
  }
  m.set("sfi.inj_us.p50", percentile(inj_us, 0.50), "us");
  m.set("sfi.inj_us.p99", percentile(inj_us, 0.99), "us");
  m.set("sfi.inj_us.samples", static_cast<double>(inj_us.size()), "count");

  // Phase split of the same injections from the runner's RunPhaseTimes.
  std::array<double, inject::kNumRunPhases> phase_s{};
  {
    Tracer::Scope s(tr, "sfi::InjectionRunner::run", "sfi");
    Machine mc(in.tc, in.cfg.core);
    const emu::Checkpoint reset_cp = mc.emu.save_checkpoint();
    inject::InjectionRunner runner(
        mc.model, mc.emu, reset_cp, in.plan.trace, in.plan.golden, in.cfg.run,
        in.plan.ckpts.empty() ? nullptr : &in.plan.ckpts);
    inject::RunPhaseTimes phases;
    for (std::size_t k = 0; k < inj_us.size(); ++k) {
      phases = {};
      const inject::RunResult rr = runner.run(in.plan.faults[sample[k]], &phases);
      keep(rr);
      for (std::size_t p = 0; p < inject::kNumRunPhases; ++p) {
        phase_s[p] += phases.seconds[p];
      }
    }
  }
  double phase_total = 0.0;
  for (const double s : phase_s) phase_total += s;
  for (std::size_t p = 0; p < inject::kNumRunPhases; ++p) {
    const std::string name(
        inject::to_string(static_cast<inject::RunPhase>(p)));
    m.set("sfi.phase." + name + "_share", phase_s[p] / phase_total, "ratio");
  }

  // The lane engine driven directly over the run's injections, null sink.
  inject::CampaignConfig lanes_cfg = in.cfg;
  lanes_cfg.engine = inject::EngineKind::Lanes;
  double engine_s = 0.0;
  u64 lane_cycles = 0;
  {
    Tracer::Scope s(tr, "sfi::InjectionEngine::run[lanes]", "sfi");
    const auto engine = inject::make_engine(in.tc, lanes_cfg, in.plan);
    std::size_t next = 0;
    u64 emitted = 0;
    const auto t0 = Clock::now();
    engine->run(
        [&]() -> std::optional<u32> {
          if (next >= in.indices.size()) return std::nullopt;
          return in.indices[next++];
        },
        [&](u32, const inject::InjectionRecord&,
            std::optional<inject::PropagationRecord>) { ++emitted; },
        nullptr);
    engine_s = seconds_since(t0);
    if (emitted != in.indices.size()) {
      throw std::runtime_error("probe: lane engine dropped injections");
    }
    lane_cycles = engine->cycles_evaluated();
  }
  m.set("sfi.lanes.engine_s", engine_s, "s");
  m.set("sfi.lanes.cycles_ratio",
        static_cast<double>(lane_cycles) /
            static_cast<double>(std::max<u64>(1, in.scalar_cycles)),
        "ratio");

  const auto early = std::count_if(
      in.records.begin(), in.records.end(),
      [](const store::StoredRecord& sr) { return sr.rec.early_exited; });
  m.set("sfi.early_exit_ratio",
        static_cast<double>(early) /
            static_cast<double>(std::max<std::size_t>(1, in.records.size())),
        "ratio");
}

DirectRun run_direct(const ProbeInput& in) {
  DirectRun out;
  const auto t0 = Clock::now();
  const inject::CampaignPlan plan = inject::plan_campaign(in.tc, in.cfg);
  const u32 shard =
      std::max(std::max(1u, in.shard_size),
               in.cfg.engine == inject::EngineKind::Lanes ? in.cfg.lanes : 1u);
  const std::size_t num_shards = (in.indices.size() + shard - 1) / shard;
  const auto threads = static_cast<u32>(
      std::max<std::size_t>(1, std::min<std::size_t>(in.threads, num_shards)));
  std::vector<std::unique_ptr<inject::InjectionEngine>> engines;
  for (u32 t = 0; t < threads; ++t) {
    engines.push_back(inject::make_engine(in.tc, in.cfg, plan));
  }
  std::atomic<std::size_t> next_shard{0};
  std::atomic<u64> emitted{0};
  const auto work = [&](inject::InjectionEngine& eng) {
    u64 local = 0;
    while (true) {
      const std::size_t sh = next_shard.fetch_add(1);
      if (sh >= num_shards) break;
      std::size_t p = sh * shard;
      const std::size_t end = std::min<std::size_t>(p + shard, in.indices.size());
      eng.run(
          [&]() -> std::optional<u32> {
            if (p >= end) return std::nullopt;
            return in.indices[p++];
          },
          [&](u32, const inject::InjectionRecord&,
              std::optional<inject::PropagationRecord>) { ++local; },
          nullptr);
    }
    emitted.fetch_add(local);
  };
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  for (u32 t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        work(*engines[t]);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  out.seconds = seconds_since(t0);
  out.injections = emitted.load();
  for (const auto& eng : engines) {
    out.cycles += eng->cycles_evaluated();
    out.ff_cycles += eng->cycles_fast_forwarded();
    out.ckpt_ops += eng->checkpoint_ops();
  }
  if (out.injections != in.indices.size()) {
    throw std::runtime_error("probe: direct engines dropped injections");
  }
  return out;
}

void probe_store(Tracer& tr, const ProbeInput& in,
                 const std::string& driver_store, Metrics& m) {
  constexpr int kReps = 3;
  const std::vector<store::StoredRecord>& recs = in.records;
  const store::WriteOptions wopts{.commit_markers = true};
  const std::size_t batch = std::max<u32>(1, in.flush_records);

  std::vector<double> append_ns;
  std::vector<double> flush_us;
  for (int r = 0; r < kReps; ++r) {
    Tracer::Scope s(tr, "store::StoreWriter::append+flush", "store");
    store::StoreWriter wr =
        store::StoreWriter::create("probe-writer.sfr", in.meta, wopts);
    double append_s = 0.0;
    double flush_s = 0.0;
    u64 flushes = 0;
    for (std::size_t b = 0; b < recs.size(); b += batch) {
      const std::size_t e = std::min(b + batch, recs.size());
      const auto t0 = Clock::now();
      for (std::size_t k = b; k < e; ++k) wr.append(recs[k]);
      const auto t1 = Clock::now();
      wr.flush();
      append_s += std::chrono::duration<double>(t1 - t0).count();
      flush_s += seconds_since(t1);
      ++flushes;
    }
    append_ns.push_back(append_s / static_cast<double>(recs.size()) * 1e9);
    flush_us.push_back(flush_s / static_cast<double>(flushes) * 1e6);
  }
  m.set("store.append_ns", median(append_ns), "ns");
  m.set("store.flush_us", median(flush_us), "us");

  std::vector<double> read_ms;
  std::vector<double> merge_ms;
  for (int r = 0; r < kReps; ++r) {
    {
      Tracer::Scope s(tr, "store::read_store", "store");
      const auto t0 = Clock::now();
      const store::StoreContents c =
          store::read_store(driver_store, {.tolerate_torn_tail = true});
      read_ms.push_back(seconds_since(t0) * 1e3);
      keep(c.records.size());
    }
    {
      Tracer::Scope s(tr, "store::merge_stores", "store");
      const auto t0 = Clock::now();
      const store::MergeSummary sum = store::merge_stores(
          {driver_store}, "probe-merge.sfr", {.tolerate_torn_tail = true});
      merge_ms.push_back(seconds_since(t0) * 1e3);
      keep(sum.records_written);
    }
  }
  m.set("store.read_ms", median(read_ms), "ms");
  m.set("store.merge_ms", median(merge_ms), "ms");

  // A reader tailing a store that grows one flush window at a time.
  double poll_s = 0.0;
  u64 polls = 0;
  u64 delivered = 0;
  {
    Tracer::Scope s(tr, "store::FrameTail::poll", "store");
    store::StoreWriter wr =
        store::StoreWriter::create("probe-tail.sfr", in.meta, wopts);
    store::FrameTail tail("probe-tail.sfr");
    for (std::size_t b = 0; b < recs.size(); b += batch) {
      const std::size_t e = std::min(b + batch, recs.size());
      for (std::size_t k = b; k < e; ++k) wr.append(recs[k]);
      wr.flush();
      const auto t0 = Clock::now();
      tail.poll([&](u8 kind, std::span<const u8>) {
        if (kind == store::kRecordFrame) ++delivered;
      });
      poll_s += seconds_since(t0);
      ++polls;
    }
  }
  if (delivered != recs.size()) {
    throw std::runtime_error("probe: FrameTail missed committed records");
  }
  m.set("store.tail_poll_us", poll_s / static_cast<double>(polls) * 1e6,
        "us");
}

}  // namespace perfbench
