// InjectionEngine: the backend-neutral execution engine behind a campaign.
//
// An engine turns a stream of planned fault indices into a stream of
// (record, forensics) pairs. The contract is deliberately narrow so both
// dispatchers (the campaign driver behind the in-memory, store, serve and
// beam campaigns, and the farm worker) drive any engine the same way:
//
//   - the engine *pulls* injection indices via `next` until it returns
//     nullopt (claiming stays with the caller: --max-new caps, SIGINT stop
//     flags, and early-stop decisions all live in `next`),
//   - every claimed index is finished and reported exactly once via `emit`,
//     in arbitrary order (records carry their (seed, i) identity; canonical
//     merge sorts and resume scans are order-independent),
//   - records are field-identical across engines for the same plan: the
//     engine choice is a speed knob, never a result knob (gated by the
//     engine A/B CI job), and is excluded from the campaign fingerprint.
//
// Two implementations:
//   CampaignWorker — the scalar engine: one injection at a time.
//   LaneEngine     — N in-flight injections as sparse XOR-diff lanes against
//                    one shared reference replay (see engine.cpp), with a
//                    private CampaignWorker for everything off its fast path.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>

#include "avp/testgen.hpp"
#include "sfi/campaign.hpp"

namespace sfi::inject {

class InjectionEngine {
 public:
  /// Claim stream: the next injection index to run, nullopt to finish.
  using Next = std::function<std::optional<u32>()>;
  /// Result stream: one call per claimed index, any order.
  using Emit = std::function<void(u32 index, const InjectionRecord& rec,
                                 std::optional<PropagationRecord> footprint)>;

  virtual ~InjectionEngine() = default;

  /// Run every index `next` yields and emit its record (plus footprint when
  /// the campaign's forensics select it). `telemetry` is an optional
  /// observability sink; results are identical with or without it.
  virtual void run(const Next& next, const Emit& emit,
                   WorkerTelemetry* telemetry) = 0;

  // Host-cost accounting across the engine's private emulators (summed into
  // CampaignResult / scheduler stats exactly like a worker's).
  [[nodiscard]] virtual u64 cycles_evaluated() const = 0;
  [[nodiscard]] virtual u64 cycles_fast_forwarded() const = 0;
  [[nodiscard]] virtual u64 checkpoint_ops() const = 0;
};

/// One worker's private simulation environment ("multiple concurrent copies
/// of the simulation environment", paper §2.2) and the scalar engine: seek,
/// flip, simulate, classify, one injection at a time. Every record any
/// engine produces leaves through retire(), so the record, its telemetry
/// and its footprint are built in exactly one place. Not thread-safe;
/// create one per thread.
class CampaignWorker final : public InjectionEngine {
 public:
  CampaignWorker(const avp::Testcase& testcase, const CampaignConfig& config,
                 const CampaignPlan& plan);
  // The runner and tracker hold references into this object.
  CampaignWorker(const CampaignWorker&) = delete;
  CampaignWorker& operator=(const CampaignWorker&) = delete;

  /// Run one injection end to end (InjectionRunner::run: a fault whose
  /// admission carries its record retires without a run) and retire it.
  /// `index` is the injection's campaign index (event/sampling identity).
  [[nodiscard]] InjectionRecord run(
      const FaultSpec& fault, WorkerTelemetry* telemetry = nullptr,
      u32 index = 0, std::optional<PropagationRecord>* footprint = nullptr);

  void run(const Next& next, const Emit& emit,
           WorkerTelemetry* telemetry) override;

  /// Turn a finished run into its record: report it to `telemetry`, and
  /// keep its footprint when the campaign's FootprintConfig selects the
  /// injection (returned through `footprint`). `observed`: run() made the
  /// run with this worker's tracker watching it. Otherwise (a run the lane
  /// engine finished itself) a selected fault goes once more through
  /// InjectionRunner::run with the tracker armed, which repositions this
  /// worker's machine.
  [[nodiscard]] InjectionRecord retire(
      u32 index, const FaultSpec& fault, const RunResult& rr,
      WorkerTelemetry* telemetry,
      std::optional<PropagationRecord>* footprint, bool observed = false);

  /// The worker's machine, for an engine that materializes states into it
  /// and finishes them with the runner's post-fault loop.
  [[nodiscard]] core::Pearl6Model& model() { return *model_; }
  [[nodiscard]] emu::Emulator& emulator() { return *emu_; }
  [[nodiscard]] InjectionRunner& runner() { return *runner_; }

  [[nodiscard]] u64 cycles_evaluated() const override;
  [[nodiscard]] u64 cycles_fast_forwarded() const override;
  [[nodiscard]] u64 checkpoint_ops() const override;

 private:
  const CampaignPlan& plan_;
  std::unique_ptr<core::Pearl6Model> model_;
  std::unique_ptr<emu::Emulator> emu_;
  emu::Checkpoint reset_cp_;
  std::unique_ptr<InjectionRunner> runner_;
  std::unique_ptr<InfectionTracker> tracker_;
};

/// One engine instance per worker thread (engines are not thread-safe).
[[nodiscard]] std::unique_ptr<InjectionEngine> make_engine(
    const avp::Testcase& testcase, const CampaignConfig& config,
    const CampaignPlan& plan);

[[nodiscard]] const char* engine_name(EngineKind kind);
[[nodiscard]] std::optional<EngineKind> parse_engine(std::string_view name);

}  // namespace sfi::inject
