// InjectionEngine: the backend-neutral execution engine behind a campaign.
//
// An engine turns a stream of planned fault indices into a stream of
// (record, forensics) pairs. The contract is deliberately narrow so both
// dispatchers (the campaign driver behind the in-memory, store and serve
// campaigns, and the farm worker) drive any engine the same way:
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
//   ScalarEngine — the classic one-injection-at-a-time InjectionRunner.
//   LaneEngine   — N in-flight injections as sparse XOR-diff lanes against
//                  one shared reference replay (see engine.cpp).
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

  [[nodiscard]] virtual std::string_view name() const = 0;

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

/// One engine instance per worker thread (engines are not thread-safe).
[[nodiscard]] std::unique_ptr<InjectionEngine> make_engine(
    const avp::Testcase& testcase, const CampaignConfig& config,
    const CampaignPlan& plan);

[[nodiscard]] const char* engine_name(EngineKind kind);
[[nodiscard]] std::optional<EngineKind> parse_engine(std::string_view name);

}  // namespace sfi::inject
