#include "farm/worker.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <sstream>
#include <thread>

#include "farm/process.hpp"
#include "sched/scheduler.hpp"
#include "sfi/engine.hpp"
#include "sfi/telemetry.hpp"
#include "store/trace_stitch.hpp"
#include "store/writer.hpp"
#include "telemetry/json.hpp"

#include <unistd.h>

namespace sfi::farm {

namespace {

/// Line-buffered reader over a raw fd (the control pipe). Blocking: a
/// worker with nothing assigned should sit in read(), not spin.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Next full line (without the '\n'); false on EOF/error.
  bool next(std::string& line) {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      const ssize_t n = read(fd_, chunk, sizeof chunk);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) return false;  // EOF: coordinator is gone or done
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

struct Assignment {
  u64 shard = 0;
  u32 attempt = 0;
  std::vector<u32> indices;
  u64 trace_id = 0;       ///< span-plane extension (0 when absent)
  u64 dispatch_span = 0;  ///< coordinator's dispatch span: shard parent
};

/// Parse "A <shard> <attempt> <count> <index>..."; false on malformed input
/// (a malformed assignment is a coordinator bug — the worker exits nonzero
/// rather than guessing). Trailing `<trace_id> <dispatch_span>` tokens are
/// the span plane's optional extension.
bool parse_assignment(const std::string& line, Assignment& out) {
  std::istringstream in(line);
  std::string verb;
  u64 count = 0;
  if (!(in >> verb >> out.shard >> out.attempt >> count) || verb != "A") {
    return false;
  }
  out.indices.clear();
  out.indices.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    u32 index = 0;
    if (!(in >> index)) return false;
    out.indices.push_back(index);
  }
  out.trace_id = 0;
  out.dispatch_span = 0;
  if (!(in >> out.trace_id >> out.dispatch_span)) {
    out.trace_id = 0;
    out.dispatch_span = 0;
  }
  return true;
}

/// Tell the coordinator an assignment's records are all committed. Best
/// effort: a ring that fails (the coordinator is gone) changes nothing the
/// store does not already say.
void ring(int bell_fd) {
  const char nl = '\n';
  while (write(bell_fd, &nl, 1) < 0 && errno == EINTR) {
  }
}

void maybe_sabotage(const SabotageConfig& sabotage, u32 index, u32 attempt) {
  if (sabotage.crash_index && *sabotage.crash_index == index &&
      attempt == 0) {
    // A literal kill -9 of ourselves: no exit handlers, no flush — the
    // shard store ends wherever the last commit marker landed.
    raise(SIGKILL);
  }
  if (sabotage.wedge_index && *sabotage.wedge_index == index &&
      (!sabotage.wedge_once || attempt == 0)) {
    // Loss of forward progress without CPU burn; only the coordinator's
    // SIGKILL ends this.
    for (;;) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace

int run_worker(const avp::Testcase& tc, const inject::CampaignConfig& cfg,
               const WorkerOptions& opts,
               const inject::CampaignPlan* plan_in) {
  // Workers are single-threaded and report nothing to a telemetry facade —
  // their observable output is the shard store, full stop. (When asked to
  // ship metrics or spans, a worker-private facade records them and they
  // travel as 'M'/'S' frames through that same store.)
  inject::CampaignConfig wcfg = cfg;
  wcfg.telemetry = nullptr;
  wcfg.threads = 1;
  ignore_sigpipe();  // a ring into a closed bell must not kill the worker

  std::optional<inject::CampaignTelemetry> tel;
  inject::WorkerTelemetry* wt = nullptr;
  if (opts.ship_metrics || opts.ship_spans) {
    tel.emplace();
    if (opts.ship_spans) {
      // Trace id arrives with the first assignment; until then spans carry
      // id 0 and the book back-fills nothing — all spans recorded after
      // set_trace_id carry the campaign id, and the pre-assignment ones
      // (plan build) are stitched by pid anyway.
      tel->enable_span_plane(
          "sfi worker " + std::to_string(opts.worker_id), 0);
    }
    tel->prepare_workers(1);
    wt = &tel->worker(0);
  }
  // Recorded spans go into the shard store as 'S' frames, committed by the
  // next flush and delivered by the coordinator's FrameTail.
  telemetry::SpanBook* book = tel ? tel->spans() : nullptr;

  std::optional<inject::CampaignPlan> own_plan;
  if (plan_in == nullptr) {
    const u64 plan_t0 = book != nullptr ? book->now_us() : 0;
    own_plan.emplace(inject::plan_campaign(tc, wcfg));
    if (book != nullptr) {
      // Exec-mode startup is dominated by this rebuild; the slice is what
      // makes the farm's startup_seconds grace visible in the trace.
      book->slice("plan build", "worker.startup", plan_t0,
                  book->now_us() - plan_t0);
    }
    plan_in = &*own_plan;
  }
  const inject::CampaignPlan& plan = *plan_in;

  const store::CampaignMeta meta = sched::make_campaign_meta(tc, wcfg, plan);
  store::StoreWriter writer = store::StoreWriter::create(
      opts.shard_path, meta, {.commit_markers = true});

  const std::unique_ptr<inject::InjectionEngine> engine =
      inject::make_engine(tc, wcfg, plan);

  u64 m_seq = 0;
  LineReader lines(opts.control_fd);
  std::string line;
  Assignment a;
  // When the last assignment finished (set by shipping workers only): the
  // wait until the next one is read is farm.dispatch_wait_seconds.
  std::optional<std::chrono::steady_clock::time_point> idle_since;
  while (lines.next(line)) {
    if (line.empty()) continue;
    if (line == "Q") break;
    if (!parse_assignment(line, a)) return 3;
    if (idle_since) {
      tel->farm_dispatch_wait(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  *idle_since)
                                  .count());
    }
    if (book != nullptr && a.trace_id != 0) book->set_trace_id(a.trace_id);
    const u64 shard_t0 = book != nullptr ? book->now_us() : 0;
    // The committed echo says the assignment was accepted: only then may
    // the coordinator blame it. The first one also ends the startup
    // deadline, which the (possibly slow) plan build above ran under.
    writer.append(store::AssignmentFrame{opts.worker_id, a.shard, a.attempt,
                                         static_cast<u32>(a.indices.size())});
    writer.flush();
    // Claims pull from the assignment in order. Nothing names the index in
    // flight: the lane engine claims its whole batch before it runs any,
    // and the coordinator blames by isolation instead (farm.hpp).
    bool bad_index = false;
    std::size_t p = 0;
    engine->run(
        [&]() -> std::optional<u32> {
          if (bad_index || p >= a.indices.size()) return std::nullopt;
          const u32 index = a.indices[p++];
          if (index >= plan.faults.size()) {
            bad_index = true;
            return std::nullopt;
          }
          // Sabotage strikes at the claim, as the real failure it stands in
          // for would (the injected flip wedging the harness mid-run).
          maybe_sabotage(opts.sabotage, index, a.attempt);
          return index;
        },
        [&](u32 index, const inject::InjectionRecord& rec,
            std::optional<inject::PropagationRecord> fp) {
          store::StoredRecord sr;
          sr.index = index;
          sr.rec = rec;
          writer.append(sr);
          if (fp) writer.append(*fp);
          // Per-record flush+commit: the coordinator's done-count advances
          // one committed record at a time, and a crash can only lose the
          // injections in flight — exactly what the supervisor re-runs.
          if (book != nullptr) store::drain_spans(*book, writer);
          writer.flush();
        },
        wt);
    if (bad_index) return 3;
    // Every record of the assignment is committed: ring first, so the
    // coordinator dispatches the next shard while this worker ships what
    // its planes recorded — neither waits on the other.
    ring(opts.bell_fd);
    if (book != nullptr) {
      // The shard slice parents under the coordinator's dispatch span —
      // the cross-process edge the stitched trace hangs together by.
      telemetry::JsonWriter args;
      args.begin_object()
          .field("shard", a.shard)
          .field("attempt", a.attempt)
          .field("indices", a.indices.size())
          .end_object();
      book->slice("shard " + std::to_string(a.shard) + " attempt " +
                      std::to_string(a.attempt),
                  "shard.exec", shard_t0, book->now_us() - shard_t0,
                  a.dispatch_span, args.str());
    }
    if (opts.ship_metrics) {
      // Cumulative snapshot: the coordinator keeps the newest per (slot,
      // generation), so the fleet view is exact after every assignment.
      wt->fold();
      writer.append(store::MetricsFrame{opts.worker_id, m_seq++,
                                        tel->metrics().snapshot()});
    }
    if (book != nullptr) store::drain_spans(*book, writer);
    writer.flush();  // commits what the planes appended (nothing if off)
    if (opts.ship_metrics) idle_since = std::chrono::steady_clock::now();
  }
  if (book != nullptr) store::drain_spans(*book, writer);
  writer.flush();
  return 0;
}

}  // namespace sfi::farm
