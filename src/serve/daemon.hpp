// `sfi serve`: a long-running, multi-tenant campaign daemon.
//
// The paper sized campaigns up front; ROADMAP's service goal is the online
// form — submit a campaign with a (confidence, half-width) target and let
// the daemon stop dispatching the moment the per-stratum Wilson intervals
// are tight enough (serve/stop.hpp). The daemon multiplexes tenants over
// the existing execution engines: admitted campaigns run on the in-process
// scheduler (sched::run_campaign_to_store) or, when a submission asks for
// worker processes, on the farm coordinator — serve adds admission,
// statistics and durability bookkeeping, never a third execution path.
//
// Shape:
//   * one IO thread (the caller of run()) owns the listening socket and
//     every client connection, single-threaded poll() style; watchers are
//     plain connections whose outbox replays a campaign's event list.
//   * each admitted campaign runs on its own runner thread; runners talk to
//     the IO side only through the campaign table's mutex and atomics.
//   * every campaign is durable in state_dir: `campaign-<id>.sfr` is the
//     record store (the exact artifact `sfi report` reads) and
//     `campaign-<id>.json` a manifest (tenant, spec, state, stop point)
//     written atomically via tmp+rename. A restarted daemon re-adopts the
//     directory: finished campaigns are served from their manifest and
//     one scan of their store, unfinished ones re-enter the queue and
//     resume from their store — early-stopped ones stay stopped, because
//     the monitor re-counts the committed records before the scheduler
//     claims anything new.
//   * admission is fair-share across tenants: the queue is priced by
//     estimated work (injections x workload instructions — the cycle proxy
//     the store header exposes before any simulation runs) and the next
//     slot goes to the queued tenant with the least admitted spend, so one
//     tenant's 10^5-flip backlog cannot starve another's smoke test.
//
// Wire protocol: newline-delimited JSON (serve/wire.hpp). Requests are
// single objects ({"op":"submit",...}, "status", "watch", "ping",
// "shutdown"); watch replies stream the campaign's event list — the same
// {"ev":...,"t_us":...} JSONL shape the telemetry event log uses — one
// event per line, live until the campaign finishes.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/spec.hpp"
#include "serve/stop.hpp"
#include "serve/wire.hpp"
#include "sfi/campaign.hpp"
#include "telemetry/events.hpp"

namespace sfi::serve {

enum class CampaignState : u8 {
  Queued,   ///< submitted, waiting for a slot
  Running,  ///< runner thread active (or interrupted mid-run: resumable)
  Done,     ///< finished (complete, early-stopped, or failed)
};

[[nodiscard]] std::string_view to_string(CampaignState s);

struct ServeConfig {
  /// Listen address (wire::parse_address grammar). Empty: unix socket
  /// `<state_dir>/sfi.sock`.
  std::string listen;
  /// Durable home of every campaign store + manifest. Created if missing.
  std::string state_dir;
  /// Campaigns running concurrently; queued beyond that.
  u32 max_active = 2;
  /// IO loop poll interval.
  double poll_seconds = 0.02;
  /// External stop (the CLI wires SIGINT/SIGTERM here). Running campaigns
  /// wind down cleanly and stay resumable.
  std::function<bool()> should_stop;
  /// HTTP observability listener (wire::parse_address grammar; `tcp:0`
  /// binds an ephemeral port — read it back via http_address()). Empty:
  /// HTTP plane off. Serves GET /metrics (Prometheus 0.0.4 text exposition
  /// over every campaign's fleet metrics snapshot plus live early-stop
  /// gauges), /healthz and /campaigns (JSON). Strictly read-only: scraping
  /// never changes campaign behaviour or store bytes. Farm campaigns feed
  /// their fleet view whether or not the plane is on: every campaign has
  /// telemetry, so its workers always ship metrics snapshots.
  std::string http;
};

class Daemon {
 public:
  explicit Daemon(ServeConfig cfg);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serve until shutdown (external should_stop, request_stop(), or a
  /// "shutdown" request). Returns 0 on a clean exit.
  int run();

  /// Thread-safe graceful stop (what a "shutdown" request calls).
  void request_stop() { stop_requested_.store(true); }

  /// The resolved listen address (for tests and the CLI banner).
  [[nodiscard]] const Address& address() const { return addr_; }

  /// True when the HTTP observability listener is bound.
  [[nodiscard]] bool http_enabled() const { return http_fd_ >= 0; }
  /// The resolved HTTP listen address (the ephemeral port of `tcp:0` is
  /// filled in at construction). Meaningful only when http_enabled().
  [[nodiscard]] const Address& http_address() const { return http_addr_; }

 private:
  struct Campaign;
  struct CampaignView;
  struct Conn;

  // --- lifecycle ---
  void adopt_state_dir();
  void admit_ready();
  void reap_finished();
  void begin_shutdown();
  void run_one(Campaign& c);
  void finalize(Campaign& c, bool failed, const std::string& error);
  void write_manifest(const Campaign& c);

  // --- IO ---
  void pump_io();
  void accept_clients(int listen_fd, bool http);
  void handle_line(Conn& conn, const std::string& line);
  void handle_submit(Conn& conn, const Json& req);
  void handle_status(Conn& conn);
  void handle_watch(Conn& conn, const Json& req);
  void push_watch_events();

  // --- HTTP observability plane (read-only) ---
  void handle_http(Conn& conn);
  /// Copy every campaign's displayed fields under mu_ (the views render
  /// them, and snapshot telemetry, outside it).
  [[nodiscard]] std::vector<CampaignView> campaign_views();
  [[nodiscard]] std::string metrics_text();
  [[nodiscard]] std::string campaigns_json();

  // --- events ---
  [[nodiscard]] u64 now_us() const;
  void emit(Campaign& c, const std::string& line);
  [[nodiscard]] std::string finish_event_json(
      const Campaign& c, const inject::CampaignAggregate& agg) const;
  [[nodiscard]] std::string failed_event_json(u64 id,
                                              std::string_view error) const;

  ServeConfig cfg_;
  Address addr_;
  Address http_addr_;
  int listen_fd_ = -1;
  int http_fd_ = -1;  ///< HTTP observability listener (-1: plane off)
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopping_{false};  ///< shutdown begun (runners see this)
  std::chrono::steady_clock::time_point epoch_;

  /// Guards campaigns_ (map and member fields without their own atomics)
  /// and tenant_spend_. Never held across simulation work or blocking IO.
  std::mutex mu_;
  std::map<u64, std::unique_ptr<Campaign>> campaigns_;
  std::map<std::string, u64> tenant_spend_;  ///< admitted price per tenant
  u64 next_id_ = 1;

  std::vector<std::unique_ptr<Conn>> conns_;
  telemetry::EventLog log_;  ///< daemon-wide flight recorder (JSONL)
};

}  // namespace sfi::serve
