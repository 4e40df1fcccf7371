// SheServer — the long-running sketch service.
//
// Two listeners share one process:
//   * a binary-protocol TCP listener (protocol.hpp) with one handler
//     thread per connection, dispatching into the PipelineManager, and
//   * an HTTP listener serving `GET /metrics` (Prometheus text format:
//     process-wide SHE registry + server registry + every pipeline's
//     registry labeled pipeline="<name>") and `GET /healthz`.
//
// Queries read each shard's published immutable copy, so reads never block
// ingest; inserts go through borrowed producer slots, so many clients feed
// one pipeline.
//
// Shutdown discipline: request_stop() — also wired to SIGTERM/SIGINT via
// install_signal_handlers(), and to the SHUTDOWN opcode — writes one byte
// to a self-pipe.  The accept loops poll that pipe and exit; stop() then
// shuts down every live connection socket (unblocking handler reads),
// joins the handlers, and closes every pipeline, which drains accepted
// items and writes final checkpoint frames.  A server restarted with
// `resume` answers queries identically to the moment of the checkpoint.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/pipeline_manager.hpp"
#include "server/protocol.hpp"
#include "server/replica.hpp"

namespace she::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;       ///< protocol listener; 0 = ephemeral
  int http_port = 0;            ///< /metrics listener; 0 = ephemeral, -1 = off
  std::size_t max_connections = 256;  ///< concurrent protocol connections
  std::size_t flush_timeout_ms = 10000;  ///< FLUSH/SAVE barrier bound
  bool enable_tracing = false;  ///< span collection on from start()
  std::size_t trace_sample = 1;  ///< trace 1 in N requests; 1 = all, 0 = all
  std::size_t slow_request_ms = 0;  ///< log requests slower than this; 0 = off
  /// Admission control.  `auth_token_file` names a file with one token per
  /// line; when set, every connection must AUTH before any other op (the
  /// 1-based line number becomes its client identity for quotas).  Quotas
  /// of 0 mean unlimited.  `request_deadline_ms` bounds each request's
  /// wall time: the budget is threaded into backpressure blocking so an
  /// overloaded shard sheds the request (kTimeout) instead of wedging the
  /// handler thread.
  std::string auth_token_file;
  std::uint64_t request_deadline_ms = 0;   ///< 0 = no per-request deadline
  std::size_t max_inflight = 0;            ///< global concurrent requests
  std::size_t max_inflight_per_client = 0; ///< per auth identity
  std::uint64_t bytes_per_sec = 0;         ///< global ingest budget
  std::uint64_t bytes_per_sec_per_client = 0;  ///< per auth identity
  /// Replication role.  "primary" (default) serves everything and streams
  /// to any REPLICATE subscriber.  "standby" follows the `follow`
  /// endpoints (hot-standby: bootstraps + tails the primary's WALs),
  /// serves reads, answers writes kReadOnly, and flips to primary on the
  /// PROMOTE op or SIGUSR2.
  std::string role = "primary";
  std::vector<std::string> follow;  ///< primary endpoints, "host:port"
  std::string follow_token;         ///< AUTH token for the primary, if any
  PipelineManager::Options manager;
};

class SheServer {
 public:
  explicit SheServer(ServerOptions opt);
  ~SheServer();  ///< request_stop() + stop()

  SheServer(const SheServer&) = delete;
  SheServer& operator=(const SheServer&) = delete;

  /// Bind both listeners and launch the accept threads.  Throws
  /// std::runtime_error when a port cannot be bound.
  void start();

  /// Block until a stop was requested and the shutdown sequence (run by
  /// the caller of wait()) has completed.
  void wait();

  /// Async-signal-safe stop trigger: one byte down the self-pipe.
  void request_stop() noexcept;

  /// Full shutdown: stop accepting, close connections, join handlers,
  /// close every pipeline (final checkpoints).  Idempotent.
  void stop();

  /// Route SIGTERM/SIGINT to request_stop() — and SIGUSR2 to promote() —
  /// on this server.  At most one server per process may install handlers;
  /// stop() restores the old dispositions.
  void install_signal_handlers();

  /// Standby → primary: drain what the replication stream already holds,
  /// stop following, start accepting writes.  Idempotent; no-op on a
  /// server that is already primary.  Wired to the PROMOTE op and SIGUSR2.
  void promote();

  /// True while the server answers writes with kReadOnly (standby role,
  /// not yet promoted).
  [[nodiscard]] bool standby() const {
    return standby_.load(std::memory_order_acquire);
  }

  /// Bound ports, valid after start() (useful with port 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::uint16_t http_port() const { return http_port_; }

  [[nodiscard]] PipelineManager& manager() { return manager_; }
  [[nodiscard]] const obs::Registry& metrics_registry() const {
    return registry_;
  }

  /// The /metrics payload (also what the HTTP listener serves).
  [[nodiscard]] std::string render_metrics() const;

  /// The /healthz payload: status, uptime, schema version, build info.
  [[nodiscard]] std::string render_healthz() const;

  /// The /trace payload: Chrome trace-event JSON of the spans retained in
  /// the last `window_ms` milliseconds (0 = everything retained).
  [[nodiscard]] static std::string render_trace(std::uint64_t window_ms);

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    bool finished = false;
  };

  /// What a request turned out to be, filled in by dispatch() for the
  /// per-op duration histogram and the slow-request log.
  struct OpInfo {
    const char* op = "unknown";
    std::string pipeline;
  };

  /// Per-request context from the connection handler: the absolute
  /// steady-clock deadline (0 = none) threaded into blocking paths.
  struct ReqCtx {
    std::int64_t deadline_ns = 0;
  };

  /// Refill-on-demand token bucket, burst = one second of the rate.
  /// Guarded by admission_mu_.
  struct TokenBucket {
    double tokens = 0;
    std::int64_t last_ns = 0;
    bool take(double cost, double per_sec, std::int64_t now_ns);
  };

  struct ClientQuota {
    TokenBucket bytes;
    std::size_t inflight = 0;
  };

  /// Admission verdict for one request; releases in-flight counts on
  /// destruction when admitted.
  enum class Admission { kAdmit, kOverloadedGlobal, kOverloadedClient };

  void accept_loop();
  void http_loop();
  void handle_conn(std::uint64_t id, int fd);
  void handle_http(std::uint64_t id, int fd);
  void reap_finished();

  Admission admit(std::uint64_t client, std::size_t bytes);
  void release(std::uint64_t client);

  /// Dispatch one request body; always returns a response body.
  std::vector<char> dispatch(std::span<const char> body, OpInfo& info,
                             ReqCtx ctx);
  std::vector<char> do_query(WireReader& req, OpInfo& info, ReqCtx ctx);

  /// she_server_request_duration_ns{op=...,pipeline=...} observation
  /// (register-or-lookup per request; registration is mutex + small scan).
  void observe_request(const OpInfo& info, std::uint64_t ns);

  /// Rate-limited stderr line for requests over slow_request_ms, with the
  /// span breakdown this handler thread recorded during the request.
  void maybe_log_slow(const OpInfo& info, std::uint64_t ns,
                      const obs::trace::ThreadCursor& cursor);

  /// opt_.manager with the hub pointer patched in (manager_ init helper).
  [[nodiscard]] PipelineManager::Options manager_options();

  ServerOptions opt_;
  obs::Registry registry_;
  ReplicationHub hub_;  ///< must outlive manager_ (WAL observers hold it)
  PipelineManager manager_;
  std::unique_ptr<ReplicaClient> replica_;  ///< standby role only
  std::atomic<bool> standby_{false};

  int listen_fd_ = -1;
  int http_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};  ///< [0] polled by loops, [1] written once
  int promote_pipe_[2] = {-1, -1};  ///< SIGUSR2 → accept_loop → promote()
  std::uint16_t port_ = 0;
  std::uint16_t http_port_ = 0;

  std::thread accept_thread_;
  std::thread http_thread_;

  std::mutex conns_mu_;
  std::map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 0;
  std::size_t live_protocol_ = 0;  ///< guarded by conns_mu_

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_requested_{false};
  std::once_flag stop_flag_;
  std::mutex stopped_mu_;
  std::condition_variable stopped_cv_;
  bool stopped_ = false;
  bool signals_installed_ = false;

  // Admission state.  auth_tokens_ is loaded once in start() and read-only
  // afterwards; the quota maps are guarded by admission_mu_.
  std::vector<std::string> auth_tokens_;
  mutable std::mutex admission_mu_;
  TokenBucket global_bytes_;
  std::map<std::uint64_t, ClientQuota> client_quota_;
  std::size_t inflight_ = 0;  ///< guarded by admission_mu_

  obs::Counter* connections_total_;
  obs::Gauge* active_connections_;
  obs::Counter* protocol_errors_;
  obs::Histogram* request_latency_;
  obs::Gauge* pipelines_gauge_;
  obs::Counter* slow_requests_;
  obs::Counter* unauthorized_total_;
  obs::Counter* overloaded_total_;
  obs::Counter* deadline_shed_total_;
  obs::Gauge* inflight_gauge_;
  std::map<Op, obs::Counter*> requests_by_op_;
  std::atomic<std::uint64_t> request_seq_{0};  ///< 1-in-N trace sampler
  std::atomic<std::int64_t> last_slow_log_ns_{0};
  std::int64_t start_steady_ns_ = 0;  ///< for /healthz uptime
};

}  // namespace she::server
