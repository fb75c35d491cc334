#ifndef CAPE_SERVER_SERVER_H_
#define CAPE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "relational/catalog.h"
#include "server/protocol.h"
#include "server/scheduler.h"

/// The two front ends over RequestScheduler (DESIGN.md §13):
///
///  - ServerHarness: in-process, no sockets. Tests and the chaos bench talk
///    to the full serving stack (admission -> queue -> pool -> session ->
///    response) through plain function calls, so every robustness property
///    is testable without port allocation or socket flakiness.
///  - CapeServer: the TCP line-protocol server (`cape_server` binary). One
///    poll()-driven IO task multiplexes all connections; responses are
///    written by serving workers under a per-connection lock.

namespace cape::server {

struct ServerOptions {
  /// Name the engine's relation is registered under for SQL statements.
  std::string table_name = "pub";
  /// Serving workers (the harness/server owns its pool so scheduler traffic
  /// never competes with an unrelated Global() user's ParallelFor).
  int num_workers = 4;
  SchedulerConfig scheduler;
  /// TCP only: port to bind (0 = ephemeral, see CapeServer::port()).
  int port = 0;
  /// When set (must alias the ctor's engine), enables the APPEND verb:
  /// "APPEND <csv>;<csv>..." appends rows and re-mines the grown table,
  /// serialized against all concurrent reads by the scheduler's write gate.
  /// Null keeps the server read-only (APPEND returns a structured error).
  Engine* mutable_engine = nullptr;
};

/// In-process serving stack. The engine must have patterns mined/loaded;
/// only its const (re-entrant) surface is used.
class ServerHarness {
 public:
  ServerHarness(const Engine* engine, ServerOptions options);
  ~ServerHarness();

  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  /// Parses and serves one request line, blocking until its terminal
  /// response. Parse failures return an Outcome::kError response directly.
  Response Call(const std::string& line);

  /// Fire-and-forget form for concurrent load: `done` runs exactly once on
  /// a serving thread (or synchronously on rejection).
  void CallAsync(const std::string& line, RequestScheduler::ResponseCallback done);

  /// Rejects new requests, completes in-flight ones, and returns.
  void Shutdown();

  RequestScheduler& scheduler() { return *scheduler_; }

 private:
  ThreadPool pool_;
  std::unique_ptr<RequestScheduler> scheduler_;
};

/// TCP line-protocol server. Start() binds and spawns the IO loop as a pool
/// task; Stop() (or destruction) closes the listener, drains the scheduler,
/// and completes in-flight responses before closing connections.
class CapeServer {
 public:
  CapeServer(const Engine* engine, ServerOptions options);
  ~CapeServer();

  CapeServer(const CapeServer&) = delete;
  CapeServer& operator=(const CapeServer&) = delete;

  /// Binds, listens, and starts serving. IOError on bind/listen failure.
  Status Start();

  /// The bound port (useful with options.port == 0).
  int port() const { return port_; }

  /// Graceful shutdown: stop accepting, drain, close. Idempotent.
  void Stop();

  RequestScheduler& scheduler() { return *scheduler_; }

 private:
  struct Connection;

  /// The poll() loop; runs as one long-lived pool task until Stop().
  void IoLoop();
  /// Consumes complete lines from `conn`'s read buffer, submitting each.
  void ProcessBuffered(const std::shared_ptr<Connection>& conn);
  /// Serializes and writes `response` on `conn` (worker thread, locked).
  static void WriteResponse(const std::shared_ptr<Connection>& conn,
                            const Response& response);

  const ServerOptions options_;
  ThreadPool pool_;
  std::unique_ptr<RequestScheduler> scheduler_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  int port_ = 0;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;

  Mutex io_mu_;
  CondVar io_done_cv_;
  bool io_running_ CAPE_GUARDED_BY(io_mu_) = false;
  /// Connections the IO loop handed over at exit, closed by Stop() after
  /// the scheduler drained.
  std::vector<std::shared_ptr<Connection>> draining_connections_ CAPE_GUARDED_BY(io_mu_);
};

/// Builds the single-table catalog both front ends register.
Catalog MakeServingCatalog(const Engine& engine, const std::string& table_name);

}  // namespace cape::server

#endif  // CAPE_SERVER_SERVER_H_
