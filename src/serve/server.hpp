#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "serve/model_registry.hpp"
#include "serve/scheduler.hpp"

namespace nofis::serve {

struct ServerConfig {
    std::string model_dir = ".";
    std::string host = "127.0.0.1";  ///< loopback only by design
    std::uint16_t port = 0;          ///< 0 = ephemeral; read back via port()
    /// listen(2) backlog. The default matches the historical hard-coded
    /// value; the cluster front runs with a deeper backlog because every
    /// client connection funnels through one acceptor.
    int backlog = 64;
    SchedulerConfig scheduler;
};

/// TCP front end of the serving stack: accepts loopback connections
/// speaking the line-delimited JSON protocol (one request per line, one
/// response per line, responses in request order per connection) and feeds
/// them into the shared BatchScheduler. Requests from different
/// connections coalesce into the same micro-batches.
///
/// Lifecycle: the constructor binds + listens + starts the accept loop;
/// wait() parks the calling thread until a `shutdown` request arrives (or
/// shutdown()/request_shutdown() is called); shutdown() then stops the
/// listener, drains the scheduler and joins every connection thread. The
/// destructor performs the same teardown if the caller did not.
class Server {
public:
    explicit Server(ServerConfig cfg);
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Actual bound port (differs from cfg.port when that was 0).
    std::uint16_t port() const noexcept { return port_; }

    ModelRegistry& registry() noexcept { return registry_; }
    BatchScheduler& scheduler() noexcept { return scheduler_; }

    /// Blocks until shutdown is requested (protocol `shutdown` op, a
    /// request_shutdown() call, or `stop_flag` turning true — polled so a
    /// signal handler can end the serve loop).
    void wait(const std::atomic<bool>* stop_flag = nullptr);

    /// Signals wait() to return; safe from any thread (the scheduler's
    /// shutdown handler calls this).
    void request_shutdown();

    /// Full teardown: stop accepting, drain + stop the scheduler, let each
    /// connection flush its queued responses (for at most 2 s in all, so a
    /// peer that stopped reading cannot stall it), join connection threads.
    /// Idempotent.
    void shutdown();

private:
    struct Connection;

    void accept_loop();
    void serve_connection(Connection& conn);

    ServerConfig cfg_;
    ModelRegistry registry_;
    BatchScheduler scheduler_;

    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::thread accept_thread_;

    std::mutex conn_mutex_;
    std::list<std::unique_ptr<Connection>> connections_;

    std::mutex wait_mutex_;
    std::condition_variable wait_cv_;
    bool shutdown_requested_ = false;
    std::atomic<bool> stopped_{false};
};

}  // namespace nofis::serve
