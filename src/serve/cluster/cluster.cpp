#include "serve/cluster/cluster.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "serve/tcp_client.hpp"
#include "telemetry/telemetry.hpp"
#include "util/atomic_file.hpp"

namespace nofis::serve::cluster {

using util::Json;

namespace {

void send_all(int fd, const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                                 MSG_NOSIGNAL);
        if (n <= 0) throw std::runtime_error("send failed");
        sent += static_cast<std::size_t>(n);
    }
}

}  // namespace

std::size_t route_worker(std::string_view model,
                         std::size_t workers) noexcept {
    if (workers <= 1) return 0;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : model) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h % workers);
}

/// One worker slot: the process plus the routing state the front keeps for
/// it. `generation` bumps on every respawn so cached connections to the old
/// process are recognised as stale; `in_flight` counts requests forwarded
/// but not yet answered, which is what drain waits on.
struct Cluster::Slot {
    std::size_t index = 0;
    std::mutex mutex;
    std::condition_variable cv;
    std::unique_ptr<WorkerProcess> proc;  ///< null mid-respawn
    std::uint64_t generation = 0;
    bool draining = false;
    std::size_t in_flight = 0;
    std::uint64_t restarts = 0;
};

/// One accepted client connection. The reader thread decodes each line and
/// either answers it at the front (admin verbs) or forwards it, pipelined,
/// over this connection's private link to the owning worker; a FIFO tag
/// queue records where each response will come from. The writer thread pops
/// tags in order and relays one response line per tag — worker links answer
/// in request order, so client order is preserved without response ids.
struct Cluster::ClientConn {
    int fd = -1;
    std::thread reader;
    std::thread writer;

    struct Tag {
        int worker = -1;                  ///< -1 = answered at the front
        std::shared_ptr<TcpClient> link;  ///< link the request went out on
        std::uint64_t id = 0;
        Op op = Op::kPing;
        std::string local;  ///< ready response line when worker == -1
    };
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Tag> pending;
    bool read_done = false;
    bool broken = false;

    /// Reader-thread state: one lazily opened link per worker slot. Tags
    /// hold a shared_ptr to the link they were sent on, so a reconnect
    /// (after a worker respawn) never yanks a link out from under the
    /// writer draining earlier responses.
    struct Link {
        std::shared_ptr<TcpClient> client;
        std::uint64_t generation = 0;
    };
    std::vector<Link> links;
};

Cluster::Cluster(ClusterConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.workers == 0) cfg_.workers = 1;
    slots_.reserve(cfg_.workers);
    for (std::size_t i = 0; i < cfg_.workers; ++i) {
        slots_.push_back(std::make_unique<Slot>());
        slots_.back()->index = i;
    }
    // Workers first: a client connecting the moment port() is published
    // must find routable workers. A spawn failure here throws; member
    // destructors terminate the workers already running.
    for (std::size_t i = 0; i < slots_.size(); ++i) spawn_slot(i);

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("cluster: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg_.port);
    if (::inet_pton(AF_INET, cfg_.host.c_str(), &addr.sin_addr) != 1) {
        ::close(listen_fd_);
        throw std::runtime_error("cluster: bad host '" + cfg_.host + "'");
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
        ::close(listen_fd_);
        throw std::runtime_error("cluster: cannot bind " + cfg_.host + ":" +
                                 std::to_string(cfg_.port));
    }
    if (::listen(listen_fd_, cfg_.backlog) != 0) {
        ::close(listen_fd_);
        throw std::runtime_error("cluster: listen() failed");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);

    accept_thread_ = std::thread([this] { accept_loop(); });
    health_thread_ = std::thread([this] { health_loop(); });
}

Cluster::~Cluster() { shutdown(); }

std::string Cluster::worker_metrics_path(std::size_t i) const {
    if (cfg_.metrics_out.empty()) return "";
    return cfg_.metrics_out + ".worker-" + std::to_string(i) + ".json";
}

void Cluster::spawn_slot(std::size_t i) {
    WorkerOptions opts = cfg_.worker;
    opts.metrics_out = worker_metrics_path(i);
    auto proc = std::make_unique<WorkerProcess>(opts);
    Slot& slot = *slots_[i];
    const std::lock_guard<std::mutex> lock(slot.mutex);
    slot.proc = std::move(proc);
    ++slot.generation;
    slot.cv.notify_all();
}

pid_t Cluster::worker_pid(std::size_t i) {
    Slot& slot = *slots_.at(i);
    const std::lock_guard<std::mutex> lock(slot.mutex);
    return slot.proc ? slot.proc->pid() : -1;
}

std::uint16_t Cluster::worker_port(std::size_t i) {
    Slot& slot = *slots_.at(i);
    const std::lock_guard<std::mutex> lock(slot.mutex);
    return slot.proc ? slot.proc->port() : 0;
}

std::uint64_t Cluster::worker_restarts(std::size_t i) {
    Slot& slot = *slots_.at(i);
    const std::lock_guard<std::mutex> lock(slot.mutex);
    return slot.restarts;
}

void Cluster::accept_loop() {
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            if (stopping_.load(std::memory_order_relaxed)) return;
            const int err = errno;
            if (err == EINTR || err == ECONNABORTED) continue;
            if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
                err == ENOMEM) {
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                continue;
            }
            return;  // listener closed underneath us
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        telemetry::count("serve.front.connections");

        const std::lock_guard<std::mutex> lock(conn_mutex_);
        connections_.push_back(std::make_unique<ClientConn>());
        ClientConn& conn = *connections_.back();
        conn.fd = fd;
        conn.links.resize(slots_.size());
        serve_client(conn);
    }
}

void Cluster::push_local(ClientConn& conn, std::string response) {
    {
        const std::lock_guard<std::mutex> lock(conn.mutex);
        ClientConn::Tag tag;
        tag.local = std::move(response);
        conn.pending.push_back(std::move(tag));
    }
    conn.cv.notify_all();
}

void Cluster::forward_line(ClientConn& conn, std::size_t w,
                           const Request& req, const std::string& line) {
    Slot& slot = *slots_[w];
    std::uint16_t port = 0;
    std::uint64_t gen = 0;
    {
        std::unique_lock<std::mutex> lock(slot.mutex);
        // Routing-level drain: a draining worker receives nothing new, so
        // requests park here until resume (or shutdown).
        slot.cv.wait(lock, [&] {
            return !slot.draining ||
                   stopping_.load(std::memory_order_relaxed);
        });
        if (stopping_.load(std::memory_order_relaxed)) {
            push_local(conn,
                       Response::failure(req, ErrorCode::kShuttingDown,
                                         "cluster stopping")
                           .encode());
            return;
        }
        if (!slot.proc) {
            // Mid-respawn window: fail fast with a structured error, never
            // hang the client.
            telemetry::count("serve.front.worker_unavailable");
            push_local(conn,
                       Response::failure(
                           req, ErrorCode::kWorkerUnavailable,
                           "worker " + std::to_string(w) + " is restarting")
                           .encode());
            return;
        }
        port = slot.proc->port();
        gen = slot.generation;
        ++slot.in_flight;
    }

    const auto fail = [&] {
        {
            const std::lock_guard<std::mutex> lock(slot.mutex);
            if (slot.in_flight > 0) --slot.in_flight;
        }
        slot.cv.notify_all();
        telemetry::count("serve.front.worker_unavailable");
        push_local(conn,
                   Response::failure(req, ErrorCode::kWorkerUnavailable,
                                     "worker " + std::to_string(w) +
                                         " is unreachable; respawning")
                       .encode());
    };

    ClientConn::Link& link = conn.links[w];
    if (!link.client || link.generation != gen) {
        try {
            link.client = std::make_shared<TcpClient>(cfg_.host, port);
            link.generation = gen;
        } catch (const std::exception&) {
            link.client.reset();
            fail();
            return;
        }
    }
    try {
        link.client->send_line(line);
    } catch (const std::exception&) {
        link.client.reset();
        fail();
        return;
    }
    telemetry::count("serve.front.forwarded");
    {
        const std::lock_guard<std::mutex> lock(conn.mutex);
        ClientConn::Tag tag;
        tag.worker = static_cast<int>(w);
        tag.link = link.client;
        tag.id = req.id;
        tag.op = req.op;
        conn.pending.push_back(std::move(tag));
    }
    conn.cv.notify_all();
}

std::string Cluster::admin_call(std::size_t w, const Request& req,
                                const std::string& line) {
    Slot& slot = *slots_[w];
    std::uint16_t port = 0;
    {
        const std::lock_guard<std::mutex> lock(slot.mutex);
        if (slot.proc) port = slot.proc->port();
    }
    if (port != 0) {
        try {
            TcpClient admin(cfg_.host, port);
            return admin.call_raw(line);
        } catch (const std::exception&) {
        }
    }
    telemetry::count("serve.front.worker_unavailable");
    return Response::failure(req, ErrorCode::kWorkerUnavailable,
                             "worker " + std::to_string(w) + " unavailable")
        .encode();
}

void Cluster::route_line(ClientConn& conn, const std::string& line) {
    telemetry::count("serve.front.requests");
    Request req;
    try {
        req = Request::decode(line);
    } catch (const ServeError& e) {
        push_local(conn, Response::failure(Request{}, e).encode());
        return;
    }
    switch (req.op) {
        case Op::kPing: {
            // Answered at the front; `workers` on top of the worker shape
            // tells clients they are talking to a cluster.
            Json result = Json::object();
            result.set("pong", Json::boolean(true));
            result.set("workers", Json::number_u64(slots_.size()));
            push_local(conn,
                       Response::success(req, std::move(result)).encode());
            return;
        }
        case Op::kDrain:
        case Op::kResume: {
            if (req.worker >= static_cast<std::int64_t>(slots_.size())) {
                push_local(conn,
                           Response::failure(req, ErrorCode::kBadRequest,
                                             "no worker " +
                                                 std::to_string(req.worker))
                               .encode());
                return;
            }
            const bool drain = req.op == Op::kDrain;
            if (drain) telemetry::count("serve.front.drains");
            if (req.worker >= 0) {
                drain ? drain_slot(static_cast<std::size_t>(req.worker))
                      : resume_slot(static_cast<std::size_t>(req.worker));
            } else {
                for (std::size_t i = 0; i < slots_.size(); ++i)
                    drain ? drain_slot(i) : resume_slot(i);
            }
            Json result = Json::object();
            result.set(drain ? "drained" : "resumed", Json::boolean(true));
            push_local(conn,
                       Response::success(req, std::move(result)).encode());
            return;
        }
        case Op::kShutdown: {
            Json result = Json::object();
            result.set("stopping", Json::boolean(true));
            push_local(conn,
                       Response::success(req, std::move(result)).encode());
            request_shutdown();
            return;
        }
        case Op::kListModels:
            // Every worker serves the same model directory; worker 0
            // answers for the fleet.
            forward_line(conn, 0, req, line);
            return;
        case Op::kReload: {
            // Zero-downtime reload: stop routing to the owner, let its
            // queue drain, swap on the worker, resume. Requests for the
            // model arriving meanwhile wait at the routing gate instead of
            // racing the swap.
            const std::size_t w = route_worker(req.model, slots_.size());
            drain_slot(w);
            std::string response = admin_call(w, req, line);
            resume_slot(w);
            push_local(conn, std::move(response));
            return;
        }
        default:
            forward_line(conn, route_worker(req.model, slots_.size()), req,
                         line);
            return;
    }
}

void Cluster::serve_client(ClientConn& conn) {
    conn.reader = std::thread([this, &conn] {
        std::string buffer;
        char chunk[4096];
        for (;;) {
            const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
            if (n <= 0) break;
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t start = 0;
            for (;;) {
                const std::size_t nl = buffer.find('\n', start);
                if (nl == std::string::npos) break;
                const std::string line = buffer.substr(start, nl - start);
                start = nl + 1;
                if (!line.empty()) route_line(conn, line);
            }
            buffer.erase(0, start);
        }
        {
            const std::lock_guard<std::mutex> lock(conn.mutex);
            conn.read_done = true;
        }
        conn.cv.notify_all();
    });

    conn.writer = std::thread([this, &conn] {
        for (;;) {
            ClientConn::Tag tag;
            {
                std::unique_lock<std::mutex> lock(conn.mutex);
                conn.cv.wait(lock, [&] {
                    return !conn.pending.empty() || conn.read_done;
                });
                if (conn.pending.empty()) return;  // read_done && drained
                tag = std::move(conn.pending.front());
                conn.pending.pop_front();
            }
            std::string response;
            if (tag.worker < 0) {
                response = std::move(tag.local);
            } else {
                bool got = false;
                try {
                    response = tag.link->recv_line();
                    got = true;
                } catch (const std::exception&) {
                }
                Slot& slot = *slots_[static_cast<std::size_t>(tag.worker)];
                {
                    const std::lock_guard<std::mutex> lock(slot.mutex);
                    if (slot.in_flight > 0) --slot.in_flight;
                }
                slot.cv.notify_all();
                if (!got) {
                    // The worker died between accepting the request and
                    // answering: the client gets a structured error with
                    // its own id, not a hang or a dropped line.
                    Request stub;
                    stub.id = tag.id;
                    stub.op = tag.op;
                    telemetry::count("serve.front.worker_unavailable");
                    response =
                        Response::failure(stub, ErrorCode::kWorkerUnavailable,
                                          "worker " +
                                              std::to_string(tag.worker) +
                                              " died mid-request; respawning")
                            .encode();
                }
            }
            if (conn.broken) continue;
            try {
                send_all(conn.fd, response + "\n");
            } catch (const std::exception&) {
                conn.broken = true;  // drain remaining tags silently
            }
        }
    });
}

void Cluster::health_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            Slot& slot = *slots_[i];
            std::unique_ptr<WorkerProcess> dead;
            {
                const std::lock_guard<std::mutex> lock(slot.mutex);
                if (slot.proc && !slot.proc->alive()) {
                    dead = std::move(slot.proc);
                    ++slot.restarts;
                }
            }
            if (!dead) continue;
            telemetry::count("serve.front.restarts");
            std::fprintf(stderr,
                         "nofis-serve: worker %zu (pid %d) died; "
                         "respawning\n",
                         i, static_cast<int>(dead->pid()));
            dead.reset();  // already reaped by alive(); releases the pipe
            try {
                spawn_slot(i);
                std::fprintf(stderr,
                             "nofis-serve: worker %zu respawned pid=%d "
                             "port=%u\n",
                             i, static_cast<int>(worker_pid(i)),
                             static_cast<unsigned>(worker_port(i)));
            } catch (const std::exception& e) {
                // Slot stays empty (requests fail fast); retried next tick.
                std::fprintf(stderr,
                             "nofis-serve: respawn of worker %zu failed: "
                             "%s\n",
                             i, e.what());
            }
        }
        // Short poll keeps the worker_unavailable window tight without
        // burning CPU.
        for (int t = 0; t < 2 && !stopping_.load(std::memory_order_relaxed);
             ++t)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

void Cluster::drain_slot(std::size_t i) {
    Slot& slot = *slots_[i];
    std::unique_lock<std::mutex> lock(slot.mutex);
    slot.draining = true;
    // Writers decrement in_flight as worker responses arrive (or fail), so
    // this terminates even when the worker crashed mid-drain.
    slot.cv.wait(lock, [&] {
        return slot.in_flight == 0 ||
               stopping_.load(std::memory_order_relaxed);
    });
}

void Cluster::resume_slot(std::size_t i) {
    Slot& slot = *slots_[i];
    {
        const std::lock_guard<std::mutex> lock(slot.mutex);
        slot.draining = false;
    }
    slot.cv.notify_all();
}

void Cluster::wait(const std::atomic<bool>* stop_flag) {
    std::unique_lock<std::mutex> lock(wait_mutex_);
    while (!shutdown_requested_) {
        if (stop_flag != nullptr &&
            stop_flag->load(std::memory_order_relaxed))
            break;
        wait_cv_.wait_for(lock, std::chrono::milliseconds(100));
    }
}

void Cluster::request_shutdown() {
    {
        const std::lock_guard<std::mutex> lock(wait_mutex_);
        shutdown_requested_ = true;
    }
    wait_cv_.notify_all();
}

void Cluster::shutdown() {
    if (stopped_.exchange(true)) return;
    request_shutdown();
    stopping_.store(true, std::memory_order_relaxed);
    for (auto& slot : slots_) slot->cv.notify_all();

    // Same order as serve::Server: unblock accept(), join the accept
    // thread, and only then close the fd it reads.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
    if (health_thread_.joinable()) health_thread_.join();

    // Drain-all-then-exit: every request already forwarded gets its
    // response (or a structured error) before the workers go away. Bounded
    // so a wedged worker cannot hold the front hostage.
    for (auto& slotp : slots_) {
        Slot& slot = *slotp;
        std::unique_lock<std::mutex> lock(slot.mutex);
        slot.cv.wait_for(lock, std::chrono::seconds(30),
                         [&] { return slot.in_flight == 0; });
    }

    {
        const std::lock_guard<std::mutex> lock(conn_mutex_);
        for (auto& conn : connections_) {
            ::shutdown(conn->fd, SHUT_RDWR);  // unblocks the reader's recv
            if (conn->reader.joinable()) conn->reader.join();
            // Unblock a writer stuck on a worker that never answered
            // (crash + drain timeout): half-close every link it may be
            // reading, current and superseded.
            {
                const std::lock_guard<std::mutex> tags(conn->mutex);
                for (auto& link : conn->links)
                    if (link.client) link.client->shutdown();
                for (auto& tag : conn->pending)
                    if (tag.link) tag.link->shutdown();
            }
            if (conn->writer.joinable()) conn->writer.join();
            ::close(conn->fd);
            conn->fd = -1;
        }
        connections_.clear();
    }

    // Graceful worker stop: SIGTERM lets each worker drain its scheduler
    // and write its metrics record; SIGKILL only past the grace window.
    for (auto& slotp : slots_) {
        const std::lock_guard<std::mutex> lock(slotp->mutex);
        if (slotp->proc) slotp->proc->terminate(10.0);
    }
}

bool Cluster::write_metrics(const std::string& path) {
    Json per_worker = Json::array();
    std::map<std::string, std::uint64_t> fleet_counters;
    std::map<std::string, double> fleet_metrics;
    std::uint64_t restarts_total = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Json entry = Json::object();
        entry.set("worker", Json::number_u64(i));
        const std::uint64_t restarts = worker_restarts(i);
        entry.set("restarts", Json::number_u64(restarts));
        restarts_total += restarts;
        bool parsed = false;
        std::ifstream is(worker_metrics_path(i));
        if (is) {
            std::stringstream ss;
            ss << is.rdbuf();
            try {
                Json doc = Json::parse(ss.str());
                if (const Json* cs = doc.find("counters");
                    cs != nullptr && cs->is_object())
                    for (const auto& [name, value] : cs->members())
                        if (value.is_number())
                            fleet_counters[name] += value.as_u64();
                if (const Json* ms = doc.find("metrics");
                    ms != nullptr && ms->is_object())
                    for (const auto& [name, value] : ms->members())
                        if (value.is_number()) {
                            const auto it = fleet_metrics.find(name);
                            fleet_metrics[name] =
                                it == fleet_metrics.end()
                                    ? value.as_double()
                                    : std::max(it->second,
                                               value.as_double());
                        }
                entry.set("record", std::move(doc));
                parsed = true;
            } catch (const std::exception&) {
            }
        }
        if (!parsed) entry.set("record", Json::null());
        per_worker.push_back(std::move(entry));
    }

    Json root = Json::object();
    root.set("schema", Json::string("nofis-cluster-metrics-v1"));
    root.set("workers", Json::number_u64(slots_.size()));
    root.set("restarts", Json::number_u64(restarts_total));
    // Fleet view: counters sum across workers; metrics (gauges like queue
    // peaks or per-worker throughput) take the per-worker maximum.
    Json fleet = Json::object();
    Json counters = Json::object();
    for (const auto& [name, value] : fleet_counters)
        counters.set(name, Json::number_u64(value));
    fleet.set("counters", std::move(counters));
    Json metrics = Json::object();
    for (const auto& [name, value] : fleet_metrics)
        metrics.set(name, Json::number(value));
    fleet.set("metrics", std::move(metrics));
    root.set("fleet", std::move(fleet));
    // The front's own routing counters, when telemetry is active.
    Json front = Json::object();
    if (telemetry::RunTrace* trace = telemetry::active()) {
        Json front_counters = Json::object();
        for (const auto& [name, value] : trace->counters())
            front_counters.set(name, Json::number_u64(value));
        front.set("counters", std::move(front_counters));
    }
    root.set("front", std::move(front));
    root.set("per_worker", std::move(per_worker));

    try {
        util::AtomicFile file(path);
        file.stream() << root.encode() << '\n';
        file.commit();
        return true;
    } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "error: cannot write cluster metrics to '%s': %s\n",
                     path.c_str(), e.what());
        return false;
    }
}

}  // namespace nofis::serve::cluster
