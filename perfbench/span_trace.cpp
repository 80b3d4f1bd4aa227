#include "span_trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_ambient{0};

struct ThreadBuf {
    std::uint32_t tid = 0;
    std::vector<SpanRec> spans;
    std::vector<std::uint64_t> open;  ///< ids of spans open on this thread
};

// Buffers are owned here rather than by the thread, so spans of a thread
// that has exited are still collected.
std::mutex g_bufs_mutex;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;

ThreadBuf& local_buf() {
    thread_local ThreadBuf* buf = nullptr;
    if (buf == nullptr) {
        std::lock_guard lock(g_bufs_mutex);
        g_bufs.push_back(std::make_unique<ThreadBuf>());
        buf = g_bufs.back().get();
        buf->tid = static_cast<std::uint32_t>(g_bufs.size());
        buf->spans.reserve(1 << 12);
    }
    return *buf;
}

}  // namespace

void set_tracing(bool on) noexcept { g_on.store(on); }
bool tracing() noexcept { return g_on.load(std::memory_order_relaxed); }

std::uint64_t new_span_id() noexcept {
    return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void set_ambient_parent(std::uint64_t id) noexcept { g_ambient.store(id); }

void record_span(const char* name, std::uint64_t id, std::uint64_t parent,
                 std::uint64_t req, Clock::time_point t0,
                 Clock::time_point t1) {
    ThreadBuf& buf = local_buf();
    buf.spans.push_back({name, id, parent, req, buf.tid, t0, t1});
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t req)
    : name_(name), req_(req) {
    if (!tracing()) return;
    ThreadBuf& buf = local_buf();
    id_ = new_span_id();
    parent_ = buf.open.empty() ? g_ambient.load(std::memory_order_relaxed)
                               : buf.open.back();
    buf.open.push_back(id_);
    t0_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
    if (id_ == 0) return;
    const auto t1 = Clock::now();
    ThreadBuf& buf = local_buf();
    buf.open.pop_back();
    buf.spans.push_back({name_, id_, parent_, req_, buf.tid, t0_, t1});
}

std::vector<SpanRec> collect_spans() {
    std::lock_guard lock(g_bufs_mutex);
    std::vector<SpanRec> all;
    for (const auto& b : g_bufs)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    std::sort(all.begin(), all.end(),
              [](const SpanRec& a, const SpanRec& b) { return a.t0 < b.t0; });
    return all;
}

void clear_spans() {
    std::lock_guard lock(g_bufs_mutex);
    for (const auto& b : g_bufs) b->spans.clear();
}

std::map<std::string, double> self_time_ms(
    const std::vector<SpanRec>& spans) {
    std::unordered_map<std::uint64_t, std::vector<const SpanRec*>> children;
    for (const auto& s : spans)
        if (s.parent != 0) children[s.parent].push_back(&s);
    std::map<std::string, double> self;
    for (const auto& s : spans) {
        double covered = 0.0;
        if (auto it = children.find(s.id); it != children.end()) {
            // Union of the child intervals, clipped to the parent. Children
            // come sorted by start (collect_spans sorts), so one sweep.
            Clock::time_point reach = s.t0;
            for (const SpanRec* c : it->second) {
                const auto b = std::max(c->t0, reach);
                const auto e = std::min(c->t1, s.t1);
                if (e > b) {
                    covered +=
                        std::chrono::duration<double, std::milli>(e - b)
                            .count();
                    reach = e;
                }
            }
        }
        const double dur =
            std::chrono::duration<double, std::milli>(s.t1 - s.t0).count();
        self[s.name] += std::max(0.0, dur - covered);
    }
    return self;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRec>& spans) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write trace " + path);
    const Clock::time_point origin =
        spans.empty() ? Clock::time_point{} : spans.front().t0;
    auto us = [&](Clock::duration d) {
        return std::chrono::duration<double, std::micro>(d).count();
    };
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    os.precision(3);
    os << std::fixed;
    bool first = true;
    for (const auto& s : spans) {
        os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << us(s.t0 - origin) << ",\"dur\":" << us(s.t1 - s.t0)
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
        if (s.req != 0) os << ",\"req\":" << s.req;
        os << "}}";
        first = false;
    }
    os << "\n]}\n";
    if (!os) throw std::runtime_error("failed writing trace " + path);
}

}  // namespace perfbench
