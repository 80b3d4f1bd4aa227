#pragma once

// The benchmark's own span recorder. Spans are opened around calls into
// the library's public functions, so they time each layer from outside
// without adding instrumentation to src/. Every thread appends to its own
// buffer (pool lanes included), so recording takes no lock; buffers are
// merged once the traced work has joined.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One finished span. `parent` is 0 for a root; `req` is the serve request
/// id (0 outside serve-mixed).
struct SpanRec {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t req = 0;
    std::uint32_t tid = 0;
    Clock::time_point t0;
    Clock::time_point t1;
};

/// Turns recording on or off for the whole process. Off by default: a
/// ScopedSpan then reads no clock and allocates nothing.
void set_tracing(bool on) noexcept;
bool tracing() noexcept;

/// Fresh span id, for spans whose children are recorded before they end
/// (a serve request is recorded when its response arrives).
std::uint64_t new_span_id() noexcept;

/// Records a span with explicit times on the calling thread's buffer.
void record_span(const char* name, std::uint64_t id, std::uint64_t parent,
                 std::uint64_t req, Clock::time_point t0,
                 Clock::time_point t1);

/// RAII span. Its parent is the innermost span open on the same thread;
/// on a thread with no open span (a pool lane) it is the process-wide
/// ambient span set by the orchestrator, so lane work nests under the call
/// that fanned it out.
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name, std::uint64_t req = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::uint64_t id() const noexcept { return id_; }

private:
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t req_ = 0;
    Clock::time_point t0_;
};

/// Makes `id` the parent of spans opened on threads with no open span
/// (0 clears it).
void set_ambient_parent(std::uint64_t id) noexcept;

/// Every span recorded so far, from all threads. Call only after the
/// traced work has joined.
std::vector<SpanRec> collect_spans();

/// Drops every recorded span.
void clear_spans();

/// Self time per span name, in ms: each span's duration minus the part of
/// it that its child spans cover (children on other threads included,
/// overlapping children counted once).
std::map<std::string, double> self_time_ms(const std::vector<SpanRec>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" events, µs).
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRec>& spans);

}  // namespace perfbench
