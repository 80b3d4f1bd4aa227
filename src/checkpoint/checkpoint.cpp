#include "checkpoint/checkpoint.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/atomic_file.hpp"

namespace nofis::checkpoint {

namespace {

constexpr char kMagic[8] = {'N', 'O', 'F', 'I', 'S', 'C', 'K', 'P'};
constexpr std::uint32_t kVersion = 1;
constexpr const char* kExtension = ".nofisckpt";
constexpr const char* kPrefix = "ckpt-";

/// FNV-1a, continuing from `h`: the snapshot checksum and the run
/// fingerprint hash.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

// --- encoding ----------------------------------------------------------

/// A fixed-width field as its raw bytes (doubles keep their bit pattern).
template <class T>
void put_raw(std::string& out, T v) {
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out.append(buf, sizeof(T));
}

void put_u64(std::string& out, std::uint64_t v) { put_raw(out, v); }
void put_u8(std::string& out, std::uint8_t v) { put_raw(out, v); }
void put_f64(std::string& out, double v) { put_raw(out, v); }

void put_string(std::string& out, const std::string& s) {
    put_u64(out, s.size());
    out.append(s);
}

/// Count-prefixed list: u64 size, then each element.
template <class T, class PutOne>
void put_list(std::string& out, const std::vector<T>& v, PutOne put_one) {
    put_u64(out, v.size());
    for (const T& x : v) put_one(out, x);
}

void put_matrix(std::string& out, const linalg::Matrix& m) {
    put_u64(out, m.rows());
    put_u64(out, m.cols());
    for (double x : m.flat()) put_f64(out, x);
}

void put_fault_report(std::string& out, const estimators::FaultReport& r) {
    put_u64(out, r.counts.size());
    for (std::size_t c : r.counts) put_u64(out, c);
    put_u64(out, r.retry_attempts);
    put_u64(out, r.recovered);
    put_u64(out, r.clamped);
    put_u64(out, r.propagated);
    put_u8(out, r.has_first ? 1 : 0);
    put_u64(out, static_cast<std::uint64_t>(r.first_kind));
    put_string(out, r.first_message);
    put_list(out, r.first_x, put_f64);
    put_u64(out, r.first_call_index);
}

void put_stage(std::string& out, const core::StageDiagnostics& s) {
    put_u64(out, s.stage);
    put_f64(out, s.level);
    put_list(out, s.epoch_loss, put_f64);
    put_f64(out, s.inside_fraction);
    put_u64(out, s.retries);
    put_list(out, s.retry_reasons, put_string);
    put_u64(out, s.skipped_epochs);
}

void put_opt_state(std::string& out, const nn::OptimizerState& s) {
    put_u64(out, static_cast<std::uint64_t>(s.step_count));
    put_list(out, s.slots, put_matrix);
}

// --- decoding ----------------------------------------------------------

struct Truncated {};  ///< internal parse failure; never escapes decode

/// Bounds-checked reader over the verified payload.
class Reader {
public:
    Reader(const char* data, std::size_t size) : p_(data), end_(data + size) {}

    template <class T>
    T raw() {
        need(sizeof(T));
        T v{};
        std::memcpy(&v, p_, sizeof(T));
        p_ += sizeof(T);
        return v;
    }
    std::uint64_t u64() { return raw<std::uint64_t>(); }
    std::uint8_t u8() { return raw<std::uint8_t>(); }
    double f64() { return raw<double>(); }
    std::string str() {
        const std::uint64_t n = u64();
        need(n);
        std::string s(p_, n);
        p_ += n;
        return s;
    }
    /// Count-prefixed list. Every element takes at least one byte, so a
    /// count beyond the remaining bytes is damage.
    template <class ReadOne>
    auto list(ReadOne read_one) {
        const std::uint64_t n = u64();
        if (n > remaining()) throw Truncated{};
        std::vector<decltype(read_one())> v;
        v.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) v.push_back(read_one());
        return v;
    }
    linalg::Matrix matrix() {
        const std::uint64_t rows = u64();
        const std::uint64_t cols = u64();
        // Bound the shape by the bytes left without forming rows * cols * 8,
        // which a hostile shape can wrap around to a small number.
        if (cols != 0 && rows > remaining() / 8 / cols) throw Truncated{};
        linalg::Matrix m(rows, cols);
        for (double& x : m.flat()) x = f64();
        return m;
    }
    std::vector<double> f64_vec() {
        return list([this] { return f64(); });
    }
    std::vector<linalg::Matrix> matrix_vec() {
        return list([this] { return matrix(); });
    }
    estimators::FaultReport fault_report() {
        estimators::FaultReport r;
        const std::uint64_t kinds = u64();
        if (kinds != r.counts.size()) throw Truncated{};
        for (auto& c : r.counts) c = u64();
        r.retry_attempts = u64();
        r.recovered = u64();
        r.clamped = u64();
        r.propagated = u64();
        r.has_first = u8() != 0;
        const std::uint64_t kind = u64();
        if (kind >= static_cast<std::uint64_t>(
                        estimators::FaultKind::kCount))
            throw Truncated{};
        r.first_kind = static_cast<estimators::FaultKind>(kind);
        r.first_message = str();
        r.first_x = f64_vec();
        r.first_call_index = u64();
        return r;
    }
    core::StageDiagnostics stage() {
        core::StageDiagnostics s;
        s.stage = u64();
        s.level = f64();
        s.epoch_loss = f64_vec();
        s.inside_fraction = f64();
        s.retries = u64();
        s.retry_reasons = list([this] { return str(); });
        s.skipped_epochs = u64();
        return s;
    }
    nn::OptimizerState opt_state() {
        nn::OptimizerState s;
        s.step_count = static_cast<long>(u64());
        s.slots = matrix_vec();
        return s;
    }
    bool done() const noexcept { return p_ == end_; }

private:
    std::size_t remaining() const noexcept {
        return static_cast<std::size_t>(end_ - p_);
    }
    void need(std::uint64_t n) const {
        if (n > remaining()) throw Truncated{};
    }
    const char* p_;
    const char* end_;
};

std::uint64_t parse_seq(const std::filesystem::path& file) {
    const std::string name = file.filename().string();
    const std::size_t prefix_len = std::strlen(kPrefix);
    if (name.rfind(kPrefix, 0) != 0) return 0;
    if (name.size() <= prefix_len || file.extension() != kExtension) return 0;
    std::uint64_t seq = 0;
    for (std::size_t i = prefix_len;
         i < name.size() - std::strlen(kExtension); ++i) {
        const char c = name[i];
        if (c < '0' || c > '9') return 0;
        seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return seq;
}

/// Snapshot files in `dir`, newest sequence first.
std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_snapshots(
    const std::string& dir) {
    namespace fs = std::filesystem;
    std::vector<std::pair<std::uint64_t, fs::path>> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file()) continue;
        const std::uint64_t seq = parse_seq(entry.path());
        if (seq > 0) files.emplace_back(seq, entry.path());
    }
    std::sort(files.begin(), files.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    return files;
}

std::atomic<bool> g_stop_requested{false};
std::atomic<bool> g_handlers_installed{false};

void on_stop_signal(int) {
    g_stop_requested.store(true, std::memory_order_relaxed);
}

}  // namespace

std::string encode_snapshot(const TrainSnapshot& s) {
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    put_raw(out, kVersion);
    put_u64(out, s.fingerprint);
    put_u64(out, s.next_stage);
    put_list(out, s.params, put_matrix);
    put_list(out, s.scale_caps, put_f64);
    for (std::uint64_t w : s.rng_state) put_u64(out, w);
    put_u64(out, s.guard.call_index);
    put_fault_report(out, s.guard.report);
    put_u64(out, s.train_g_calls);
    put_u64(out, s.g_grad_calls);
    put_u64(out, s.cached_hits);
    put_list(out, s.stages, put_stage);
    put_u8(out, s.has_partial ? 1 : 0);
    if (s.has_partial) {
        put_u64(out, s.next_epoch);
        put_u64(out, s.attempt);
        put_f64(out, s.attempt_lr);
        put_f64(out, s.attempt_clip);
        put_f64(out, s.stage_lr);
        put_opt_state(out, s.opt_state);
        put_list(out, s.stage_start_params, put_matrix);
        put_stage(out, s.partial);
    }
    put_u64(out, fnv1a(out.data(), out.size()));
    return out;
}

std::optional<TrainSnapshot> decode_snapshot(const std::string& bytes) {
    constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4;
    if (bytes.size() < kHeaderBytes + 8) return std::nullopt;
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return std::nullopt;
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + sizeof(kMagic), 4);
    if (version != kVersion) return std::nullopt;
    // Trailing checksum covers everything before it; a torn tail or a
    // flipped bit anywhere fails here before any field is trusted.
    std::uint64_t stored = 0;
    std::memcpy(&stored, bytes.data() + bytes.size() - 8, 8);
    if (stored != fnv1a(bytes.data(), bytes.size() - 8)) return std::nullopt;

    try {
        Reader r(bytes.data() + kHeaderBytes,
                 bytes.size() - kHeaderBytes - 8);
        TrainSnapshot s;
        s.fingerprint = r.u64();
        s.next_stage = r.u64();
        s.params = r.matrix_vec();
        s.scale_caps = r.f64_vec();
        for (auto& w : s.rng_state) w = r.u64();
        s.guard.call_index = r.u64();
        s.guard.report = r.fault_report();
        s.train_g_calls = r.u64();
        s.g_grad_calls = r.u64();
        s.cached_hits = r.u64();
        s.stages = r.list([&r] { return r.stage(); });
        s.has_partial = r.u8() != 0;
        if (s.has_partial) {
            s.next_epoch = r.u64();
            s.attempt = r.u64();
            s.attempt_lr = r.f64();
            s.attempt_clip = r.f64();
            s.stage_lr = r.f64();
            s.opt_state = r.opt_state();
            s.stage_start_params = r.matrix_vec();
            s.partial = r.stage();
        }
        if (!r.done()) return std::nullopt;
        return s;
    } catch (const Truncated&) {
        return std::nullopt;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

CheckpointDir::CheckpointDir(std::string dir, std::size_t keep)
    : dir_(std::move(dir)), keep_(std::max<std::size_t>(keep, 1)) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (!fs::is_directory(dir_))
        throw std::runtime_error("checkpoint: cannot create directory '" +
                                 dir_ + "'");
    for (const auto& [seq, path] : list_snapshots(dir_)) {
        (void)path;
        next_seq_ = std::max(next_seq_, seq + 1);
    }
}

void CheckpointDir::write(const TrainSnapshot& snapshot) {
    namespace fs = std::filesystem;
    char name[64];
    std::snprintf(name, sizeof(name), "%s%08llu%s", kPrefix,
                  static_cast<unsigned long long>(next_seq_), kExtension);
    const std::string path = (fs::path(dir_) / name).string();
    util::atomic_write_file(path, encode_snapshot(snapshot));
    ++next_seq_;
    ++writes_;

    // Prune: keep the newest `keep_` snapshots. Pruning failures are
    // swallowed — stale snapshots waste space but never correctness.
    const auto files = list_snapshots(dir_);
    for (std::size_t i = keep_; i < files.size(); ++i) {
        std::error_code ec;
        fs::remove(files[i].second, ec);
    }
}

std::optional<TrainSnapshot> CheckpointDir::load_latest(
    std::uint64_t fingerprint) const {
    for (const auto& [seq, path] : list_snapshots(dir_)) {
        (void)seq;
        std::ifstream is(path, std::ios::binary);
        if (!is) continue;
        std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
        auto snapshot = decode_snapshot(bytes);
        if (!snapshot) continue;  // torn/corrupt: fall back to older
        if (snapshot->fingerprint != fingerprint)
            throw std::runtime_error(
                "checkpoint: snapshot '" + path.string() +
                "' belongs to a different run configuration (fingerprint "
                "mismatch) — refusing to resume");
        return snapshot;
    }
    return std::nullopt;
}

FingerprintBuilder& FingerprintBuilder::add(std::uint64_t v) noexcept {
    hash_ = fnv1a(&v, sizeof(v), hash_);
    return *this;
}

FingerprintBuilder& FingerprintBuilder::add(double v) noexcept {
    hash_ = fnv1a(&v, sizeof(v), hash_);
    return *this;
}

FingerprintBuilder& FingerprintBuilder::add(const std::string& s) noexcept {
    add(static_cast<std::uint64_t>(s.size()));
    hash_ = fnv1a(s.data(), s.size(), hash_);
    return *this;
}

void install_stop_handlers() {
    if (g_handlers_installed.exchange(true, std::memory_order_relaxed))
        return;
    std::signal(SIGINT, on_stop_signal);
    std::signal(SIGTERM, on_stop_signal);
}

bool stop_requested() noexcept {
    return g_stop_requested.load(std::memory_order_relaxed);
}

void request_stop() noexcept {
    g_stop_requested.store(true, std::memory_order_relaxed);
}

void reset_stop_request() noexcept {
    g_stop_requested.store(false, std::memory_order_relaxed);
}

}  // namespace nofis::checkpoint
