#include "workload/server.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "metrics/metrics.h"
#include "util/clock.h"
#include "util/rng.h"

namespace msw::workload {

namespace {

// Session lifetime in operations: Pareto(alpha), clipped. The heavy tail
// keeps a fraction of sessions alive across many sweeps, which is what
// makes failed-free pressure realistic.
constexpr double kLifetimeAlpha = 1.1;
constexpr std::uint64_t kLifetimeMax = 1 << 16;

// Buffer sizes: Pareto-tailed from kSizeMin, clipped at kSizeMax.
constexpr double kSizeAlpha = 1.3;
constexpr std::size_t kSizeMin = 48;
constexpr std::size_t kSizeMax = 64 * 1024;

/** Max buffers per session (actual count uniform in [1, max]). */
constexpr unsigned kMaxBuffers = 3;

/** Bytes read+written per touch operation. */
constexpr unsigned kTouchBytes = 256;

constexpr std::uint64_t kSeed = 0x5eed;

/**
 * One live session. Lives in the system-under-test heap; the pointers
 * in bufs[] are what sweeps chase. One slot more than kMaxBuffers keeps
 * the header at one 64-byte allocation.
 */
struct Session {
    std::uint64_t close_at = 0;  ///< Op index at which the session expires.
    std::uint32_t nbufs = 0;
    std::uint32_t newest = 0;    ///< Index of the most recent buffer.
    void* bufs[kMaxBuffers + 1] = {};
    std::uint32_t buf_sizes[kMaxBuffers + 1] = {};
};
static_assert(sizeof(Session) == 64);

class ServerWorker
{
  public:
    ServerWorker(System& system, const ServerOptions& opts, unsigned index)
        : system_(system),
          opts_(opts),
          rng_(kSeed * 7919 + index * 104729 + 29),
          slots_(opts.sessions_per_thread, nullptr)
    {}

    WorkloadResult
    run(metrics::Histogram* merged)
    {
        system_.register_thread();
        system_.add_root(slots_.data(), slots_.size() * sizeof(Session*));

        for (std::uint64_t op = 0; op < opts_.ops_per_thread; ++op) {
            const std::uint64_t t0 = util::monotonic_ns();
            serve_one(op);
            hist_.record(util::monotonic_ns() - t0);
        }

        // Server shutdown: close every live session, then deregister the
        // slot table before its memory can be recycled and scanned.
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i] != nullptr)
                close_session(i);
        }
        system_.remove_root(slots_.data());
        system_.flush();
        system_.unregister_thread();
        merged->merge_from(hist_);
        return result_;
    }

  private:
    std::size_t
    draw_buf_size()
    {
        const auto tail = static_cast<std::size_t>(
            rng_.next_pareto(kSizeAlpha, static_cast<double>(kSizeMax)));
        return std::min(kSizeMin + tail, kSizeMax);
    }

    void
    serve_one(std::uint64_t op)
    {
        const std::size_t slot = rng_.next_below(slots_.size());
        Session* s = slots_[slot];
        if (s != nullptr && op >= s->close_at) {
            close_session(slot);
            return;
        }
        if (s == nullptr) {
            open_session(slot, op);
            return;
        }
        touch_session(s);
    }

    void
    open_session(std::size_t slot, std::uint64_t op)
    {
        auto* s = static_cast<Session*>(
            system_.allocator->alloc(sizeof(Session)));
        if (s == nullptr) {
            result_.failed_allocs += 1;
            return;
        }
        result_.allocs += 1;
        result_.bytes_allocated += sizeof(Session);
        new (s) Session();
        s->close_at = op + static_cast<std::uint64_t>(rng_.next_pareto(
                               kLifetimeAlpha,
                               static_cast<double>(kLifetimeMax)));

        const unsigned want =
            1 + static_cast<unsigned>(rng_.next_below(kMaxBuffers));
        for (unsigned b = 0; b < want; ++b) {
            const std::size_t size = draw_buf_size();
            void* buf = system_.allocator->alloc(size);
            if (buf == nullptr) {
                result_.failed_allocs += 1;
                break;  // session opens with fewer buffers
            }
            result_.allocs += 1;
            result_.bytes_allocated += size;
            // Fill the buffer and stamp its head: touch folds only bytes
            // written here, so the checksum is a function of the seed,
            // whatever the allocator recycled into the block.
            std::memset(buf, static_cast<int>((op ^ size) & 0xff), size);
            *static_cast<std::uint64_t*>(buf) = op ^ size;
            s->bufs[s->nbufs] = buf;
            s->buf_sizes[s->nbufs] = static_cast<std::uint32_t>(size);
            s->newest = s->nbufs;
            s->nbufs += 1;
        }
        slots_[slot] = s;
    }

    void
    close_session(std::size_t slot)
    {
        Session* s = slots_[slot];
        // Clear the root-visible pointer first: nothing keeps the
        // session reachable once its memory is quarantined.
        slots_[slot] = nullptr;
        for (std::uint32_t b = 0; b < s->nbufs; ++b) {
            result_.checksum ^=
                *static_cast<std::uint64_t*>(s->bufs[b]);
            system_.allocator->free(s->bufs[b]);
            result_.frees += 1;
        }
        system_.allocator->free(s);
        result_.frees += 1;
    }

    void
    touch_session(Session* s)
    {
        if (s->nbufs == 0)
            return;
        unsigned char* buf =
            static_cast<unsigned char*>(s->bufs[s->newest]);
        const std::size_t size = s->buf_sizes[s->newest];
        // Read-modify-write a stripe: the request handler doing work
        // against session state, so cached lines and TLB entries behave
        // as in a real server.
        const std::size_t span = std::min<std::size_t>(kTouchBytes, size);
        const std::size_t start =
            span < size ? rng_.next_below(size - span + 1) : 0;
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < span; ++i) {
            acc = acc * 131 + buf[start + i];
            buf[start + i] =
                static_cast<unsigned char>(buf[start + i] + 1);
        }
        result_.checksum ^= acc;
    }

    System& system_;
    const ServerOptions& opts_;
    Rng rng_;
    std::vector<Session*> slots_;
    metrics::Histogram hist_;
    WorkloadResult result_;
};

}  // namespace

WorkloadResult
run_server(System& sys, const ServerOptions& opts)
{
    const unsigned nthreads = std::max(1u, opts.threads);
    // Workers allocate their own state up front; the merged histogram
    // outlives them and produces the final digest.
    metrics::Histogram merged;
    std::vector<WorkloadResult> results(nthreads);
    std::vector<std::unique_ptr<ServerWorker>> workers;
    workers.reserve(nthreads);
    for (unsigned i = 0; i < nthreads; ++i)
        workers.push_back(
            std::make_unique<ServerWorker>(sys, opts, i));

    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (unsigned i = 0; i < nthreads; ++i) {
        threads.emplace_back([&, i] {
            results[i] = workers[i]->run(&merged);
        });
    }
    for (auto& t : threads)
        t.join();

    WorkloadResult total;
    for (const WorkloadResult& r : results) {
        total.allocs += r.allocs;
        total.frees += r.frees;
        total.bytes_allocated += r.bytes_allocated;
        total.checksum ^= r.checksum;
        total.failed_allocs += r.failed_allocs;
    }
    total.op_latency = merged.summarize();
    return total;
}

}  // namespace msw::workload
