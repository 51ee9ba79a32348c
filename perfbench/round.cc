/**
 * One round of the benchmark: build a runtime, warm it up to the
 * workload's steady live set, run a fixed number of closed-loop ops on
 * each mutator thread, shut down, and print one JSON line describing
 * the round. run.py starts one process per round, so VmHWM and the
 * getrusage counters belong to this round alone.
 *
 *   perfbench_round --workload server|graph|bulk --seed N
 *                   --system msw|jade --mutators M --helpers H
 *                   [--trace 0|1] [--scale F] [--spans PATH]
 *                   [--inject-reissue]
 *
 * --system msw runs the default fully-concurrent MineSweeper; jade
 * replays the same op stream on a bare JadeAllocator, which gives the
 * expected checksum and the substrate's own speed. --trace 1 times
 * every alloc/free call as a child span of its op and samples the
 * runtime's gauges; spans are kept in memory and written to --spans
 * when the round ends.
 *
 * Workload ops read only bytes they wrote and never fold an address
 * into the checksum, so the checksum is the same on every allocator.
 */
#include <sys/resource.h>
#include <dirent.h>
#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "alloc/jade_allocator.h"
#include "core/minesweeper.h"

namespace {

using msw::alloc::Allocator;

std::uint64_t
now_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

[[noreturn]] void
die(const char* msg)
{
    std::fprintf(stderr, "perfbench_round: %s\n", msg);
    std::exit(2);
}

// ------------------------------------------------------------ inputs

/** xoshiro256**, seeded through splitmix64. Owned here so the inputs do
    not change when the runtime's own generator does. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed)
    {
        for (auto& s : s_) {
            seed += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            s = z ^ (z >> 31);
        }
    }

    std::uint64_t
    next()
    {
        const std::uint64_t r = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return r;
    }

    std::uint64_t
    below(std::uint64_t n)
    {
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * n) >> 64);
    }

    /** Uniform in (0, 1]. */
    double
    unit()
    {
        return static_cast<double>((next() >> 11) + 1) * 0x1.0p-53;
    }

    /** Pareto(alpha) from lo, clipped at hi. */
    std::size_t
    pareto(std::size_t lo, double alpha, std::size_t hi)
    {
        const double v =
            static_cast<double>(lo) * std::pow(unit(), -1.0 / alpha);
        return v >= static_cast<double>(hi) ? hi
                                            : static_cast<std::size_t>(v);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

/** Write every @p stride-th word of the first @p n bytes. */
void
write_words(void* p, std::size_t n, std::uint64_t tag, std::size_t stride)
{
    auto* w = static_cast<std::uint64_t*>(p);
    const std::size_t words = n / 8;
    for (std::size_t i = 0; i < words; i += stride)
        w[i] = tag + i * 0x2545f4914f6cdd1dull;
}

/** Read back exactly the words write_words() wrote. */
std::uint64_t
read_words(const void* p, std::size_t n, std::size_t stride)
{
    const auto* w = static_cast<const std::uint64_t*>(p);
    const std::size_t words = n / 8;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < words; i += stride)
        acc = acc * 31 + w[i];
    return acc;
}

// ---------------------------------------------------------- latencies

/** Latency histogram: exact to 1 ns below 64 µs, 64-ns buckets up to
    4.2 ms, then powers of two. calloc keeps untouched buckets off RSS. */
class LatencyHist
{
  public:
    LatencyHist()
        : c_(static_cast<std::uint32_t*>(
              std::calloc(kBuckets, sizeof(std::uint32_t))))
    {
        if (c_ == nullptr)
            die("out of memory for latency histogram");
    }
    ~LatencyHist() { std::free(c_); }
    LatencyHist(const LatencyHist&) = delete;
    LatencyHist& operator=(const LatencyHist&) = delete;

    void
    add(std::uint64_t ns)
    {
        c_[index(ns)] += 1;
        n_ += 1;
    }

    void
    merge(const LatencyHist& o)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            c_[i] += o.c_[i];
        n_ += o.n_;
    }

    std::uint64_t count() const { return n_; }

    /** Nearest-rank percentile, q in (0, 1]. */
    double
    percentile(double q) const
    {
        if (n_ == 0)
            return 0;
        std::uint64_t rank =
            static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_)));
        rank = std::clamp<std::uint64_t>(rank, 1, n_);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            seen += c_[i];
            if (seen >= rank)
                return value(i);
        }
        return value(kBuckets - 1);
    }

  private:
    static constexpr std::uint64_t kExact = 1u << 16;
    static constexpr std::uint64_t kMid = 1u << 22;
    static constexpr unsigned kMidShift = 6;
    static constexpr std::size_t kMidBuckets = (kMid - kExact) >> kMidShift;
    static constexpr std::size_t kBuckets = kExact + kMidBuckets + 42;

    static std::size_t
    index(std::uint64_t v)
    {
        if (v < kExact)
            return v;
        if (v < kMid)
            return kExact + ((v - kExact) >> kMidShift);
        const unsigned lg = 63u - static_cast<unsigned>(__builtin_clzll(v));
        return std::min<std::size_t>(kExact + kMidBuckets + (lg - 22),
                                     kBuckets - 1);
    }

    static double
    value(std::size_t i)
    {
        if (i < kExact)
            return static_cast<double>(i);
        if (i < kExact + kMidBuckets)
            return static_cast<double>(kExact +
                                       ((i - kExact) << kMidShift)) +
                   (1u << kMidShift) / 2.0;
        const auto lg = static_cast<int>(i - kExact - kMidBuckets) + 22;
        return std::ldexp(1.5, lg);
    }

    std::uint32_t* c_;
    std::uint64_t n_ = 0;
};

// -------------------------------------------------------------- probe

/**
 * The UAF-guarantee probe: a bounded ring of dangling pointers to freed
 * blocks, kept in rooted memory. While a pointer sits here, the runtime
 * must not hand its block out again; an alloc that returns one is a
 * failed op. The pointer is stored before free() so any sweep that
 * could release the block sees it.
 */
struct Probe {
    static constexpr unsigned kRing = 64;
    static constexpr unsigned kFilterBits = 10;

    void* ring[kRing] = {};
    std::uint16_t filter[1u << kFilterBits] = {};
    unsigned next = 0;

    static unsigned
    slot(const void* p)
    {
        const auto a = reinterpret_cast<std::uintptr_t>(p);
        return static_cast<unsigned>(((a >> 4) * 0x9e3779b97f4a7c15ull) >>
                                     (64 - kFilterBits));
    }

    void
    push(void* p)
    {
        if (ring[next] != nullptr)
            filter[slot(ring[next])] -= 1;
        ring[next] = p;
        filter[slot(p)] += 1;
        next = (next + 1) % kRing;
    }

    bool
    holds(const void* p) const
    {
        if (filter[slot(p)] == 0)
            return false;
        for (const void* q : ring) {
            if (q == p)
                return true;
        }
        return false;
    }
};

// ------------------------------------------------------ mutator context

enum SpanKind : std::uint32_t { kSpanOp = 0, kSpanAlloc = 1, kSpanFree = 2 };

struct Span {
    std::uint64_t op;
    std::uint32_t kind;
    std::uint64_t t0, t1;
};

struct RoundConfig {
    bool msw = true;
    bool traced = false;
    bool inject_reissue = false;
    double scale = 1.0;
};

constexpr std::size_t kMaxSpansPerThread = 1u << 16;
/** Every kProbeEvery-th free leaves its pointer in the probe ring. */
constexpr std::uint64_t kProbeEvery = 8;

/**
 * Per-thread view of the allocator under test. Every call into the
 * layer goes through here, so the traced run can time it as a child
 * span of the current op, and the probe and ledger see every block.
 */
class Mutator
{
  public:
    Mutator(Allocator& a, const RoundConfig& cfg, unsigned index,
            std::uint64_t seed)
        : rng(seed), a_(a), cfg_(cfg), index_(index)
    {
        if (cfg.traced) {
            alloc_lat = std::make_unique<LatencyHist>();
            free_lat = std::make_unique<LatencyHist>();
            self_lat = std::make_unique<LatencyHist>();
            spans.reserve(kMaxSpansPerThread);
        }
    }

    void*
    alloc(std::size_t n)
    {
        void* p;
        if (traced_) {
            const std::uint64_t t0 = now_ns();
            p = a_.alloc(n);
            const std::uint64_t t1 = now_ns();
            alloc_lat->add(t1 - t0);
            child_ns_ += t1 - t0;
            span(kSpanAlloc, t0, t1);
        } else {
            p = a_.alloc(n);
        }
        if (p == nullptr) {
            failed_allocs += 1;
            return nullptr;
        }
        allocs += 1;
        if (cfg_.msw) {
            const bool inject =
                cfg_.inject_reissue && allocs == inject_at_ &&
                probe.ring[0] != nullptr;
            if (probe.holds(inject ? probe.ring[0] : p))
                probe_violations += 1;
        }
        return p;
    }

    void
    free(void* p)
    {
        if (++frees % kProbeEvery == 0)
            probe.push(p);
        if (traced_) {
            const std::uint64_t t0 = now_ns();
            a_.free(p);
            const std::uint64_t t1 = now_ns();
            free_lat->add(t1 - t0);
            child_ns_ += t1 - t0;
            span(kSpanFree, t0, t1);
        } else {
            a_.free(p);
        }
    }

    /** Run @p body as one op, timed once the timed phase has begun. */
    template <typename F>
    void
    op(F&& body)
    {
        if (!timed_) {
            body();
            return;
        }
        const std::uint64_t t0 = now_ns();
        child_ns_ = 0;
        body();
        const std::uint64_t t1 = now_ns();
        op_lat.add(t1 - t0);
        if (traced_) {
            self_lat->add(t1 - t0 - std::min(child_ns_, t1 - t0));
            span(kSpanOp, t0, t1);
        }
        op_id_ += 1;
    }

    /** Start timing (and tracing) ops. When injecting, the phase's
        first alloc "returns" a probed pointer. */
    void
    start_timed_phase()
    {
        timed_ = true;
        traced_ = cfg_.traced;
        if (cfg_.inject_reissue)
            inject_at_ = allocs + 1;
    }

    /** Shut-down ops are neither timed nor traced. */
    void
    end_timed_phase()
    {
        timed_ = traced_ = false;
    }

    Rng rng;
    Probe probe;
    std::uint64_t checksum = 0;
    std::uint64_t allocs = 0;
    std::uint64_t frees = 0;
    std::uint64_t failed_allocs = 0;
    std::uint64_t probe_violations = 0;
    LatencyHist op_lat;
    std::unique_ptr<LatencyHist> alloc_lat, free_lat, self_lat;
    std::vector<Span> spans;

  private:
    void
    span(std::uint32_t kind, std::uint64_t t0, std::uint64_t t1)
    {
        if (spans.size() < kMaxSpansPerThread)
            spans.push_back(
                {(std::uint64_t{index_} << 40) | op_id_, kind, t0, t1});
    }

    Allocator& a_;
    const RoundConfig& cfg_;
    unsigned index_;
    bool timed_ = false;
    bool traced_ = false;
    std::uint64_t op_id_ = 0;
    std::uint64_t child_ns_ = 0;
    std::uint64_t inject_at_ = 0;
};

// ---------------------------------------------------------- workloads

/** Ranges a workload thread keeps pointers in, for the runtime to scan. */
using Roots = std::vector<std::pair<const void*, std::size_t>>;

/**
 * server: request/response traffic over Pareto-lived sessions. Each op
 * is one request: allocate and parse a request buffer, touch the
 * session's state, build a response, free both. Sessions open and
 * close as they expire. Few pointers per object, a small live heap: the
 * alloc/free fast path does most of the work.
 */
class ServerWork
{
  public:
    static constexpr std::size_t kSlots = 12288;
    static constexpr std::uint64_t kOps = 400000;

    struct Session {
        std::uint64_t id;
        std::uint64_t close_at;
        std::uint32_t nbufs;
        std::uint32_t sizes[3];
        void* bufs[3];
    };

    explicit ServerWork(double scale)
        : slots_(std::max<std::size_t>(64, static_cast<std::size_t>(
                                               kSlots * scale)),
                 nullptr)
    {}

    Roots roots() const { return {{slots_.data(), slots_.size() * 8}}; }

    /** Open every slot, then serve requests for several session
        lifetimes (and so many sweep cycles) before timing starts. */
    void
    warm_up(Mutator& m)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i)
            open(m, i, 0);
        for (std::uint64_t i = 0; i < 16 * slots_.size(); ++i)
            m.op([&] { request(m, i); });
        clock_ = 16 * slots_.size();
    }

    void
    step(Mutator& m)
    {
        m.op([&] { request(m, clock_); });
        clock_ += 1;
    }

    void
    shut_down(Mutator& m)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i] != nullptr)
                close(m, i);
        }
    }

  private:
    void
    open(Mutator& m, std::size_t slot, std::uint64_t now)
    {
        auto* s = static_cast<Session*>(m.alloc(sizeof(Session)));
        if (s == nullptr)
            return;
        s->id = m.rng.next();
        s->close_at = now + m.rng.pareto(2 * slots_.size(), 1.2,
                                         64 * slots_.size());
        s->nbufs = 0;
        const unsigned want = 1 + static_cast<unsigned>(m.rng.below(3));
        for (unsigned b = 0; b < want; ++b) {
            const std::size_t n = m.rng.pareto(32, 1.3, 16384);
            void* buf = m.alloc(n);
            if (buf == nullptr)
                break;
            write_words(buf, n, s->id + b, 1);
            s->bufs[s->nbufs] = buf;
            s->sizes[s->nbufs] = static_cast<std::uint32_t>(n);
            s->nbufs += 1;
        }
        slots_[slot] = s;
    }

    void
    close(Mutator& m, std::size_t slot)
    {
        Session* s = slots_[slot];
        slots_[slot] = nullptr;
        std::uint64_t acc = s->id;
        for (std::uint32_t b = 0; b < s->nbufs; ++b) {
            acc = mix(acc, read_words(s->bufs[b], s->sizes[b], 1));
            m.free(s->bufs[b]);
        }
        m.checksum = mix(m.checksum, acc);
        m.free(s);
    }

    void
    request(Mutator& m, std::uint64_t now)
    {
        const std::size_t slot = m.rng.below(slots_.size());
        if (slots_[slot] != nullptr && now >= slots_[slot]->close_at)
            close(m, slot);
        if (slots_[slot] == nullptr)
            open(m, slot, now);

        const std::size_t nreq = m.rng.pareto(16, 1.5, 1024);
        void* req = m.alloc(nreq);
        if (req == nullptr)
            return;
        write_words(req, nreq, m.rng.next(), 1);
        std::uint64_t acc = read_words(req, nreq, 1);

        // Touch a stripe of one session buffer: read-modify-write words
        // that open() wrote.
        Session* s = slots_[slot];
        if (s != nullptr && s->nbufs != 0) {
            const std::uint32_t b =
                static_cast<std::uint32_t>(m.rng.below(s->nbufs));
            auto* w = static_cast<std::uint64_t*>(s->bufs[b]);
            const std::size_t words = s->sizes[b] / 8;
            const std::size_t first = m.rng.below(words);
            const std::size_t last = std::min(words, first + 32);
            for (std::size_t i = first; i < last; ++i) {
                acc = acc * 31 + w[i];
                w[i] += acc;
            }
        }

        const std::size_t nresp = m.rng.pareto(24, 1.5, 2048);
        void* resp = m.alloc(nresp);
        if (resp != nullptr) {
            write_words(resp, nresp, acc, 1);
            acc = mix(acc, read_words(resp, nresp, 1));
        }
        m.checksum = mix(m.checksum, acc);
        m.free(req);
        if (resp != nullptr)
            m.free(resp);
    }

    std::vector<Session*> slots_;
    std::uint64_t clock_ = 0;
};

/**
 * graph: xalancbmk-like. A pointer-dense DOM tree of tiny nodes (a
 * parent and three child pointers each) forms a live heap of about
 * 7 MiB; every op churns one small temporary (32 B to 1 KiB) that
 * references a node, 3 in 8 ops replace a node (relinking its parent
 * and children) and 1 in 8 walk a path to the root. The temporaries
 * free enough bytes per op that the sweeper marks the DOM again every
 * few ms: marking is most of each sweep's CPU, and the sweeper takes a
 * larger share of the process's CPU than on server.
 *
 * The heap is kept above the 1 MiB sweep floor divided by the 15 %
 * threshold, so the threshold decides when to sweep, and small enough
 * to stay mostly in cache. With 600k nodes (about 30 MiB) each mark
 * ran from DRAM, which other tenants of a shared host contend for, and
 * round times spread by a fifth.
 */
class GraphWork
{
  public:
    static constexpr std::size_t kNodes = 150000;
    static constexpr std::size_t kTemps = 4096;
    static constexpr std::uint64_t kOps = 1000000;

    struct Node {
        std::uint64_t payload;
        Node* parent;
        Node* kid[3];
    };

    explicit GraphWork(double scale)
        : nodes_(std::max<std::size_t>(
                     1024, static_cast<std::size_t>(kNodes * scale)),
                 nullptr),
          temps_(std::max<std::size_t>(
                     64, static_cast<std::size_t>(kTemps * scale)),
                 nullptr),
          temp_sizes_(temps_.size(), 0)
    {}

    Roots
    roots() const
    {
        return {{nodes_.data(), nodes_.size() * 8},
                {temps_.data(), temps_.size() * 8}};
    }

    void
    warm_up(Mutator& m)
    {
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            Node* n = new_node(m);
            if (n == nullptr)
                return;
            if (i > 0) {
                n->parent = nodes_[(i - 1) / 3];
                n->parent->kid[(i - 1) % 3] = n;
            }
            nodes_[i] = n;
        }
        for (std::size_t i = 0; i < temps_.size(); ++i)
            churn_temp(m);
        // Enough ops for tens of sweep cycles before timing starts.
        for (std::size_t i = 0; i < nodes_.size(); ++i)
            step(m);
    }

    void
    step(Mutator& m)
    {
        m.op([&] {
            churn_temp(m);
            const std::uint64_t r = m.rng.below(8);
            if (r < 3)
                replace(m, m.rng.below(nodes_.size()));
            else if (r < 4)
                walk(m, m.rng.below(nodes_.size()));
        });
    }

    void
    shut_down(Mutator& m)
    {
        for (std::size_t i = 0; i < temps_.size(); ++i)
            drop_temp(m, i);
        for (std::size_t i = nodes_.size(); i-- > 0;) {
            Node* n = nodes_[i];
            nodes_[i] = nullptr;
            m.checksum = mix(m.checksum, n->payload);
            m.free(n);
        }
    }

  private:
    Node*
    new_node(Mutator& m)
    {
        auto* n = static_cast<Node*>(m.alloc(sizeof(Node)));
        if (n != nullptr)
            *n = Node{m.rng.next(), nullptr, {nullptr, nullptr, nullptr}};
        return n;
    }

    void
    replace(Mutator& m, std::size_t i)
    {
        Node* old = nodes_[i];
        Node* n = new_node(m);
        if (n == nullptr)
            return;
        n->parent = old->parent;
        for (unsigned k = 0; k < 3; ++k) {
            n->kid[k] = old->kid[k];
            if (n->kid[k] != nullptr)
                n->kid[k]->parent = n;
        }
        if (i > 0)
            n->parent->kid[(i - 1) % 3] = n;
        nodes_[i] = n;
        m.checksum = mix(m.checksum, old->payload);
        m.free(old);
    }

    void
    walk(Mutator& m, std::size_t i)
    {
        std::uint64_t acc = 0;
        for (const Node* n = nodes_[i]; n != nullptr; n = n->parent)
            acc = acc * 31 + n->payload;
        m.checksum = mix(m.checksum, acc);
    }

    /** A temp's word 0 references a node; the rest is payload. */
    void
    churn_temp(Mutator& m)
    {
        const std::size_t t = next_temp_;
        next_temp_ = (next_temp_ + 1) % temps_.size();
        drop_temp(m, t);
        const std::size_t n = m.rng.pareto(32, 1.2, 1024);
        auto* p = static_cast<std::uint64_t*>(m.alloc(n));
        if (p == nullptr)
            return;
        Node* ref = nodes_[m.rng.below(nodes_.size())];
        std::memcpy(p, &ref, sizeof(ref));
        write_words(p + 1, n - 8, m.rng.next(), 1);
        temps_[t] = p;
        temp_sizes_[t] = n;
    }

    void
    drop_temp(Mutator& m, std::size_t t)
    {
        auto* p = static_cast<std::uint64_t*>(temps_[t]);
        if (p == nullptr)
            return;
        temps_[t] = nullptr;
        m.checksum =
            mix(m.checksum, read_words(p + 1, temp_sizes_[t] - 8, 1));
        m.free(p);
    }

    std::vector<Node*> nodes_;
    std::vector<void*> temps_;
    std::vector<std::size_t> temp_sizes_;
    std::size_t next_temp_ = 0;
};

/**
 * bulk: soplex-like. Every op overwrites one object: with probability
 * kLargeShare one of kLarge page-scale blocks (128 KiB to 2 MiB),
 * otherwise one of kSmall small objects. Large frees dominate the
 * quarantined bytes, so the unmapped trigger, purging and RSS carry
 * this workload. Each large slot draws its size from its own stratum of
 * the log-uniform range, so the live large bytes stay nearly the same
 * from seed to seed.
 *
 * A large block is stamped only on its first and last page. Blocks
 * freed while a sweep marks stay resident until the mark ends, so with
 * every page touched the peak RSS tracked the longest mark and swung by
 * a third between runs on a busy host.
 */
class BulkWork
{
  public:
    static constexpr std::size_t kSmall = 16384;
    static constexpr std::size_t kLarge = 16;
    static constexpr std::uint64_t kOps = 600000;
    static constexpr double kLargeShare = 0.02;
    static constexpr std::size_t kLargeMin = 128 * 1024;
    static constexpr std::size_t kLargeMax = 2 << 20;

    explicit BulkWork(double scale)
        : slots_(kLarge + std::max<std::size_t>(
                              64, static_cast<std::size_t>(kSmall * scale)),
                 nullptr),
          sizes_(slots_.size(), 0)
    {}

    Roots roots() const { return {{slots_.data(), slots_.size() * 8}}; }

    void
    warm_up(Mutator& m)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i)
            put(m, i);
        for (std::size_t i = 0; i < 16 * slots_.size(); ++i)
            step(m);
    }

    void
    step(Mutator& m)
    {
        m.op([&] {
            const std::size_t k =
                m.rng.unit() < kLargeShare
                    ? m.rng.below(kLarge)
                    : kLarge + m.rng.below(slots_.size() - kLarge);
            drop(m, k);
            put(m, k);
            // A solver pass reads the head of an existing object.
            const std::size_t j = m.rng.below(slots_.size());
            const std::size_t n = std::min<std::size_t>(sizes_[j], 512);
            m.checksum = mix(m.checksum,
                             read_words(slots_[j], n, stride(sizes_[j])));
        });
    }

    void
    shut_down(Mutator& m)
    {
        for (std::size_t i = 0; i < slots_.size(); ++i)
            drop(m, i);
    }

  private:
    /** Word stride of the stamps: every word of a small object, the
        first and last word of a large one. */
    static std::size_t
    stride(std::size_t n)
    {
        return n >= kLargeMin ? n / 8 - 1 : 1;
    }

    /** Large slot k draws from the k-th of kLarge log-uniform strata. */
    std::size_t
    draw_size(Mutator& m, std::size_t k)
    {
        if (k >= kLarge)
            return m.rng.pareto(64, 1.2, 16384);
        const double span =
            std::log(static_cast<double>(kLargeMax) / kLargeMin);
        const double at = (static_cast<double>(k) + m.rng.unit()) / kLarge;
        return static_cast<std::size_t>(kLargeMin * std::exp(span * at));
    }

    void
    put(Mutator& m, std::size_t k)
    {
        const std::size_t n = draw_size(m, k);
        void* p = m.alloc(n);
        if (p == nullptr)
            return;
        write_words(p, n, m.rng.next(), stride(n));
        slots_[k] = p;
        sizes_[k] = n;
    }

    void
    drop(Mutator& m, std::size_t k)
    {
        void* p = slots_[k];
        if (p == nullptr)
            return;
        m.checksum =
            mix(m.checksum, read_words(p, sizes_[k], stride(sizes_[k])));
        slots_[k] = nullptr;
        sizes_[k] = 0;
        m.free(p);
    }

    std::vector<void*> slots_;
    std::vector<std::size_t> sizes_;
};

// ------------------------------------------------------------ process

struct Usage {
    double cpu_s = 0;
    std::uint64_t minflt = 0, nvcsw = 0, nivcsw = 0;
};

Usage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                  1e-6;
    u.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
    u.nvcsw = static_cast<std::uint64_t>(ru.ru_nvcsw);
    u.nivcsw = static_cast<std::uint64_t>(ru.ru_nivcsw);
    return u;
}

/**
 * Time this process's threads have spent runnable but waiting for a CPU,
 * summed over /proc/self/task/<tid>/schedstat, in seconds. Other load
 * on the host shows up here, so run.py can tell a disturbed round from
 * a clean one. 0 when the kernel does not keep schedstats.
 */
double
runqueue_wait_s()
{
    DIR* d = opendir("/proc/self/task");
    if (d == nullptr)
        return 0;
    double total = 0;
    while (const dirent* e = readdir(d)) {
        if (e->d_name[0] == '.')
            continue;
        char path[300];
        std::snprintf(path, sizeof(path), "/proc/self/task/%s/schedstat",
                      e->d_name);
        FILE* f = std::fopen(path, "r");
        if (f == nullptr)
            continue;  // the thread has exited
        unsigned long long run = 0, wait = 0;
        if (std::fscanf(f, "%llu %llu", &run, &wait) == 2)
            total += static_cast<double>(wait) * 1e-9;
        std::fclose(f);
    }
    closedir(d);
    return total;
}

/** Resident set in MiB, from /proc/self/statm. */
double
rss_mib(int statm_fd)
{
    char buf[128];
    const ssize_t n = pread(statm_fd, buf, sizeof(buf) - 1, 0);
    if (n <= 0)
        return 0;
    buf[n] = '\0';
    unsigned long long size = 0, resident = 0;
    if (std::sscanf(buf, "%llu %llu", &size, &resident) != 2)
        return 0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** The kernel's RSS high-water mark (VmHWM) in MiB. */
double
vm_hwm_mib()
{
    FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    double kib = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtod(line + 6, nullptr);
            break;
        }
    }
    std::fclose(f);
    return kib / 1024.0;
}

/**
 * Samples RSS every 5 ms over the timed phase, and in a traced round
 * the runtime's quarantine and committed-byte gauges.
 */
class Sampler
{
  public:
    explicit Sampler(const Allocator* gauges)
        : gauges_(gauges), fd_(open("/proc/self/statm", O_RDONLY))
    {
        if (fd_ < 0)
            die("cannot open /proc/self/statm");
        thread_ = std::thread([this] { loop(); });
    }
    ~Sampler()
    {
        stop();
        close(fd_);
    }
    Sampler(const Sampler&) = delete;
    Sampler& operator=(const Sampler&) = delete;

    void
    stop()
    {
        stop_.store(true, std::memory_order_relaxed);
        if (thread_.joinable())
            thread_.join();
    }

    std::vector<double> rss, quarantine, committed;

  private:
    void
    loop()
    {
        while (!stop_.load(std::memory_order_relaxed)) {
            rss.push_back(rss_mib(fd_));
            if (gauges_ != nullptr) {
                const msw::alloc::AllocatorStats s = gauges_->stats();
                quarantine.push_back(static_cast<double>(s.quarantine_bytes) /
                                     (1024.0 * 1024.0));
                committed.push_back(static_cast<double>(s.committed_bytes) /
                                    (1024.0 * 1024.0));
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }

    const Allocator* gauges_;
    int fd_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

double
mean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** Blocks mutators between phases; the main thread drives them. */
class Phases
{
  public:
    explicit Phases(unsigned n) : n_(n) {}

    /** Mutator: report phase @p p finished, then wait for the go to
        start phase p + 1. */
    void
    arrive_and_wait(unsigned p)
    {
        std::unique_lock<std::mutex> lk(mu_);
        done_[p] += 1;
        cv_.notify_all();
        cv_.wait(lk, [&] { return go_ > p; });
    }

    /** Main: wait for every mutator to finish phase @p p. */
    void
    wait_all(unsigned p)
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return done_[p] == n_; });
    }

    void
    go(unsigned p)
    {
        std::lock_guard<std::mutex> lk(mu_);
        go_ = p + 1;
        cv_.notify_all();
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    unsigned n_;
    unsigned done_[3] = {};
    unsigned go_ = 0;
};

template <typename Work>
int
run_round(const RoundConfig& cfg, std::uint64_t seed, unsigned mutators,
          unsigned helpers, const char* spans_path, const char* workload)
{
    const std::uint64_t t_setup = now_ns();
    std::unique_ptr<msw::core::MineSweeper> ms;
    std::unique_ptr<msw::alloc::JadeAllocator> jade;
    Allocator* heap;
    if (cfg.msw) {
        msw::core::Options o;
        o.helper_threads = helpers;
        ms = std::make_unique<msw::core::MineSweeper>(o);
        heap = ms.get();
    } else {
        jade = std::make_unique<msw::alloc::JadeAllocator>();
        heap = jade.get();
    }

    const std::uint64_t ops =
        std::max<std::uint64_t>(1000, static_cast<std::uint64_t>(
                                          Work::kOps * cfg.scale));
    std::vector<std::unique_ptr<Mutator>> ctx;
    std::vector<std::unique_ptr<Work>> work;
    for (unsigned i = 0; i < mutators; ++i) {
        ctx.push_back(std::make_unique<Mutator>(
            *heap, cfg, i, seed * 0x100000001b3ull + i * 7919 + 1));
        work.push_back(std::make_unique<Work>(cfg.scale));
    }

    // Phase 0: warm-up. Phase 1: timed ops. Phase 2: shut down.
    Phases phases(mutators);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < mutators; ++i) {
        threads.emplace_back([&, i] {
            Mutator& m = *ctx[i];
            Work& w = *work[i];
            Roots roots = w.roots();
            roots.emplace_back(&m.probe.ring, sizeof(m.probe.ring));
            if (ms) {
                ms->register_mutator_thread();
                for (const auto& [p, n] : roots)
                    ms->add_root(p, n);
            }
            w.warm_up(m);
            phases.arrive_and_wait(0);
            m.start_timed_phase();
            for (std::uint64_t k = 0; k < ops; ++k)
                w.step(m);
            m.end_timed_phase();
            phases.arrive_and_wait(1);
            w.shut_down(m);
            if (ms) {
                for (const auto& [p, n] : roots)
                    ms->remove_root(p);
                ms->unregister_mutator_thread();
            } else {
                heap->flush();
            }
            phases.arrive_and_wait(2);
        });
    }

    phases.wait_all(0);
    const double setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;
    const msw::core::SweepStats s0 =
        ms ? ms->sweep_stats() : msw::core::SweepStats{};
    const Usage u0 = usage();
    const double wait0 = runqueue_wait_s();
    auto sampler =
        std::make_unique<Sampler>(cfg.traced && ms ? heap : nullptr);
    const std::uint64_t t0 = now_ns();
    phases.go(0);
    phases.wait_all(1);
    const std::uint64_t t1 = now_ns();
    const Usage u1 = usage();
    const double wait1 = runqueue_wait_s();
    const msw::core::SweepStats s1 =
        ms ? ms->sweep_stats() : msw::core::SweepStats{};
    sampler->stop();
    const double hwm = vm_hwm_mib();
    phases.go(1);
    phases.wait_all(2);
    phases.go(2);
    for (auto& t : threads)
        t.join();

    // Ledger: every block the workload allocated was freed, and the
    // runtime counted exactly the calls the workload made.
    if (ms)
        ms->flush();
    const msw::alloc::AllocatorStats end = heap->stats();
    LatencyHist op_lat, alloc_lat, free_lat, self_lat;
    std::uint64_t checksum = 0, allocs = 0, frees = 0, failed = 0,
                  violations = 0;
    for (unsigned i = 0; i < mutators; ++i) {
        const Mutator& m = *ctx[i];
        checksum = mix(checksum, m.checksum + i);
        allocs += m.allocs;
        frees += m.frees;
        failed += m.failed_allocs;
        violations += m.probe_violations;
        op_lat.merge(m.op_lat);
        if (cfg.traced) {
            alloc_lat.merge(*m.alloc_lat);
            free_lat.merge(*m.free_lat);
            self_lat.merge(*m.self_lat);
        }
    }
    const bool ledger_ok = allocs == frees && end.alloc_calls == allocs &&
                           end.free_calls == frees;

    if (spans_path != nullptr && cfg.traced) {
        FILE* f = std::fopen(spans_path, "w");
        if (f == nullptr)
            die("cannot write spans file");
        std::fprintf(f, "op_id,kind,start_ns,end_ns\n");
        static const char* kKinds[] = {"op", "alloc", "free"};
        for (const auto& m : ctx) {
            for (const Span& sp : m->spans)
                std::fprintf(f, "%" PRIu64 ",%s,%" PRIu64 ",%" PRIu64 "\n",
                             sp.op, kKinds[sp.kind], sp.t0 - t0,
                             sp.t1 - t0);
        }
        std::fclose(f);
    }

    const double timed_s = static_cast<double>(t1 - t0) * 1e-9;
    const std::uint64_t timed_ops = ops * mutators;
    const auto d = [](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a);
    };
    std::printf(
        "{\"workload\": \"%s\", \"system\": \"%s\", \"traced\": %d, "
        "\"mutators\": %u, \"helpers\": %u, \"ops\": %" PRIu64 ", "
        "\"setup_s\": %.9f, \"timed_s\": %.9f, \"cpu_s\": %.6f, "
        "\"wait_s\": %.6f, "
        "\"op_p50_ns\": %.1f, \"op_p99_ns\": %.1f, \"op_p999_ns\": %.1f, "
        "\"op_samples\": %" PRIu64 ", "
        "\"rss_avg_mib\": %.6f, \"rss_samples\": %zu, "
        "\"rss_peak_mib\": %.6f, "
        "\"checksum\": \"%016" PRIx64 "\", \"allocs\": %" PRIu64 ", "
        "\"frees\": %" PRIu64 ", \"alloc_calls\": %" PRIu64 ", "
        "\"free_calls\": %" PRIu64 ", \"ledger_ok\": %s, "
        "\"failed_allocs\": %" PRIu64 ", \"probe_violations\": %" PRIu64
        ", "
        "\"minflt\": %.0f, \"nvcsw\": %.0f, \"nivcsw\": %.0f, "
        "\"sweeps\": %.0f, \"bytes_scanned\": %.0f, \"bytes_released\": "
        "%.0f, \"entries_released\": %.0f, \"failed_frees\": %.0f, "
        "\"sweep_cpu_ns\": %.0f, \"pause_ns\": %.0f, "
        "\"unmapped_entries\": %.0f, \"emergency_sweeps\": %.0f, "
        "\"oom_returns\": %.0f, \"phase_dirty_scan_ns\": %.0f, "
        "\"phase_mark_ns\": %.0f, \"phase_drain_ns\": %.0f, "
        "\"phase_release_ns\": %.0f, "
        "\"alloc_p50_ns\": %.1f, \"alloc_p99_ns\": %.1f, "
        "\"free_p50_ns\": %.1f, \"free_p99_ns\": %.1f, "
        "\"self_p50_ns\": %.1f, "
        "\"quarantine_avg_mib\": %.6f, \"committed_avg_mib\": %.6f}\n",
        workload, cfg.msw ? "msw" : "jade", cfg.traced ? 1 : 0, mutators,
        helpers, timed_ops, setup_s, timed_s, u1.cpu_s - u0.cpu_s,
        wait1 - wait0,
        op_lat.percentile(0.50), op_lat.percentile(0.99),
        op_lat.percentile(0.999), op_lat.count(), mean(sampler->rss),
        sampler->rss.size(), hwm, checksum, allocs, frees, end.alloc_calls,
        end.free_calls, ledger_ok ? "true" : "false", failed, violations,
        d(u0.minflt, u1.minflt), d(u0.nvcsw, u1.nvcsw),
        d(u0.nivcsw, u1.nivcsw), d(s0.sweeps, s1.sweeps),
        d(s0.bytes_scanned, s1.bytes_scanned),
        d(s0.bytes_released, s1.bytes_released),
        d(s0.entries_released, s1.entries_released),
        d(s0.failed_frees, s1.failed_frees),
        d(s0.sweep_cpu_ns, s1.sweep_cpu_ns), d(s0.pause_ns, s1.pause_ns),
        d(s0.unmapped_entries, s1.unmapped_entries),
        d(s0.emergency_sweeps, s1.emergency_sweeps),
        d(s0.oom_returns, s1.oom_returns),
        d(s0.phase_dirty_scan_ns, s1.phase_dirty_scan_ns),
        d(s0.phase_mark_ns, s1.phase_mark_ns),
        d(s0.phase_drain_ns, s1.phase_drain_ns),
        d(s0.phase_release_ns, s1.phase_release_ns),
        alloc_lat.percentile(0.50), alloc_lat.percentile(0.99),
        free_lat.percentile(0.50), free_lat.percentile(0.99),
        self_lat.percentile(0.50), mean(sampler->quarantine),
        mean(sampler->committed));
    std::fflush(stdout);
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload, system = "msw";
    std::uint64_t seed = 1;
    unsigned mutators = 1, helpers = 0;
    RoundConfig cfg;
    const char* spans = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto val = [&]() -> const char* {
            if (i + 1 >= argc)
                die("missing value for an option");
            return argv[++i];
        };
        if (a == "--workload")
            workload = val();
        else if (a == "--seed")
            seed = std::strtoull(val(), nullptr, 10);
        else if (a == "--system")
            system = val();
        else if (a == "--mutators")
            mutators = static_cast<unsigned>(std::strtoul(val(), nullptr, 10));
        else if (a == "--helpers")
            helpers = static_cast<unsigned>(std::strtoul(val(), nullptr, 10));
        else if (a == "--trace")
            cfg.traced = std::strcmp(val(), "1") == 0;
        else if (a == "--scale")
            cfg.scale = std::strtod(val(), nullptr);
        else if (a == "--spans")
            spans = val();
        else if (a == "--inject-reissue")
            cfg.inject_reissue = true;
        else
            die("unknown option");
    }
    if (system != "msw" && system != "jade")
        die("--system must be msw or jade");
    if (mutators == 0 || mutators > 64 || !(cfg.scale > 0 && cfg.scale <= 1))
        die("bad --mutators or --scale");
    cfg.msw = system == "msw";

    if (workload == "server")
        return run_round<ServerWork>(cfg, seed, mutators, helpers, spans,
                                     "server");
    if (workload == "graph")
        return run_round<GraphWork>(cfg, seed, mutators, helpers, spans,
                                    "graph");
    if (workload == "bulk")
        return run_round<BulkWork>(cfg, seed, mutators, helpers, spans,
                                   "bulk");
    die("--workload must be server, graph or bulk");
}
