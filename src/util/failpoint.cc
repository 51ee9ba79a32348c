#include "util/failpoint.h"

#include <sys/types.h>
#include <unistd.h>

#include <bit>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "util/bits.h"
#include "util/lock_rank.h"
#include "util/log.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace msw::util {
namespace detail {

std::atomic<std::uint32_t> g_failpoints_armed{0};

namespace {

/**
 * One site's state. The policy is published through a seqlock so that
 * evaluations, which take no lock, always read one whole policy: the
 * writers (arm/disarm, serialized by g_policy_mu) make policy_seq odd,
 * store the policy words with release, then make it even again with
 * release. A reader loads the words with acquire between two reads of
 * policy_seq and retries unless both read the same even value; having
 * seen any newly stored word, it also sees the odd sequence behind it.
 */
struct FailpointState {
    std::atomic<std::uint64_t> policy_seq{0};
    std::atomic<std::uint8_t> policy_kind{0};
    std::atomic<std::uint64_t> policy_prob_bits{0};  ///< bit_cast double
    std::atomic<std::uint64_t> policy_n{0};
    std::atomic<std::uint64_t> policy_skip{0};
    /** Evaluation ordinal under the *current* policy (reset on arm). */
    std::atomic<std::uint64_t> policy_evals{0};
    /** Lifetime totals, kept across re-arms. */
    std::atomic<std::uint64_t> total_evals{0};
    std::atomic<std::uint64_t> total_hits{0};
};

FailpointState g_state[kNumFailpoints];

/** Serializes policy writers; evaluations read through the seqlock. */
Mutex g_policy_mu{LockRank::kMetrics};

std::atomic<std::uint64_t> g_rng_seed{0x5eedfa11};

constexpr const char* kNames[kNumFailpoints] = {
    "vm.commit",     "vm.decommit",   "vm.purge",
    "extent.grow",   "sweeper.stall", "sweep.delay",
    "fork.prepare",  "fork.child",    "thread.exit",
};

double
thread_uniform()
{
    // Per-thread engine so evaluations never contend; mixed with the
    // thread id so equal seeds still decorrelate across threads.
    // msw-relaxed(failpoint-arm): seeding is best-effort; a racing
    // failpoint_seed() only changes which tests are deterministic.
    thread_local Rng rng(g_rng_seed.load(std::memory_order_relaxed) +
                         0x9e3779b97f4a7c15ull *
                             static_cast<std::uint64_t>(to_addr(&rng)));
    return rng.next_double();
}

/** Publish @p policy as @p st's policy (see FailpointState). */
void
publish_policy_locked(FailpointState& st, const FailpointPolicy& policy)
    MSW_REQUIRES(g_policy_mu)
{
    // msw-relaxed(failpoint-arm): g_policy_mu serializes the writers,
    // so only this thread moves the sequence word.
    const std::uint64_t seq = st.policy_seq.load(std::memory_order_relaxed);
    // msw-relaxed(failpoint-arm): the odd marker; the release stores
    // below order it before every policy word they publish.
    st.policy_seq.store(seq + 1, std::memory_order_relaxed);
    st.policy_kind.store(static_cast<std::uint8_t>(policy.kind),
                         std::memory_order_release);
    st.policy_prob_bits.store(std::bit_cast<std::uint64_t>(policy.probability),
                              std::memory_order_release);
    st.policy_n.store(policy.n, std::memory_order_release);
    st.policy_skip.store(policy.skip, std::memory_order_release);
    st.policy_seq.store(seq + 2, std::memory_order_release);
}

/** A consistent copy of @p st's policy, retried across writers. */
FailpointPolicy
read_policy(const FailpointState& st)
{
    for (;;) {
        const std::uint64_t seq = st.policy_seq.load(std::memory_order_acquire);
        if ((seq & 1) != 0)
            continue;  // a writer is mid-publish
        FailpointPolicy p;
        p.kind = static_cast<FailpointPolicy::Kind>(
            st.policy_kind.load(std::memory_order_acquire));
        p.probability = std::bit_cast<double>(
            st.policy_prob_bits.load(std::memory_order_acquire));
        p.n = st.policy_n.load(std::memory_order_acquire);
        p.skip = st.policy_skip.load(std::memory_order_acquire);
        // msw-relaxed(failpoint-arm): seqlock recheck; the acquire loads
        // above keep it after them, and a writer that overlapped them
        // has moved the sequence word.
        if (st.policy_seq.load(std::memory_order_relaxed) == seq)
            return p;
    }
}

void
recount_armed_locked() MSW_REQUIRES(g_policy_mu)
{
    std::uint32_t armed = 0;
    for (auto& st : g_state) {
        // msw-relaxed(failpoint-arm): read back under g_policy_mu,
        // which every writer of the word holds.
        if (st.policy_kind.load(std::memory_order_relaxed) !=
            static_cast<std::uint8_t>(FailpointPolicy::Kind::kOff)) {
            ++armed;
        }
    }
    // msw-relaxed(failpoint-arm): advisory fast-path gate; eval_slow
    // reads the policy itself through the seqlock, so a stale count only
    // delays when a freshly armed site starts firing.
    g_failpoints_armed.store(armed, std::memory_order_relaxed);
}

bool
parse_u64(const char* s, std::size_t len, std::uint64_t* out)
{
    if (len == 0 || len > 20) {
        return false;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < len; ++i) {
        if (s[i] < '0' || s[i] > '9') {
            return false;
        }
        v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
    }
    *out = v;
    return true;
}

bool
parse_double(const char* s, std::size_t len, double* out)
{
    char buf[32];
    if (len == 0 || len >= sizeof(buf)) {
        return false;
    }
    std::memcpy(buf, s, len);
    buf[len] = '\0';
    char* end = nullptr;
    const double v = std::strtod(buf, &end);
    if (end != buf + len) {
        return false;
    }
    *out = v;
    return true;
}

/** Parse one "name=policy" clause of @p len bytes. */
bool
parse_clause(const char* clause, std::size_t len)
{
    const char* eq =
        static_cast<const char*>(std::memchr(clause, '=', len));
    if (eq == nullptr) {
        return false;
    }
    const std::size_t name_len = static_cast<std::size_t>(eq - clause);
    const char* val = eq + 1;
    const std::size_t val_len = len - name_len - 1;

    if (name_len == 4 && std::memcmp(clause, "seed", 4) == 0) {
        std::uint64_t seed = 0;
        if (!parse_u64(val, val_len, &seed)) {
            return false;
        }
        failpoint_seed(seed);
        return true;
    }

    Failpoint fp;
    if (!failpoint_from_name(clause, name_len, &fp)) {
        return false;
    }
    if (val_len == 3 && std::memcmp(val, "off", 3) == 0) {
        failpoint_disarm(fp);
        return true;
    }

    const char* colon =
        static_cast<const char*>(std::memchr(val, ':', val_len));
    if (colon == nullptr) {
        return false;
    }
    const std::size_t kind_len = static_cast<std::size_t>(colon - val);
    const char* arg = colon + 1;
    const std::size_t arg_len = val_len - kind_len - 1;

    if ((kind_len == 1 && val[0] == 'p') ||
        (kind_len == 4 && std::memcmp(val, "prob", 4) == 0)) {
        double p = 0.0;
        if (!parse_double(arg, arg_len, &p) || p < 0.0 || p > 1.0) {
            return false;
        }
        failpoint_arm(fp, FailpointPolicy::prob(p));
        return true;
    }
    if (kind_len == 5 && std::memcmp(val, "every", 5) == 0) {
        std::uint64_t n = 0;
        if (!parse_u64(arg, arg_len, &n) || n == 0) {
            return false;
        }
        failpoint_arm(fp, FailpointPolicy::every(n));
        return true;
    }
    if (kind_len == 5 && std::memcmp(val, "burst", 5) == 0) {
        // burst:N fires the next N evaluations; burst:N@S skips S first.
        std::uint64_t n = 0;
        std::uint64_t skip = 0;
        const char* at =
            static_cast<const char*>(std::memchr(arg, '@', arg_len));
        if (at != nullptr) {
            const std::size_t n_len = static_cast<std::size_t>(at - arg);
            if (!parse_u64(arg, n_len, &n) ||
                !parse_u64(at + 1, arg_len - n_len - 1, &skip)) {
                return false;
            }
        } else if (!parse_u64(arg, arg_len, &n)) {
            return false;
        }
        if (n == 0) {
            return false;
        }
        failpoint_arm(fp, FailpointPolicy::burst(n, skip));
        return true;
    }
    return false;
}

/** Arm failpoints from MSW_FAILPOINTS once, before main() runs. */
const bool g_env_configured = [] {
    // Static initialisation, before any second thread can exist.
    const char* spec = std::getenv("MSW_FAILPOINTS");  // NOLINT(concurrency-mt-unsafe)
    if (spec != nullptr && *spec != '\0') {
        if (!failpoint_configure(spec)) {
            MSW_LOG_WARN("failpoint: malformed MSW_FAILPOINTS \"%s\"",
                         spec);
        }
    }
    return true;
}();

}  // namespace

bool
failpoint_eval_slow(Failpoint fp)
{
    FailpointState& st = g_state[static_cast<unsigned>(fp)];
    const FailpointPolicy policy = read_policy(st);
    if (policy.kind == FailpointPolicy::Kind::kOff) {
        return false;
    }

    // msw-relaxed(failpoint-arm): test instrumentation counters;
    // totals need no ordering.
    st.total_evals.fetch_add(1, std::memory_order_relaxed);
    // msw-relaxed(failpoint-arm): per-policy ordinal; RMW atomicity
    // gives every-nth/burst their exactly-once firing.
    const std::uint64_t ordinal =
        st.policy_evals.fetch_add(1, std::memory_order_relaxed);

    bool fire = false;
    switch (policy.kind) {
    case FailpointPolicy::Kind::kProbability:
        fire = thread_uniform() < policy.probability;
        break;
    case FailpointPolicy::Kind::kEveryNth:
        fire = (ordinal + 1) % policy.n == 0;
        break;
    case FailpointPolicy::Kind::kBurst:
        fire = ordinal >= policy.skip && ordinal < policy.skip + policy.n;
        if (ordinal + 1 >= policy.skip + policy.n) {
            failpoint_disarm(fp);
        }
        break;
    case FailpointPolicy::Kind::kOff:
        break;
    }
    if (fire) {
        // msw-relaxed(failpoint-arm): test instrumentation counter.
        st.total_hits.fetch_add(1, std::memory_order_relaxed);
    }
    return fire;
}

}  // namespace detail

void
failpoint_arm(Failpoint fp, const FailpointPolicy& policy)
{
    MutexGuard lock(detail::g_policy_mu);
    auto& st = detail::g_state[static_cast<unsigned>(fp)];
    detail::publish_policy_locked(st, policy);
    // msw-relaxed(failpoint-arm): ordinal reset; an evaluation racing
    // the re-arm may count once more under either policy.
    st.policy_evals.store(0, std::memory_order_relaxed);
    detail::recount_armed_locked();
}

void
failpoint_disarm(Failpoint fp)
{
    MutexGuard lock(detail::g_policy_mu);
    detail::publish_policy_locked(detail::g_state[static_cast<unsigned>(fp)],
                                  FailpointPolicy{});
    detail::recount_armed_locked();
}

void
failpoint_disarm_all()
{
    MutexGuard lock(detail::g_policy_mu);
    for (auto& st : detail::g_state) {
        detail::publish_policy_locked(st, FailpointPolicy{});
    }
    detail::recount_armed_locked();
}

bool
failpoint_configure(const char* spec)
{
    if (spec == nullptr) {
        return false;
    }
    // ',' is the documented separator; ';' also accepted for callers not
    // going through ctest ENVIRONMENT properties (where ';' splits lists).
    const char* p = spec;
    while (*p != '\0') {
        std::size_t len = 0;
        while (p[len] != '\0' && p[len] != ',' && p[len] != ';') {
            ++len;
        }
        if (len > 0 && !detail::parse_clause(p, len)) {
            return false;
        }
        p += len;
        if (*p != '\0') {
            ++p;
        }
    }
    return true;
}

void
failpoint_seed(std::uint64_t seed)
{
    // msw-relaxed(failpoint-arm): best-effort seed; threads that
    // already built their Rng keep their old stream.
    detail::g_rng_seed.store(seed, std::memory_order_relaxed);
}

const char*
failpoint_name(Failpoint fp)
{
    return detail::kNames[static_cast<unsigned>(fp)];
}

bool
failpoint_from_name(const char* name, std::size_t len, Failpoint* out)
{
    for (unsigned i = 0; i < kNumFailpoints; ++i) {
        if (std::strlen(detail::kNames[i]) == len &&
            std::memcmp(detail::kNames[i], name, len) == 0) {
            *out = static_cast<Failpoint>(i);
            return true;
        }
    }
    return false;
}

std::uint64_t
failpoint_evaluations(Failpoint fp)
{
    // msw-relaxed(failpoint-arm): test instrumentation read.
    return detail::g_state[static_cast<unsigned>(fp)].total_evals.load(
        std::memory_order_relaxed);
}

std::uint64_t
failpoint_hits(Failpoint fp)
{
    // msw-relaxed(failpoint-arm): test instrumentation read.
    return detail::g_state[static_cast<unsigned>(fp)].total_hits.load(
        std::memory_order_relaxed);
}

// Acquire/release straddle fork(), which the static analysis cannot
// model; the lifecycle handlers guarantee the pairing.
void
failpoint_prepare_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    detail::g_policy_mu.lock();
}

void
failpoint_parent_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    detail::g_policy_mu.unlock();
}

void
failpoint_child_after_fork() MSW_NO_THREAD_SAFETY_ANALYSIS
{
    // Same thread that locked in prepare; policy table is consistent.
    detail::g_policy_mu.unlock();
}

void
failpoint_reset_counters()
{
    for (auto& st : detail::g_state) {
        // msw-relaxed(failpoint-arm): test-only counter reset.
        st.total_evals.store(0, std::memory_order_relaxed);
        st.total_hits.store(0, std::memory_order_relaxed);
    }
}

}  // namespace msw::util
