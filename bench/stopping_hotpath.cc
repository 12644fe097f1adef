/**
 * @file
 * Perf-regression bench for the stopping-rule hot path.
 *
 * Three sections, written to stdout as tables and to
 * BENCH_stopping.json (see --out; schema sharp-bench-stopping-v3):
 *
 *  - Rule rows: the steady-state cost of one stopping-rule evaluation —
 *    append one sample, consult the rule — at series sizes 10^2..10^5
 *    on the incremental statistics engine (core::StatsCache): ns/eval
 *    plus the engine's deterministic work counters (structure
 *    comparisons, and binomial PMF terms or CDF evaluations, per eval).
 *  - Accessor rows: the batch reference. Each engine accessor the
 *    rules read, called with the arguments they pass, is timed against
 *    the src/stats recomputation stats_cache.hh documents as its
 *    equal: append + accessor versus append + src/stats call, on the
 *    same stream in paired windows, with every read compared bit for
 *    bit.
 *  - SIMD kernels: on every backend the host can run, against scalar,
 *    in interleaved call pairs, the KS walk over two equal halves and
 *    the merge of a sorted tail into a body of n — the shapes
 *    core::StatsCache hands them (a tail of 8, and a full tail of
 *    statsCacheTailLimit(n) + 1).
 *
 * Gates (the bench exits non-zero when one trips):
 *
 *  - bit-exactness: every accessor read equals its src/stats
 *    recomputation, and every SIMD backend equals scalar;
 *  - sub-linearity (ks, median-ci, tail-quantile, meta at n >= 10^4):
 *    at most n comparisons and 10 sqrt(n) PMF terms or CDF evaluations
 *    per eval. The counters are exact replay counts, not timings, so
 *    the bound is stable;
 *  - small-n overhead: on windows that stay at or below the engine's
 *    size cutover, where the engine runs the batch code itself, each
 *    accessor's src/stats-to-engine time ratio is >= 0.7;
 *  - SIMD speedup: on a vector-capable host the dispatched backend's
 *    median paired speedup over scalar on ks at n = 10^5 is >= 1.5,
 *    and a backend with its own merge kernel (one that does not bind
 *    the scalar reference) is >= 1.0 on every merge row.
 *
 * Timings are the fastest of several windows: scheduler and
 * clock-drift noise is strictly additive, so the minimum converges on
 * the true cost where a mean stays contaminated. CI runs
 * `stopping_hotpath --quick` (rule and accessor rows up to 10^4;
 * kernels at 10^4 and 10^5) as the bench.stopping_hotpath_smoke test.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/sample_series.hh"
#include "core/stats_cache.hh"
#include "core/stopping/stopping_rule.hh"
#include "json/value.hh"
#include "json/writer.hh"
#include "rng/synthetic.hh"
#include "rng/xoshiro.hh"
#include "simd/dispatch.hh"
#include "stats/ci.hh"
#include "stats/ecdf.hh"

namespace
{

using sharp::core::SampleSeries;
using sharp::core::StatsEngineCounters;
using Clock = std::chrono::steady_clock;

/** Which synthetic stream each rule is exercised on. */
struct RuleCase
{
    const char *rule;
    const char *stream;
};

/**
 * Every registered rule, on a stream its criterion is meaningful for.
 * The meta rule gets the heavy-tail stream: its hot path there is the
 * classifier plus the median-CI delegate, the two costliest cached
 * consumers.
 */
const RuleCase ruleCases[] = {
    {"fixed", "lognormal"},        {"constant", "constant"},
    {"ci", "lognormal"},           {"normal-ci", "normal"},
    {"geomean-ci", "lognormal"},   {"median-ci", "lognormal"},
    {"ks", "lognormal"},           {"uniform-range", "uniform"},
    {"autocorr-ess", "sinusoidal"}, {"modality", "bimodal"},
    {"tail-quantile", "lognormal"}, {"meta", "cauchy"},
};

/** Append a CI's three doubles to a read record. */
void
pushCi(std::vector<double> &out, const sharp::stats::ConfidenceInterval &ci)
{
    out.push_back(ci.lower);
    out.push_back(ci.upper);
    out.push_back(ci.level);
}

/** The prefix UniformRangeRule asks for: all but its 25% window. */
size_t
rangePrefix(size_t n)
{
    return n - std::max<size_t>(
                   1, static_cast<size_t>(0.25 * static_cast<double>(n)));
}

/**
 * An engine accessor a rule reads, on that rule's stream, with the
 * arguments the rules pass (default levels 0.95, tail-quantile's p95),
 * next to its src/stats equal. Each read appends the doubles it
 * returned to @p out.
 */
struct AccessorCase
{
    const char *accessor;
    const char *stream;
    void (*engine)(const SampleSeries &s, std::vector<double> &out);
    void (*batch)(const SampleSeries &s, std::vector<double> &out);
};

const AccessorCase accessorCases[] = {
    {"sorted", "cauchy",
     [](const SampleSeries &s, std::vector<double> &out) {
         const std::vector<double> &v = s.stats().sorted();
         out.insert(out.end(), v.begin(), v.end());
     },
     [](const SampleSeries &s, std::vector<double> &out) {
         std::vector<double> v = s.values();
         std::sort(v.begin(), v.end());
         out.insert(out.end(), v.begin(), v.end());
     }},
    {"ksHalves", "lognormal",
     [](const SampleSeries &s, std::vector<double> &out) {
         out.push_back(s.stats().ksHalves());
     },
     [](const SampleSeries &s, std::vector<double> &out) {
         out.push_back(
             sharp::stats::ksStatistic(s.firstHalf(), s.secondHalf()));
     }},
    {"meanCi", "normal",
     [](const SampleSeries &s, std::vector<double> &out) {
         pushCi(out, s.stats().meanCi(0.95));
     },
     [](const SampleSeries &s, std::vector<double> &out) {
         pushCi(out, sharp::stats::meanCi(s.values(), 0.95));
     }},
    {"meanCiRightTailed", "lognormal",
     [](const SampleSeries &s, std::vector<double> &out) {
         pushCi(out, s.stats().meanCiRightTailed(0.95));
     },
     [](const SampleSeries &s, std::vector<double> &out) {
         pushCi(out, sharp::stats::meanCiRightTailed(s.values(), 0.95));
     }},
    {"medianCi", "lognormal",
     [](const SampleSeries &s, std::vector<double> &out) {
         pushCi(out, s.stats().medianCi(0.95));
     },
     [](const SampleSeries &s, std::vector<double> &out) {
         pushCi(out, sharp::stats::medianCi(s.values(), 0.95));
     }},
    {"quantileCi", "lognormal",
     [](const SampleSeries &s, std::vector<double> &out) {
         pushCi(out, s.stats().quantileCi(0.95, 0.95));
     },
     [](const SampleSeries &s, std::vector<double> &out) {
         pushCi(out, sharp::stats::quantileCi(s.values(), 0.95, 0.95));
     }},
    {"prefixRange", "uniform",
     [](const SampleSeries &s, std::vector<double> &out) {
         auto [lo, hi] = s.stats().prefixRange(rangePrefix(s.size()));
         out.push_back(lo);
         out.push_back(hi);
     },
     [](const SampleSeries &s, std::vector<double> &out) {
         const std::vector<double> &v = s.values();
         size_t count = rangePrefix(s.size());
         double lo = v[0], hi = v[0];
         for (size_t i = 1; i < count; ++i) {
             lo = std::min(lo, v[i]);
             hi = std::max(hi, v[i]);
         }
         out.push_back(lo);
         out.push_back(hi);
     }},
};

/**
 * How one (case, n) point is measured: @c windows timed windows of
 * @c evals append-plus-read rounds each, window w replaying stream
 * w % @c streams. Sizes up to 10^4 draw a fresh stream per window,
 * because one window there is noise-dominated. At 10^5 one window
 * already spans eight costly evals, so its windows replay a single
 * stream: min-of-k timing whose per-eval counters stay those of that
 * stream.
 */
struct Plan
{
    size_t evals;
    size_t windows;
    size_t streams;
};

Plan
planFor(size_t n)
{
    if (n >= 100000)
        return {8, 5, 1};
    return {64, 8, 8};
}

/** Fixed per (case, n, stream); any constant works. */
uint64_t
windowSeed(const std::string &name, size_t n, const Plan &plan, size_t w)
{
    uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
    for (unsigned char c : name)
        h = (h ^ c) * 0x100000001b3ull;
    return h ^ (0xd1342543de82ef95ull * (w % plan.streams + 1));
}

double
elapsedNs(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/** Keep the smaller positive time; 0 means "none yet". */
void
keepFastest(double &best, double ns)
{
    if (best == 0.0 || ns < best)
        best = ns;
}

/** A series of @p n draws, and the sampler state to continue it. */
struct Stream
{
    std::shared_ptr<sharp::rng::Sampler> sampler;
    sharp::rng::Xoshiro256 gen;
    SampleSeries series;

    Stream(const char *name, uint64_t seed, size_t n)
        : sampler(sharp::rng::syntheticByName(name).make()), gen(seed)
    {
        for (size_t i = 0; i < n; ++i)
            append();
    }

    void append() { series.append(sampler->sample(gen)); }
};

struct RulePoint
{
    double nsPerEval = 0.0;
    double comparisonsPerEval = 0.0;
    double pmfEvalsPerEval = 0.0;
};

/**
 * Time one rule at size @p n. Each window builds the series, does one
 * untimed evaluation (the rule's internal state and the engine's
 * structures), then times append + evaluate.
 */
RulePoint
measureRule(const RuleCase &rc, size_t n)
{
    Plan plan = planFor(n);
    double best = 0.0;
    StatsEngineCounters work;
    for (size_t w = 0; w < plan.windows; ++w) {
        auto rule =
            sharp::core::StoppingRuleFactory::instance().make(rc.rule);
        Stream stream(rc.stream, windowSeed(rc.rule, n, plan, w), n);
        rule->evaluate(stream.series);

        StatsEngineCounters before = stream.series.stats().counters();
        auto start = Clock::now();
        for (size_t e = 0; e < plan.evals; ++e) {
            stream.append();
            rule->evaluate(stream.series);
        }
        keepFastest(best, elapsedNs(start));
        StatsEngineCounters delta =
            stream.series.stats().counters() - before;
        work.comparisons += delta.comparisons;
        work.pmfEvals += delta.pmfEvals;
    }
    double evals = static_cast<double>(plan.evals * plan.windows);
    return {best / static_cast<double>(plan.evals),
            static_cast<double>(work.comparisons) / evals,
            static_cast<double>(work.pmfEvals) / evals};
}

/**
 * One timed window of append + read on one side of an accessor row;
 * every read lands in @p reads (cleared first, capacity kept).
 */
double
accessorWindow(const AccessorCase &ac, bool engine, uint64_t seed,
               size_t n, size_t evals, std::vector<double> &reads)
{
    auto readAccessor = engine ? ac.engine : ac.batch;
    Stream stream(ac.stream, seed, n);
    reads.clear();
    readAccessor(stream.series, reads);
    auto start = Clock::now();
    for (size_t e = 0; e < evals; ++e) {
        stream.append();
        readAccessor(stream.series, reads);
    }
    return elapsedNs(start);
}

struct AccessorPoint
{
    double engineNsPerEval = 0.0;
    double statsNsPerEval = 0.0;
    bool bitwiseEqual = true;
};

/**
 * Paired windows of one accessor at size @p n: engine and src/stats
 * replay the same stream back to back, the order flipping every
 * window, so drift and cache warmth land on both sides equally.
 */
AccessorPoint
measureAccessor(const AccessorCase &ac, size_t n)
{
    Plan plan = planFor(n);
    AccessorPoint point;
    double engine_best = 0.0, stats_best = 0.0;
    std::vector<double> engine_reads, stats_reads;
    // Room for every read of the widest accessor (sorted), so the
    // timed loops never reallocate.
    engine_reads.reserve((plan.evals + 1) * (n + plan.evals));
    stats_reads.reserve((plan.evals + 1) * (n + plan.evals));
    for (size_t w = 0; w < plan.windows; ++w) {
        uint64_t seed = windowSeed(ac.accessor, n, plan, w);
        for (bool engine : {w % 2 == 0, w % 2 != 0}) {
            double ns = accessorWindow(ac, engine, seed, n, plan.evals,
                                       engine ? engine_reads
                                              : stats_reads);
            keepFastest(engine ? engine_best : stats_best, ns);
        }
        point.bitwiseEqual =
            point.bitwiseEqual &&
            engine_reads.size() == stats_reads.size() &&
            std::memcmp(engine_reads.data(), stats_reads.data(),
                        engine_reads.size() * sizeof(double)) == 0;
    }
    point.engineNsPerEval = engine_best / static_cast<double>(plan.evals);
    point.statsNsPerEval = stats_best / static_cast<double>(plan.evals);
    return point;
}

/** Bitwise equality of doubles (so NaN == NaN and -0.0 != 0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** A sorted, NaN-free lognormal series for the kernel micro-bench. */
std::vector<double>
makeSortedSeries(size_t n, uint64_t seed)
{
    auto sampler = sharp::rng::syntheticByName("lognormal").make();
    sharp::rng::Xoshiro256 gen(seed);
    std::vector<double> v(n);
    for (double &x : v)
        x = sampler->sample(gen);
    std::sort(v.begin(), v.end());
    return v;
}

template <typename Fn>
double
callNs(Fn &fn)
{
    auto start = Clock::now();
    fn();
    return elapsedNs(start);
}

struct PairedTiming
{
    double scalarNs = 0.0;
    double vectorNs = 0.0;
    /** Median of the per-pair scalar/vector ratios. */
    double speedup = 0.0;
};

/**
 * @p pairs back-to-back (scalar, vector) calls, the order flipping
 * every pair. Host drift then lands inside each pair, on both sides,
 * instead of between a block of scalar calls and a block of vector
 * calls; the median ratio ignores the pairs an interrupt hit. The ns
 * are each side's fastest call.
 */
template <typename Scalar, typename Vector>
PairedTiming
pairedTiming(size_t pairs, Scalar &&scalar, Vector &&vector)
{
    PairedTiming t;
    std::vector<double> ratios;
    for (size_t p = 0; p < pairs; ++p) {
        double s = 0.0, v = 0.0;
        if (p % 2 == 0) {
            s = callNs(scalar);
            v = callNs(vector);
        } else {
            v = callNs(vector);
            s = callNs(scalar);
        }
        keepFastest(t.scalarNs, s);
        keepFastest(t.vectorNs, v);
        ratios.push_back(s / v);
    }
    std::sort(ratios.begin(), ratios.end());
    t.speedup = ratios[ratios.size() / 2];
    return t;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string out = "BENCH_stopping.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick")
            quick = true;
        else if (arg == "--out" && i + 1 < argc)
            out = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: stopping_hotpath [--quick] [--out FILE]\n");
            return 2;
        }
    }

    bench::banner("BENCH stopping",
                  quick ? "stopping-rule hot path (quick smoke gate)"
                        : "stopping-rule hot path and engine accessors");

    std::vector<size_t> sizes = {100, 1000, 10000};
    if (!quick)
        sizes.push_back(100000);

    sharp::json::Value doc = sharp::json::Value::makeObject();
    doc.set("schema", "sharp-bench-stopping-v3");
    doc.set("mode", quick ? "quick" : "full");
    doc.set("cutover", sharp::core::kStatsCacheCutover);
    sharp::json::Value size_arr = sharp::json::Value::makeArray();
    for (size_t n : sizes)
        size_arr.append(n);
    doc.set("sizes", size_arr);

    bool all_equal = true;
    bool gates_pass = true;

    // ---- Rule rows: the engine only.
    sharp::json::Value rules_json = sharp::json::Value::makeArray();
    for (const RuleCase &rc : ruleCases) {
        bench::section(std::string(rc.rule) + " on " + rc.stream);
        std::printf("%10s %14s %12s %12s\n", "n", "ns/eval", "cmp/eval",
                    "pmf/eval");
        sharp::json::Value points = sharp::json::Value::makeArray();
        for (size_t n : sizes) {
            Plan plan = planFor(n);
            RulePoint r = measureRule(rc, n);
            std::printf("%10zu %14.0f %12.1f %12.1f\n", n, r.nsPerEval,
                        r.comparisonsPerEval, r.pmfEvalsPerEval);

            sharp::json::Value point = sharp::json::Value::makeObject();
            point.set("n", n);
            point.set("evals", plan.evals);
            point.set("repeats", plan.windows);
            point.set("streams", plan.streams);
            point.set("ns_per_eval", r.nsPerEval);
            point.set("comparisons_per_eval", r.comparisonsPerEval);
            point.set("pmf_evals_per_eval", r.pmfEvalsPerEval);
            points.append(std::move(point));

            std::string rule = rc.rule;
            bool counter_gated = rule == "ks" || rule == "median-ci" ||
                                 rule == "tail-quantile" || rule == "meta";
            double nd = static_cast<double>(n);
            if (counter_gated && n >= 10000) {
                if (r.comparisonsPerEval > nd) {
                    std::printf("  GATE: comparisons/eval %.0f above "
                                "n = %zu\n",
                                r.comparisonsPerEval, n);
                    gates_pass = false;
                }
                if (r.pmfEvalsPerEval > 10.0 * std::sqrt(nd)) {
                    std::printf("  GATE: pmf evals/eval %.0f above "
                                "10 sqrt(n) = %.0f\n",
                                r.pmfEvalsPerEval, 10.0 * std::sqrt(nd));
                    gates_pass = false;
                }
            }
        }
        sharp::json::Value rule_json = sharp::json::Value::makeObject();
        rule_json.set("rule", rc.rule);
        rule_json.set("stream", rc.stream);
        rule_json.set("points", std::move(points));
        rules_json.append(std::move(rule_json));
    }
    doc.set("rules", std::move(rules_json));

    // ---- Accessor rows: engine vs the src/stats recomputation.
    sharp::json::Value accessors_json = sharp::json::Value::makeArray();
    for (const AccessorCase &ac : accessorCases) {
        bench::section(std::string(ac.accessor) + " on " + ac.stream +
                       ", engine vs src/stats");
        std::printf("%10s %14s %14s %12s %8s\n", "n", "engine ns/eval",
                    "stats ns/eval", "stats/engine", "bits");
        sharp::json::Value points = sharp::json::Value::makeArray();
        for (size_t n : sizes) {
            Plan plan = planFor(n);
            AccessorPoint a = measureAccessor(ac, n);
            double ratio = a.engineNsPerEval > 0.0
                               ? a.statsNsPerEval / a.engineNsPerEval
                               : 0.0;
            all_equal = all_equal && a.bitwiseEqual;
            std::printf("%10zu %14.0f %14.0f %11.2fx %8s%s\n", n,
                        a.engineNsPerEval, a.statsNsPerEval, ratio,
                        a.bitwiseEqual ? "equal" : "DIFFER",
                        a.bitwiseEqual ? "" : "  READS DIVERGED");

            sharp::json::Value point = sharp::json::Value::makeObject();
            point.set("n", n);
            point.set("evals", plan.evals);
            point.set("repeats", plan.windows);
            point.set("streams", plan.streams);
            point.set("engine_ns_per_eval", a.engineNsPerEval);
            point.set("stats_ns_per_eval", a.statsNsPerEval);
            point.set("stats_over_engine", ratio);
            point.set("bitwise_equal", a.bitwiseEqual);
            points.append(std::move(point));

            // Windows that never outgrow the cutover run the batch
            // code inside the engine, so the two sides can differ by
            // noise only: the guard on the small-n overhead the cutover
            // exists to remove.
            if (n + plan.evals <= sharp::core::kStatsCacheCutover &&
                ratio < 0.7) {
                std::printf("  GATE: src/stats-to-engine time ratio "
                            "%.2f below the cutover, under 0.7\n",
                            ratio);
                gates_pass = false;
            }
        }
        sharp::json::Value accessor_json =
            sharp::json::Value::makeObject();
        accessor_json.set("accessor", ac.accessor);
        accessor_json.set("stream", ac.stream);
        accessor_json.set("points", std::move(points));
        accessors_json.append(std::move(accessor_json));
    }
    doc.set("accessors", std::move(accessors_json));

    // ---- SIMD kernel micro-bench: every runnable backend vs scalar.
    namespace simd = sharp::simd;
    bench::section("SIMD kernels, per backend");
    doc.set("simd_backend", std::string(simd::activeBackendName()));

    std::vector<simd::Backend> runnable;
    sharp::json::Value runnable_json = sharp::json::Value::makeArray();
    for (simd::Backend b : {simd::Backend::Avx2, simd::Backend::Neon,
                            simd::Backend::Scalar}) {
        if (!simd::backendRunnable(b))
            continue;
        runnable.push_back(b);
        runnable_json.append(std::string(simd::backendName(b)));
    }
    doc.set("simd_backends_runnable", std::move(runnable_json));

    const simd::KernelTable &scalar =
        simd::kernelTable(simd::Backend::Scalar);
    const size_t kernel_pairs = 25;
    const std::vector<size_t> kernel_sizes = {10000, 100000};
    bool vector_runnable = runnable.front() != simd::Backend::Scalar;

    sharp::json::Value kernels_json = sharp::json::Value::makeArray();
    for (bool merge : {false, true}) {
        const char *kernel = merge ? "merge" : "ks";
        std::printf("%-6s %10s %6s %10s %14s %9s %8s\n", kernel, "n",
                    merge ? "tail" : "m", "backend", "ns/call", "speedup",
                    "bits");
        sharp::json::Value kpoints = sharp::json::Value::makeArray();

        for (size_t n : kernel_sizes) {
            // The shapes StatsCache hands the kernels: the KS walk
            // compares two equal halves; a merge folds the sorted tail
            // into a body of n, either the few samples appended since
            // the last sorted() call or a full tail of the limit + 1.
            std::vector<size_t> others = {n};
            if (merge)
                others = {8, sharp::core::statsCacheTailLimit(n) + 1};
            for (size_t m : others) {
                std::vector<double> a = makeSortedSeries(n, 0xabcd17 ^ n);
                std::vector<double> b2 = makeSortedSeries(m, 0x55aa33 ^ m);

                // Scalar reference outputs, computed once.
                std::vector<double> ref_merge(n + m), out_merge(n + m);
                uint64_t ref_cmp = scalar.mergeSorted(
                    a.data(), n, b2.data(), m, ref_merge.data());
                double ref_ks = scalar.ksSorted(a.data(), n, b2.data(), m);

                auto call = [&](const simd::KernelTable &table) {
                    return [&, kernels = &table] {
                        if (merge) {
                            kernels->mergeSorted(a.data(), n, b2.data(),
                                                 m, out_merge.data());
                        } else {
                            volatile double sink = kernels->ksSorted(
                                a.data(), n, b2.data(), m);
                            (void)sink;
                        }
                    };
                };
                auto scalar_call = call(scalar);

                sharp::json::Value point =
                    sharp::json::Value::makeObject();
                point.set("n", n);
                if (merge)
                    point.set("tail", m);
                point.set("pairs", kernel_pairs);
                sharp::json::Value backends_json =
                    sharp::json::Value::makeArray();
                // Scalar's fastest call across every backend's pairs
                // (or alone, on a host with no vector backend); it
                // probes last.
                double scalar_ns = 0.0;
                for (simd::Backend b : runnable) {
                    const simd::KernelTable &table = simd::kernelTable(b);
                    bool own_kernel =
                        merge ? table.mergeSorted != scalar.mergeSorted
                              : table.ksSorted != scalar.ksSorted;
                    bool bits_equal = true;
                    if (merge) {
                        uint64_t cmp = table.mergeSorted(
                            a.data(), n, b2.data(), m, out_merge.data());
                        bits_equal =
                            cmp == ref_cmp &&
                            std::memcmp(out_merge.data(), ref_merge.data(),
                                        (n + m) * sizeof(double)) == 0;
                    } else {
                        bits_equal = sameBits(
                            table.ksSorted(a.data(), n, b2.data(), m),
                            ref_ks);
                    }
                    all_equal = all_equal && bits_equal;

                    double ns = 0.0, speedup = 1.0;
                    if (b != simd::Backend::Scalar) {
                        PairedTiming t = pairedTiming(
                            kernel_pairs, scalar_call, call(table));
                        keepFastest(scalar_ns, t.scalarNs);
                        ns = t.vectorNs;
                        speedup = t.speedup;
                    } else {
                        if (scalar_ns == 0.0) {
                            for (size_t w = 0; w < kernel_pairs; ++w)
                                keepFastest(scalar_ns,
                                            callNs(scalar_call));
                        }
                        ns = scalar_ns;
                    }

                    std::printf(
                        "%-6s %10zu %6zu %10s %14.0f %8.2fx %8s%s\n", "",
                        n, m, simd::backendName(b), ns, speedup,
                        bits_equal ? "equal" : "DIFFER",
                        bits_equal ? "" : "  BITS DIVERGED");

                    sharp::json::Value bj =
                        sharp::json::Value::makeObject();
                    bj.set("backend", std::string(simd::backendName(b)));
                    bj.set("own_kernel", own_kernel);
                    bj.set("ns_per_call", ns);
                    bj.set("speedup_vs_scalar", speedup);
                    bj.set("bitwise_equal", bits_equal);
                    backends_json.append(std::move(bj));

                    // The dispatched backend's KS walk must clearly
                    // beat scalar at the size where it pays; a backend
                    // with its own merge kernel must not lose to the
                    // scalar merge on any shape the engine merges.
                    if (!merge && vector_runnable &&
                        b == runnable.front() && n == 100000 &&
                        speedup < 1.5) {
                        std::printf("  GATE: %s backend %.2fx over "
                                    "scalar on ks at n=100000, below "
                                    "1.5x\n",
                                    simd::backendName(b), speedup);
                        gates_pass = false;
                    }
                    if (merge && own_kernel && speedup < 1.0) {
                        std::printf("  GATE: %s backend %.2fx over "
                                    "scalar on merge at n=%zu tail=%zu, "
                                    "below 1.0x\n",
                                    simd::backendName(b), speedup, n, m);
                        gates_pass = false;
                    }
                }
                point.set("backends", std::move(backends_json));
                kpoints.append(std::move(point));
            }
        }
        sharp::json::Value kernel_json = sharp::json::Value::makeObject();
        kernel_json.set("kernel", kernel);
        kernel_json.set("points", std::move(kpoints));
        kernels_json.append(std::move(kernel_json));
    }
    doc.set("simd_kernels", std::move(kernels_json));

    doc.set("bitwise_equal", all_equal);
    sharp::json::writeFile(doc, out);
    std::printf("\nwrote %s\n", out.c_str());

    if (!all_equal) {
        std::fprintf(stderr,
                     "FAIL: a bit-exactness contract broke (an engine "
                     "accessor vs src/stats, or a SIMD backend vs "
                     "scalar)\n");
        return 1;
    }
    if (!gates_pass) {
        std::fprintf(stderr,
                     "FAIL: a gate tripped (work-counter sub-linearity, "
                     "small-n overhead below the cutover, a KS kernel "
                     "speedup under 1.5x, or a merge kernel slower "
                     "than scalar)\n");
        return 1;
    }
    std::printf("engine == src/stats bit-for-bit across %zu accessors x "
                "%zu sizes\n",
                sizeof(accessorCases) / sizeof(accessorCases[0]),
                sizes.size());
    return 0;
}
