/**
 * @file
 * Shared plumbing of the benchmark driver: options, the per-run
 * outcome each workload fills in, the span trace recorded by traced
 * runs, and small process and statistics helpers.
 *
 * Every workload is one function taking a Run. It sets up, calls
 * Run::setupDone() (which stamps setup_s and ends the process early
 * for --setup-only), repeats passes of its fixed unit set until the
 * time budget is spent, checks its outputs, and fills in metrics.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include <sys/types.h>

#include "json/value.hh"

namespace perfbench
{

namespace json = sharp::json;

/** Nanoseconds on CLOCK_MONOTONIC, the clock Python's time.monotonic_ns reads. */
int64_t nowNs();

/** Nanoseconds to seconds. */
inline double toSeconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    /** Time budget of the measured phase. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Small inputs and a single pass, for the benchmark's own tests. */
    bool quick = false;
    /** Stop once set-up is done (the runner repeats set-up this way). */
    bool setupOnly = false;
    /** CLOCK_MONOTONIC time at which the runner launched this process. */
    int64_t launchNs = 0;
    /** Repository checkout root. */
    std::string root = ".";
    /** Scratch directory owned by this run. */
    std::string work;
    /** The `sharp` CLI built from the same sources. */
    std::string sharp;
    /** Where a traced run writes its spans. */
    std::string traceFile;
    /** Independent units kept in flight by closed-loop workloads. */
    size_t workers = 1;
};

/** Log-spaced histogram of durations (about 4% per bucket). */
class LogHistogram
{
  public:
    void add(int64_t ns);
    void merge(const LogHistogram &other);
    uint64_t count() const { return total; }
    /** Approximate quantile in nanoseconds (bucket midpoint). */
    double quantileNs(double p) const;
    json::Value toJson() const;

  private:
    static constexpr int kPerOctave = 16;
    static constexpr int kBuckets = 64 * kPerOctave;
    std::vector<uint64_t> buckets = std::vector<uint64_t>(kBuckets, 0);
    uint64_t total = 0;
};

/** One closed interval at a layer boundary. */
struct Span
{
    std::string name;
    int64_t start = 0;
    int64_t end = 0;
    /** Index of the span that caused this one; -1 for a root. */
    int64_t parent = -1;
    /** The workload unit (campaign, cell, compare) it belongs to. */
    uint64_t unit = 0;
};

/**
 * Per-round boundaries of one parent span folded into a total and a
 * histogram, so a campaign of 10^5 rounds costs a few records, not
 * 10^5 spans. Folded intervals are disjoint from one another and from
 * the parent's child spans.
 */
struct Fold
{
    explicit Fold(std::string name) : name(std::move(name)) {}

    std::string name;
    int64_t parent = -1;
    uint64_t unit = 0;
    uint64_t count = 0;
    int64_t totalNs = 0;
    LogHistogram histogram;

    void add(int64_t ns)
    {
        ++count;
        totalNs += ns;
        histogram.add(ns);
    }
};

/**
 * Spans and folds of one traced run, kept in memory and written out
 * when the run ends. Every call is a no-op when tracing is off.
 */
class Trace
{
  public:
    /** @p enabled: this is a traced run (spans are kept while active). */
    explicit Trace(bool enabled) : enabled(enabled) {}

    /** True while spans are being recorded. */
    bool on() const { return enabled && active.load(std::memory_order_relaxed); }
    /** Switch recording on or off between passes of a traced run. */
    void activate(bool on) { active.store(on); }

    /** Open a span now; returns its id (-1 when tracing is off). */
    int64_t open(const std::string &name, int64_t parent = -1,
                 uint64_t unit = 0);
    /** Close span @p id now. */
    void close(int64_t id);
    /** Record a finished span; returns its id. */
    int64_t add(const std::string &name, int64_t start, int64_t end,
                int64_t parent = -1, uint64_t unit = 0);
    /** Record a fold (its parent must already be recorded). */
    void fold(Fold folded);
    /** Add @p n to the work counter @p name. */
    void tally(const std::string &name, uint64_t n);

    /** Summed duration of spans named @p name. */
    double seconds(const std::string &name) const;
    /** Summed count of folds named @p name. */
    uint64_t foldCount(const std::string &name) const;
    /** Summed total of folds named @p name. */
    double foldSeconds(const std::string &name) const;
    /** Value of the work counter @p name. */
    uint64_t tallied(const std::string &name) const;
    /** Merged histogram of folds named @p name. */
    LogHistogram foldHistogram(const std::string &name) const;
    /**
     * Self time of the spans named @p name: each span's duration minus
     * the part of it covered by its child spans and folds.
     */
    double selfSeconds(const std::string &name) const;
    size_t spanCount() const;

    /** Write every span and fold as JSON lines after a context line. */
    void write(const std::string &path, const json::Value &context) const;

  private:
    bool enabled;
    std::atomic<bool> active{true};
    mutable std::mutex mutex;
    std::vector<Span> spans;
    std::vector<Fold> folds;
    std::map<std::string, uint64_t> tallies;
};

/** Opens a span on construction and closes it on destruction. */
class Scope
{
  public:
    Scope(Trace &trace, const std::string &name, int64_t parent = -1,
          uint64_t unit = 0)
        : trace(trace), id(trace.open(name, parent, unit))
    {
    }
    ~Scope() { trace.close(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int64_t spanId() const { return id; }

  private:
    Trace &trace;
    int64_t id;
};

/** State of one benchmark run, handed to the workload function. */
class Run
{
  public:
    Run(Options options, Trace &trace) : opt(std::move(options)), trace(trace) {}

    const Options opt;
    Trace &trace;

    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Metric name -> (value, unit). */
    std::map<std::string, std::pair<double, std::string>> metrics;

    /** Record a failed output check (printed to stderr). */
    void problem(const std::string &what);
    /** Set metric @p name. */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /**
     * Mark the end of set-up: stamps setup_s (time since the runner
     * launched this process) and returns true when the run should
     * stop here (--setup-only).
     */
    bool setupDone();

    /**
     * Repeat @p pass until the measured phase has used its time budget
     * (one pass in quick mode). @p pass gets the pass index and
     * whether it is traced; in a traced run passes alternate
     * untraced/traced so the tracing overhead can be reported.
     * Returns each pass's wall time in seconds, split by tracing, and
     * sets tracedPasses.
     */
    struct PassTimes
    {
        std::vector<double> untraced;
        std::vector<double> traced;
    };
    PassTimes repeat(const std::function<void(size_t, bool)> &pass);

    /** Report wall_s (untraced runs) or trace.overhead_s (traced runs). */
    void reportWall(const PassTimes &times);

    /**
     * A total over the traced passes, per pass: per-layer metrics are
     * per pass so runs that fit different pass counts compare.
     */
    double perPass(double total) const;
    size_t tracedPasses = 0;

    /**
     * Start of the measured phase: snapshot the host and time the
     * reference loop (once; repeat() calls it too).
     */
    void beginMeasured();
    /** Host context before and after the measured phase. */
    json::Value hostBefore;
    double referenceBefore = 0.0;
    /** Median fsync'd append latency in the work dir, in us. */
    double fsyncBeforeUs = 0.0;
};

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Linear-interpolated quantile of @p values (0 when empty). */
double quantile(std::vector<double> values, double p);

/** Peak resident set size of process @p pid (0 = self), in MiB. */
double peakRssMb(pid_t pid = 0);

/** Online CPUs this process may run on. */
size_t onlineCpus();

/** Host context recorded with every run; reported, never gated. */
json::Value hostSnapshot();

/**
 * Time a fixed CPU-bound reference loop, so a slow host can be told
 * apart from a slow change.
 */
double referenceLoopSeconds();

/**
 * Time @p count fsync'd journal appends (record::appendJsonlLine) to a
 * scratch file in @p dir; returns each append's latency in us.
 */
std::vector<double> fsyncAppendsUs(const std::string &dir, size_t count);

/**
 * Spawn @p argv with stdout/stderr sent to @p logPath and wait for it.
 * Returns the exit status (-1 when it could not run or was killed).
 */
int runProcess(const std::vector<std::string> &argv,
               const std::string &logPath);

/** Byte-compare two files; on mismatch fills @p why. */
bool sameBytes(const std::string &a, const std::string &b,
               std::string &why);

/** A file's text without the lines starting with @p prefix. */
std::string textWithout(const std::string &path, const std::string &prefix);

/** Remove a directory tree (ignores a missing one). */
void removeTree(const std::string &path);

/** Size of a file in MiB. */
double fileMb(const std::string &path);

/** SplitMix64 step: derive independent seeds from one. */
uint64_t mix(uint64_t x);

/**
 * A seeded sim-backend run spec, in the document form `sharp run
 * --config` and the serve `submit` op take.
 */
json::Value simSpec(const std::string &workload, const std::string &machine,
                    uint64_t seed, const std::string &rule,
                    const std::string &param, double value, size_t cap);

/** Timings a traced campaign collects; null members are skipped. */
struct CampaignProbe
{
    Trace *trace = nullptr;
    /** Unit id recorded on the campaign's spans and folds. */
    uint64_t unit = 0;
    /** Gaps between consecutive round-observer calls, in microseconds. */
    std::vector<float> *roundGapsUs = nullptr;
};

/** What one in-process campaign did. */
struct CampaignResult
{
    size_t rounds = 0;
    size_t failures = 0;
    bool aborted = false;
};

/**
 * Run @p spec in-process the way `sharp run --config SPEC --out BASE`
 * does without a journal: launch, annotate, attach the simulated
 * machine, analyze and render the report, write BASE.csv and BASE.md.
 */
CampaignResult executeCampaign(const json::Value &spec,
                               const std::string &base,
                               const CampaignProbe &probe = {});

/** Workload entry points. */
void campaignWorkload(Run &run);
void calibrateWorkload(Run &run);
void gateWorkload(Run &run);
void serveWorkload(Run &run);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
