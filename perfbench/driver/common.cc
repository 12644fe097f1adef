#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "json/writer.hh"
#include "record/journal.hh"
#include "simd/dispatch.hh"

extern char **environ;

namespace perfbench
{

int64_t
nowNs()
{
    timespec ts = {};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void
LogHistogram::add(int64_t ns)
{
    int index = 0;
    if (ns > 1) {
        index = static_cast<int>(std::log2(static_cast<double>(ns)) *
                                 kPerOctave);
        index = std::clamp(index, 0, kBuckets - 1);
    }
    ++buckets[static_cast<size_t>(index)];
    ++total;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    for (size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    total += other.total;
}

double
LogHistogram::quantileNs(double p) const
{
    if (total == 0)
        return 0.0;
    auto rank = static_cast<uint64_t>(std::ceil(p * static_cast<double>(total)));
    rank = std::clamp<uint64_t>(rank, 1, total);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= rank)
            return std::exp2((static_cast<double>(i) + 0.5) / kPerOctave);
    }
    return std::exp2(static_cast<double>(kBuckets) / kPerOctave);
}

json::Value
LogHistogram::toJson() const
{
    // Sparse [bucket lower bound in ns, count] pairs.
    json::Value list = json::Value::makeArray();
    for (size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        json::Value pair = json::Value::makeArray();
        pair.append(std::exp2(static_cast<double>(i) / kPerOctave));
        pair.append(static_cast<size_t>(buckets[i]));
        list.append(std::move(pair));
    }
    return list;
}

int64_t
Trace::open(const std::string &name, int64_t parent, uint64_t unit)
{
    if (!on())
        return -1;
    int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mutex);
    spans.push_back({name, start, 0, parent, unit});
    return static_cast<int64_t>(spans.size()) - 1;
}

void
Trace::close(int64_t id)
{
    if (id < 0)
        return;
    int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex);
    spans[static_cast<size_t>(id)].end = end;
}

int64_t
Trace::add(const std::string &name, int64_t start, int64_t end,
           int64_t parent, uint64_t unit)
{
    if (!on())
        return -1;
    std::lock_guard<std::mutex> lock(mutex);
    spans.push_back({name, start, end, parent, unit});
    return static_cast<int64_t>(spans.size()) - 1;
}

void
Trace::fold(Fold folded)
{
    if (!on() || folded.count == 0)
        return;
    std::lock_guard<std::mutex> lock(mutex);
    folds.push_back(std::move(folded));
}

void
Trace::tally(const std::string &name, uint64_t n)
{
    if (!on())
        return;
    std::lock_guard<std::mutex> lock(mutex);
    tallies[name] += n;
}

uint64_t
Trace::tallied(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = tallies.find(name);
    return it == tallies.end() ? 0 : it->second;
}

double
Trace::seconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    int64_t ns = 0;
    for (const Span &s : spans) {
        if (s.name == name)
            ns += s.end - s.start;
    }
    return toSeconds(ns);
}

uint64_t
Trace::foldCount(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    uint64_t n = 0;
    for (const Fold &f : folds) {
        if (f.name == name)
            n += f.count;
    }
    return n;
}

double
Trace::foldSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    int64_t ns = 0;
    for (const Fold &f : folds) {
        if (f.name == name)
            ns += f.totalNs;
    }
    return toSeconds(ns);
}

LogHistogram
Trace::foldHistogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    LogHistogram merged;
    for (const Fold &f : folds) {
        if (f.name == name)
            merged.merge(f.histogram);
    }
    return merged;
}

double
Trace::selfSeconds(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
    std::map<int64_t, int64_t> folded;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            children[s.parent].push_back({s.start, s.end});
    }
    for (const Fold &f : folds)
        folded[f.parent] += f.totalNs;

    int64_t self = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.name != name)
            continue;
        auto id = static_cast<int64_t>(i);
        // Union of the child intervals, clipped to the parent.
        int64_t covered = 0;
        auto &kids = children[id];
        std::sort(kids.begin(), kids.end());
        int64_t reach = s.start;
        for (auto [start, end] : kids) {
            start = std::max(start, reach);
            end = std::min(end, s.end);
            if (end > start) {
                covered += end - start;
                reach = end;
            }
        }
        self += (s.end - s.start) - covered - folded[id];
    }
    return toSeconds(self);
}

size_t
Trace::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return spans.size();
}

void
Trace::write(const std::string &path, const json::Value &context) const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::ofstream out(path);
    out << json::write(context) << "\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        json::Value doc = json::Value::makeObject();
        doc.set("span", static_cast<size_t>(i));
        doc.set("name", s.name);
        doc.set("start_ns", static_cast<long>(s.start));
        doc.set("end_ns", static_cast<long>(s.end));
        doc.set("parent", static_cast<long>(s.parent));
        doc.set("unit", static_cast<size_t>(s.unit));
        out << json::write(doc) << "\n";
    }
    for (const Fold &f : folds) {
        json::Value doc = json::Value::makeObject();
        doc.set("fold", f.name);
        doc.set("parent", static_cast<long>(f.parent));
        doc.set("unit", static_cast<size_t>(f.unit));
        doc.set("count", static_cast<size_t>(f.count));
        doc.set("total_ns", static_cast<long>(f.totalNs));
        doc.set("histogram", f.histogram.toJson());
        out << json::write(doc) << "\n";
    }
    for (const auto &[name, value] : tallies) {
        json::Value doc = json::Value::makeObject();
        doc.set("tally", name);
        doc.set("value", static_cast<size_t>(value));
        out << json::write(doc) << "\n";
    }
}

void
Run::problem(const std::string &what)
{
    correct = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
}

void
Run::metric(const std::string &name, double value, const std::string &unit)
{
    metrics[name] = {value, unit};
}

bool
Run::setupDone()
{
    metric("setup_s", toSeconds(nowNs() - opt.launchNs), "s");
    return opt.setupOnly;
}

void
Run::beginMeasured()
{
    if (!hostBefore.isNull())
        return;
    // Flush what earlier runs left dirty on this filesystem, so its
    // writeback does not land inside the measured phase.
    int dirFd = ::open(opt.work.c_str(), O_RDONLY | O_DIRECTORY);
    if (dirFd >= 0) {
        ::syncfs(dirFd);
        ::close(dirFd);
    }
    hostBefore = hostSnapshot();
    referenceBefore = referenceLoopSeconds();
    fsyncBeforeUs = median(fsyncAppendsUs(opt.work, 200));
}

Run::PassTimes
Run::repeat(const std::function<void(size_t, bool)> &pass)
{
    beginMeasured();
    PassTimes times;
    int64_t begin = nowNs();
    // A traced run needs one untraced and one traced pass at least.
    size_t minimum = opt.trace ? 2 : 1;
    for (size_t i = 0;; ++i) {
        bool traced = opt.trace && i % 2 == 1;
        trace.activate(traced);
        int64_t start = nowNs();
        pass(i, traced);
        double wall = toSeconds(nowNs() - start);
        (traced ? times.traced : times.untraced).push_back(wall);
        if (i + 1 < minimum)
            continue;
        // Start no pass that would likely end past the budget.
        std::vector<double> all = times.untraced;
        all.insert(all.end(), times.traced.begin(), times.traced.end());
        if (opt.quick ||
            toSeconds(nowNs() - begin) + median(all) > opt.seconds)
            break;
    }
    trace.activate(true);
    tracedPasses = times.traced.size();
    return times;
}

double
Run::perPass(double total) const
{
    return total / static_cast<double>(std::max<size_t>(1, tracedPasses));
}

void
Run::reportWall(const PassTimes &times)
{
    if (!opt.trace) {
        metric("wall_s", median(times.untraced), "s");
        return;
    }
    double untraced = median(times.untraced);
    metric("trace.overhead_s", median(times.traced) - untraced, "s");
    metric("trace.passes", static_cast<double>(times.traced.size()),
           "count");
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = p * static_cast<double>(values.size() - 1);
    auto lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
peakRssMb(pid_t pid)
{
    std::string path = pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

size_t
onlineCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

json::Value
hostSnapshot()
{
    json::Value doc = json::Value::makeObject();
    std::ifstream load("/proc/loadavg");
    double l1 = 0, l5 = 0, l15 = 0;
    load >> l1 >> l5 >> l15;
    doc.set("loadavg_1m", l1);
    doc.set("loadavg_5m", l5);
    doc.set("loadavg_15m", l15);
    // Aggregate "cpu" line: user nice system idle iowait irq softirq steal.
    std::ifstream stat("/proc/stat");
    std::string label;
    unsigned long long fields[8] = {};
    stat >> label;
    for (auto &field : fields)
        stat >> field;
    doc.set("steal_ticks", static_cast<double>(fields[7]));
    doc.set("nproc", onlineCpus());
    doc.set("simd_backend", sharp::simd::activeBackendName());
    return doc;
}

double
referenceLoopSeconds()
{
    // Fixed integer work (xorshift), no memory traffic: moves only
    // with the speed the host gives this process.
    int64_t start = nowNs();
    volatile uint64_t sink = 0;
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 40000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    sink = x;
    (void)sink;
    return toSeconds(nowNs() - start);
}

std::vector<double>
fsyncAppendsUs(const std::string &dir, size_t count)
{
    std::string path = dir + "/append-probe.jsonl";
    std::FILE *file = std::fopen(path.c_str(), "a");
    std::vector<double> us;
    // A line the size of one journaled sim round.
    std::string line(160, 'x');
    for (size_t i = 0; file && i < count; ++i) {
        int64_t start = nowNs();
        sharp::record::appendJsonlLine(file, line, "append probe");
        us.push_back(toSeconds(nowNs() - start) * 1e6);
    }
    if (file)
        std::fclose(file);
    std::remove(path.c_str());
    return us;
}

int
runProcess(const std::vector<std::string> &argv, const std::string &logPath)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, logPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<char *> args;
    for (const auto &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);
    pid_t pid = 0;
    int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
        return -1;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return -1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool
sameBytes(const std::string &a, const std::string &b, std::string &why)
{
    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    if (!fa || !fb) {
        why = "cannot open " + (fa ? b : a);
        return false;
    }
    std::stringstream sa, sb;
    sa << fa.rdbuf();
    sb << fb.rdbuf();
    if (sa.str() == sb.str())
        return true;
    why = a + " differs from " + b;
    return false;
}

std::string
textWithout(const std::string &path, const std::string &prefix)
{
    std::ifstream in(path);
    std::string line, kept;
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) != 0)
            kept += line + "\n";
    }
    return kept;
}

void
removeTree(const std::string &path)
{
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
}

double
fileMb(const std::string &path)
{
    std::error_code ec;
    auto size = std::filesystem::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(size) / (1024.0 * 1024.0);
}

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace perfbench
