/**
 * @file
 * cawa_perfbench: the repository benchmark. One invocation runs one
 * workload for a fixed measuring window, checks every simulated result
 * (functional verify, report bytes against an in-process run of the
 * same spec, pinned counters from expected.json) and prints one JSON
 * result line.
 *
 * With --trace 0 it prints the end-to-end metrics of an untraced run.
 * With --trace 1 it measures the workload in four quarters (untraced,
 * traced, traced, untraced), runs the workload's job list through
 * every harness layer -- in-process Workload/Gpu calls (with
 * fast-forward on and off), SweepEngine, SweepSupervisor with a
 * journal, and cawad -- and prints the per-layer metrics. Spans are
 * recorded here, around calls into each layer's public functions, and
 * written once at the end as Chrome trace-event JSON. Neither mode
 * sets GpuConfig::profilePhases or trace.enabled: both would change
 * the measured program. METRICS.md maps every metric to its layer.
 *
 * Normally started by run.py, which builds this binary first:
 *   cawa_perfbench --workload sweep-isolated --seed 1 --seconds 30
 *       --trace 0 --work-dir DIR --sweep-bin PATH --cawad-bin PATH
 *       [--expected FILE] [--regen-expected] [--commit ID]
 *   cawa_perfbench --self-test --expected FILE
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/sim_error.hh"
#include "common/subprocess.hh"
#include "sim/gpu.hh"
#include "sim/journal.hh"
#include "sim/report_json.hh"
#include "sim/service/protocol.hh"
#include "sim/supervisor.hh"
#include "sim/sweep.hh"
#include "workloads/registry.hh"
#include "workloads/sweep_jobs.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

using namespace cawa;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace
{

/** Environment knobs that change the measured program. */
const char *const kGuardedEnv[] = {
    "CAWA_FAST_FORWARD", "CAWA_SIM_THREADS",   "CAWA_CHECK",
    "CAWA_ASSERT_THROW", "CAWA_BENCH_THREADS", "CAWA_BENCH_SCALE"};

/** The counters expected.json pins for every job it lists. */
const char *const kPinnedCounters[] = {
    "sim.cycles",  "sim.instructions",  "l1.accesses",
    "l1.hits",     "l1.misses",         "l2.accesses",
    "l2.hits",     "l2.misses",         "dram.reads",
    "dram.writes", "icnt.messagesToL2", "icnt.messagesToSm"};

/** Problem scale of the short jobs (sweep-isolated, service-mixed). */
constexpr double kShortScale = 0.15;

/** {gto, gcaws} x {lru, cacp}: the short jobs' configurations. */
const std::pair<SchedulerKind, CachePolicyKind> kShortConfigs[] = {
    {SchedulerKind::Gto, CachePolicyKind::Lru},
    {SchedulerKind::Gto, CachePolicyKind::Cacp},
    {SchedulerKind::Gcaws, CachePolicyKind::Lru},
    {SchedulerKind::Gcaws, CachePolicyKind::Cacp}};

/** Set-ups timed per run; setup_s takes their median. */
constexpr int kSetups = 15;

/** Derived input seeds per sweep-isolated kernel/config cell. */
constexpr std::uint64_t kSweepSeeds = 4;

/**
 * service-mixed keys re-run in-process for a byte comparison, spread
 * over the clients. Every key is also checked cold-vs-cached; the
 * bounded sample keeps the in-process re-run short.
 */
constexpr std::size_t kServiceSampled = 48;

/**
 * service-mixed requests that repeat a key, in eighths. Below one half
 * on purpose: with an even split the median of all latencies would
 * fall in the gap between the cached and cold modes and jump between
 * them run to run.
 */
constexpr std::uint64_t kRepeatEighths = 3;

/** Client index offset of the service warm-up's keys. */
constexpr std::uint64_t kWarmupClientBase = 50;

/** service-mixed latency slice length (see Latencies). */
constexpr double kSliceSeconds = 5.0;

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------

/** Linearly interpolated quantile @p q in [0, 1]; 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Latency samples of one kind, kept per slice of the window: a sweep
 * pass, or kSliceSeconds of service traffic. A reported percentile is
 * the median over slices of the slice's percentile, so that a host
 * stall in one slice moves one value of that median, not the tail of
 * the whole run.
 */
struct Latencies
{
    std::vector<double> all;
    std::vector<std::vector<double>> slices;

    void
    add(std::size_t slice, double v)
    {
        all.push_back(v);
        if (slices.size() <= slice)
            slices.resize(slice + 1);
        slices[slice].push_back(v);
    }

    /** Append @p o's samples, its slices after this one's. */
    void
    append(Latencies &&o)
    {
        all.insert(all.end(), o.all.begin(), o.all.end());
        for (std::vector<double> &s : o.slices)
            slices.push_back(std::move(s));
    }

    double
    sliced(double q) const
    {
        std::vector<double> per;
        for (const std::vector<double> &s : slices)
            if (!s.empty())
                per.push_back(quantile(s, q));
        return median(std::move(per));
    }
};

/**
 * The highest percentile of the ladder 50 / 90 / 99 / 99.9 that has
 * at least ten of @p n samples beyond it; 0 when even the median
 * lacks them (fewer than 20 samples). Integer per-mille arithmetic,
 * so 100 samples qualify for p90 exactly.
 */
double
tailPercentile(std::size_t n)
{
    double best = 0.0;
    for (const int permille : {500, 900, 990, 999})
        if (n * static_cast<std::size_t>(1000 - permille) >= 10 * 1000)
            best = permille / 10.0;
    return best;
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the tracer's epoch
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t job = 0;    ///< 0 = not tied to one job
};

/**
 * In-memory span recorder. Spans are built from timestamps the
 * benchmark reads in both modes, so an untraced run differs only in
 * not storing them. Thread-safe: service clients and in-process job
 * threads record concurrently.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled)
        : enabled_(enabled), epoch_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    /** A fresh span id (0 when disabled) for a span recorded later. */
    std::uint64_t
    newId()
    {
        return enabled_ ? nextId_.fetch_add(1) : 0;
    }

    void
    record(std::uint64_t id, const char *name, Clock::time_point s,
           Clock::time_point e, std::uint64_t parent, std::uint64_t job)
    {
        if (!enabled_)
            return;
        Span span{name, seconds(epoch_, s), seconds(epoch_, e), id,
                  parent, job};
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(span));
    }

    /** record() under a fresh id, returned for child spans. */
    std::uint64_t
    add(const char *name, Clock::time_point s, Clock::time_point e,
        std::uint64_t parent, std::uint64_t job)
    {
        const std::uint64_t id = newId();
        record(id, name, s, e, parent, job);
        return id;
    }

    /** Mean duration of the spans named @p name; 0 when none. */
    double
    mean(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        double total = 0.0;
        std::size_t n = 0;
        for (const Span &s : spans_)
            if (s.name == name) {
                total += s.end - s.start;
                ++n;
            }
        return n ? total / static_cast<double>(n) : 0.0;
    }

    /**
     * Self time per span name: each span's duration minus the part of
     * it that its children cover (children may overlap each other, as
     * the jobs of one parallel pass do).
     */
    std::map<std::string, double>
    selfTimes() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::unordered_map<std::uint64_t, std::vector<const Span *>> kids;
        for (const Span &s : spans_)
            if (s.parent)
                kids[s.parent].push_back(&s);
        std::map<std::string, double> self;
        for (const Span &s : spans_) {
            std::vector<std::pair<double, double>> cover;
            if (const auto it = kids.find(s.id); it != kids.end())
                for (const Span *c : it->second) {
                    const double a = std::max(c->start, s.start);
                    const double b = std::min(c->end, s.end);
                    if (b > a)
                        cover.emplace_back(a, b);
                }
            std::sort(cover.begin(), cover.end());
            double covered = 0.0;
            double lo = 0.0, hi = 0.0;
            bool open = false;
            for (const auto &[a, b] : cover) {
                if (open && a <= hi) {
                    hi = std::max(hi, b);
                    continue;
                }
                if (open)
                    covered += hi - lo;
                lo = a;
                hi = b;
                open = true;
            }
            if (open)
                covered += hi - lo;
            self[s.name] += (s.end - s.start) - covered;
        }
        return self;
    }

    /** Chrome trace-event JSON: one complete ("X") event per span. */
    std::string
    chromeJson(const std::string &workload) const
    {
        const std::map<std::string, double> self = selfTimes();
        std::lock_guard<std::mutex> lock(mu_);
        std::string out = "{\n  \"traceEvents\": [\n";
        char num[96];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += i ? ",\n    {\"name\": " : "    {\"name\": ";
            out += frameJsonQuote(s.name);
            std::snprintf(num, sizeof(num),
                          ", \"cat\": \"perfbench\", \"ph\": \"X\", "
                          "\"ts\": %.3f, \"dur\": %.3f",
                          s.start * 1e6, (s.end - s.start) * 1e6);
            out += num;
            out += ", \"pid\": 1, \"tid\": " + std::to_string(s.job);
            out += ", \"args\": {\"id\": " + std::to_string(s.id);
            out += ", \"parent\": " + std::to_string(s.parent);
            out += ", \"job\": " + std::to_string(s.job) + "}}";
        }
        out += "\n  ],\n  \"displayTimeUnit\": \"ms\",\n";
        out += "  \"otherData\": {\"workload\": " +
               frameJsonQuote(workload) + ", \"selfSeconds\": {";
        bool first = true;
        for (const auto &[name, sec] : self) {
            std::snprintf(num, sizeof(num), "%.9f", sec);
            out += (first ? "" : ", ") + frameJsonQuote(name) + ": " + num;
            first = false;
        }
        out += "}}\n}\n";
        return out;
    }

  private:
    const bool enabled_;
    const Clock::time_point epoch_;
    std::atomic<std::uint64_t> nextId_{1};
    mutable std::mutex mu_; ///< guards spans_
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Options, environment and results.
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string expectedPath = "perfbench/expected.json";
    bool regenExpected = false;
    bool selfTest = false;
    std::string workDir = ".bench_build/perfbench/work";
    std::string sweepBin;
    std::string cawadBin;
    std::string commit = "none";
};

struct Env
{
    int nproc = 1;
    std::string workDir;
    std::string sweepBin; ///< exec'd as `<sweepBin> --worker`
    std::string cawadBin;
};

/** Every metric and correctness tally of one run. */
struct Outcome
{
    std::vector<std::tuple<std::string, double, std::string>> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.emplace_back(name, value, unit);
    }

    /** One checked operation; @p what is printed when it failed. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
        }
    }
};

int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
}

/** Largest resident set of this process or any reaped descendant. */
double
peakRssMb()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(std::max(self.ru_maxrss, kids.ru_maxrss)) /
           1024.0;
}

template <typename Fn>
void
parallelFor(std::size_t n, int threads, Fn fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    const std::size_t k = std::min<std::size_t>(
        n, static_cast<std::size_t>(std::max(1, threads)));
    for (std::size_t t = 0; t < k; ++t)
        pool.emplace_back([&] {
            for (std::size_t i; (i = next.fetch_add(1)) < n;)
                fn(i);
        });
    for (std::thread &th : pool)
        th.join();
}

// ---------------------------------------------------------------------
// Job specs.
// ---------------------------------------------------------------------

WorkloadJobSpec
makeSpec(const std::string &kernel, SchedulerKind sched,
         CachePolicyKind policy, std::uint64_t seed, double scale)
{
    WorkloadJobSpec spec;
    spec.workload = kernel;
    spec.cfg = GpuConfig::fermiGtx480();
    spec.cfg.scheduler = sched;
    spec.cfg.l1Policy = policy;
    spec.params.seed = seed;
    spec.params.scale = scale;
    return spec;
}

/** Every Table 2 kernel but strcltr_*, whose runs take seconds. */
std::vector<std::string>
shortKernels()
{
    std::vector<std::string> out;
    for (const std::string &name : allWorkloadNames())
        if (name.rfind("strcltr", 0) != 0)
            out.push_back(name);
    return out;
}

std::vector<WorkloadJobSpec>
sweepSpecs(std::uint64_t seed)
{
    std::vector<WorkloadJobSpec> out;
    for (const std::string &kernel : shortKernels())
        for (const auto &[sched, policy] : kShortConfigs)
            for (std::uint64_t k = 0; k < kSweepSeeds; ++k)
                out.push_back(makeSpec(kernel, sched, policy,
                                       seed * kSweepSeeds + k,
                                       kShortScale));
    return out;
}

/**
 * Client @p client's @p k-th fresh service key. Keys step through
 * every short kernel x config cell in turn (7 is coprime with the 40
 * cells) in an order that does not depend on the seed, so every seed
 * sends the same cold mix, warm-up included; the input seed is unique
 * to (seed, client, k), so no two keys collide.
 */
WorkloadJobSpec
serviceKey(std::uint64_t seed, std::uint64_t client, std::uint64_t k)
{
    static const std::vector<std::string> kernels = shortKernels();
    const std::size_t cells = kernels.size() * std::size(kShortConfigs);
    const std::size_t cell = (client * 10 + k * 7) % cells;
    const auto &[sched, policy] =
        kShortConfigs[cell % std::size(kShortConfigs)];
    return makeSpec(kernels[cell / std::size(kShortConfigs)], sched, policy,
                    seed * 1'000'000 + client * 10'000 + k, kShortScale);
}

std::size_t
sampledPerClient(std::size_t clients)
{
    return (kServiceSampled + clients - 1) / clients;
}

/**
 * service-mixed's fixed job set: each client's first sampledPerClient
 * fresh keys. Every run at a seed submits them, whatever its request
 * count, so the in-process comparison, ipc and the model counters are
 * taken over them and not over every key the window reached.
 */
std::vector<WorkloadJobSpec>
serviceSampled(std::uint64_t seed, std::size_t clients)
{
    std::vector<WorkloadJobSpec> out;
    for (std::uint64_t c = 0; c < clients; ++c)
        for (std::uint64_t k = 0; k < sampledPerClient(clients); ++k)
            out.push_back(serviceKey(seed, c, k));
    return out;
}

// ---------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------

/** The worker result frame's report encoding: full and compact. */
JsonWriteOptions
fullJson()
{
    JsonWriteOptions opt;
    opt.pretty = false;
    return opt;
}

using RefMap = std::map<std::string, std::string>; ///< job -> bytes
using Counters = std::map<std::string, std::uint64_t>;
using PinnedMap = std::map<std::string, Counters>; ///< job -> counters
/** Run tag (see expectedTag) -> the pinned counters of its jobs. */
using ExpectedTable = std::map<std::string, PinnedMap>;

Counters
pinnedCounters(const SimReport &r)
{
    Counters c;
    for (const char *name : kPinnedCounters)
        c[name] = r.stats.counterOr(name);
    return c;
}

/** Names of the counters in which @p got differs from @p want. */
std::vector<std::string>
counterMismatches(const Counters &want, const Counters &got)
{
    std::vector<std::string> out;
    for (const auto &[name, value] : want) {
        const auto it = got.find(name);
        if (it == got.end() || it->second != value)
            out.push_back(name);
    }
    return out;
}

/** The table; throws when it cannot be read, so no run passes unchecked. */
ExpectedTable
loadExpected(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read the pinned-counter table " +
                                 path);
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue doc = parseJson(text.str());
    ExpectedTable table;
    for (const auto &[tag, jobs] : doc.at("runs").members())
        for (const auto &[job, entry] : jobs.members())
            for (const auto &[name, value] : entry.members())
                table[tag][job][name] = value.asU64();
    return table;
}

void
saveExpected(const std::string &path, const ExpectedTable &table)
{
    std::string out =
        "{\n  \"schema\": \"cawa-perfbench-expected-v2\",\n"
        "  \"runs\": {";
    bool firstTag = true;
    for (const auto &[tag, jobs] : table) {
        out += (firstTag ? "\n    " : ",\n    ") + frameJsonQuote(tag) +
               ": {";
        firstTag = false;
        bool first = true;
        for (const auto &[job, counters] : jobs) {
            out += first ? "\n      " : ",\n      ";
            first = false;
            out += frameJsonQuote(job) + ": {";
            bool firstCounter = true;
            for (const auto &[name, value] : counters) {
                out += (firstCounter ? "" : ", ") + frameJsonQuote(name) +
                       ": " + std::to_string(value);
                firstCounter = false;
            }
            out += "}";
        }
        out += "\n    }";
    }
    out += "\n  }\n}\n";
    std::ofstream(path) << out;
}

void
checkBytes(Outcome &out, const std::string &name, const std::string &bytes,
           const RefMap &ref, const char *path)
{
    const auto it = ref.find(name);
    if (it == ref.end())
        return; // a service key outside the in-process sample
    out.check(it->second == bytes,
              name + ": " + path +
                  " report bytes differ from the in-process run");
}

// ---------------------------------------------------------------------
// Layer: in-process Workload + Gpu calls.
// ---------------------------------------------------------------------

/** One job run in-process through the layers' public calls. */
struct LayeredRun
{
    std::string name;
    SimReport report;
    std::string json; ///< toJson(report, fullJson())
    bool verified = false;
    std::string error;
    double launch = 0.0, step = 0.0, finish = 0.0;
    double total = 0.0; ///< build through verify: the job's latency

    double gpu() const { return launch + step + finish; }

    bool
    ok() const
    {
        return error.empty() && verified &&
               report.exitStatus == ExitStatus::Completed;
    }
};

LayeredRun
runLayered(const WorkloadJobSpec &spec, bool fastForward, Tracer &tr,
           std::uint64_t parent, std::uint64_t job)
{
    LayeredRun r;
    r.name = workloadJobName(spec);
    GpuConfig cfg = spec.cfg;
    cfg.fastForward = fastForward;
    const std::uint64_t id = tr.newId();
    try {
        const auto t0 = Clock::now();
        const std::unique_ptr<Workload> wl = makeWorkload(spec.workload);
        MemoryImage mem;
        const KernelInfo kernel = wl->build(mem, spec.params);
        const auto t1 = Clock::now();
        Gpu gpu(cfg, mem);
        gpu.launch(kernel);
        const auto t2 = Clock::now();
        gpu.stepUntil(kNoCycle);
        const auto t3 = Clock::now();
        r.report = gpu.finish();
        const auto t4 = Clock::now();
        r.verified = wl->verify(mem);
        const auto t5 = Clock::now();
        r.json = toJson(r.report, fullJson());
        const auto t6 = Clock::now();

        r.launch = seconds(t1, t2);
        r.step = seconds(t2, t3);
        r.finish = seconds(t3, t4);
        r.total = seconds(t0, t5);
        tr.add("workloads.build", t0, t1, id, job);
        tr.add("gpu.launch", t1, t2, id, job);
        tr.add("gpu.step", t2, t3, id, job);
        tr.add("gpu.finish", t3, t4, id, job);
        tr.add("workloads.verify", t4, t5, id, job);
        tr.add("report_json.serialize", t5, t6, id, job);
        tr.record(id, "job", t0, t6, parent, job);
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    return r;
}

std::vector<LayeredRun>
runLayeredAll(const std::vector<WorkloadJobSpec> &specs, int threads,
              bool fastForward, Tracer &tr)
{
    std::vector<LayeredRun> out(specs.size());
    const std::uint64_t id = tr.newId();
    const auto t0 = Clock::now();
    parallelFor(specs.size(), threads, [&](std::size_t i) {
        out[i] = runLayered(specs[i], fastForward, tr, id, i + 1);
    });
    tr.record(id, "inproc.run", t0, Clock::now(), 0, 0);
    return out;
}

void
checkLayered(Outcome &out, const LayeredRun &r)
{
    out.check(r.ok(), r.name + ": in-process run " +
                          (!r.error.empty() ? r.error
                           : !r.verified    ? "failed Workload::verify"
                                            : "did not complete"));
}

/** Check @p runs and key their bytes by job: the reference. */
RefMap
referenceOf(const std::vector<LayeredRun> &runs, Outcome &out)
{
    RefMap ref;
    for (const LayeredRun &r : runs) {
        checkLayered(out, r);
        ref.emplace(r.name, r.json);
    }
    return ref;
}

// ---------------------------------------------------------------------
// Layer: SweepSupervisor (exec mode) + JournalWriter.
// ---------------------------------------------------------------------

struct IsolatedPass
{
    std::vector<std::string> names;
    std::vector<SweepResult> results;
    std::vector<double> latency; ///< pass start -> result, per job
    std::vector<double> span;    ///< first spawn -> result, per job
    double wall = 0.0;
    int workers = 1;
    int respawns = 0;
    std::size_t journalLines = 0;
};

IsolatedPass
runIsolatedPass(const std::vector<WorkloadJobSpec> &specs, const Env &env,
                const std::string &journalPath, Tracer &tr)
{
    IsolatedPass p;
    const std::size_t n = specs.size();
    const std::vector<SweepJob> jobs = makeWorkloadJobs(specs);
    for (const SweepJob &job : jobs)
        p.names.push_back(job.name);

    SupervisorOptions sup;
    sup.workers = env.nproc;
    sup.workerArgv0 = env.sweepBin;
    const double heartbeat = sup.heartbeatIntervalSec;
    sup.jobSpec = [&specs, heartbeat](std::size_t i, const SweepJob &job,
                                      int attempt) {
        return workerSpecJson(specs[i], job, 1, attempt, heartbeat);
    };
    std::vector<Clock::time_point> spawned(n), done(n);
    sup.onEvent = [&](std::size_t i, int attempt, const std::string &event,
                      const std::string &, double) {
        if (event == "spawn" && attempt == 1)
            spawned[i] = Clock::now();
        else if (event == "retry")
            ++p.respawns;
    };

    fs::remove(journalPath);
    JournalWriter journal;
    journal.open(journalPath);
    const std::uint64_t id = tr.newId();
    const auto t0 = Clock::now();
    SweepSupervisor supervisor(std::move(sup));
    p.results = supervisor.run(
        jobs, [&](std::size_t i, const SweepResult &r) {
            done[i] = Clock::now();
            journal.append(makeJournalEntry(jobs[i].name, r));
            tr.add("journal.append", done[i], Clock::now(), id, i + 1);
        });
    const auto t1 = Clock::now();
    journal.close();

    p.wall = seconds(t0, t1);
    p.workers = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(env.nproc), n));
    for (std::size_t i = 0; i < n; ++i) {
        if (spawned[i] == Clock::time_point{})
            spawned[i] = t0;
        p.latency.push_back(seconds(t0, done[i]));
        p.span.push_back(seconds(spawned[i], done[i]));
        tr.add("supervisor.queue_wait", t0, spawned[i], id, i + 1);
        tr.add("supervisor.job", spawned[i], done[i], id, i + 1);
    }
    tr.record(id, "supervisor.run", t0, t1, 0, 0);
    p.journalLines = readJournal(journalPath).size();
    return p;
}

// ---------------------------------------------------------------------
// Layer: cawad and its socket protocol.
// ---------------------------------------------------------------------

/** A cawad child on a fresh state directory; stopped when destroyed. */
class DaemonProcess
{
  public:
    DaemonProcess(const Env &env, const std::string &tag)
        : socket_(env.workDir + "/" + tag + ".sock"),
          stateDir_(env.workDir + "/" + tag + ".state")
    {
        fs::remove_all(stateDir_);
        fs::remove(socket_);
        const std::vector<std::string> args = {
            env.cawadBin, "--socket", socket_, "--state-dir", stateDir_,
            "--workers", std::to_string(env.nproc), "--client-quota", "0",
            "--quiet"};
        std::vector<char *> argv;
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);

        const auto t0 = Clock::now();
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed for cawad");
        if (pid_ == 0) {
            const int devnull = open("/dev/null", O_RDWR);
            dup2(devnull, STDIN_FILENO);
            dup2(devnull, STDOUT_FILENO);
            execv(argv[0], argv.data());
            _exit(127);
        }
        for (;;) {
            try {
                close(connectUnixSocket(socket_));
                break;
            } catch (const SimError &) {
            }
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("cawad exited during start-up");
            }
            if (seconds(t0, Clock::now()) > 30.0) {
                stop();
                throw std::runtime_error("cawad socket not ready in 30 s");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ready_ = seconds(t0, Clock::now());
    }

    ~DaemonProcess() { stop(); }
    DaemonProcess(const DaemonProcess &) = delete;
    DaemonProcess &operator=(const DaemonProcess &) = delete;

    const std::string &socket() const { return socket_; }
    double readySeconds() const { return ready_; }

    /** SIGTERM (graceful), SIGKILL after 10 s; always reaps. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        const auto t0 = Clock::now();
        int status = 0;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (seconds(t0, Clock::now()) > 10.0) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
    }

  private:
    std::string socket_;
    std::string stateDir_;
    pid_t pid_ = -1;
    double ready_ = 0.0;
};

/** One submit -> result exchange, as the client saw it. */
struct Reply
{
    bool ok = false; ///< verified, no error
    bool cached = false;
    std::string error;
    std::size_t bytes = 0; ///< result frame payload
    std::string report;    ///< the worker's report bytes, verbatim
    Clock::time_point start, connected, sent, spawned, done;

    double latency() const { return seconds(sent, done); }
};

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.compare(0, std::strlen(prefix), prefix) == 0;
}

/**
 * Split a result envelope without parsing the report: the envelope
 * and frame fields are small JSON, and the report is spliced in
 * verbatim (sim/service/protocol.hh), so its bytes are the worker's.
 */
void
parseResultEnvelope(const std::string &payload, Reply &r)
{
    const std::size_t at = payload.find(",\"result\":");
    if (at == std::string::npos || payload.back() != '}')
        throw std::runtime_error("malformed result envelope");
    r.cached = parseJson(payload.substr(0, at) + "}").at("cached").asBool();
    const std::string frame =
        payload.substr(at + 10, payload.size() - at - 11);
    const std::size_t rp = frame.find(",\"report\":");
    if (rp == std::string::npos || frame.back() != '}')
        throw std::runtime_error("malformed result frame");
    const JsonValue fields = parseJson(frame.substr(0, rp) + "}");
    r.error = fields.at("error").asString();
    const bool verified = fields.at("verified").asBool();
    if (!verified && r.error.empty())
        r.error = "failed Workload::verify";
    r.ok = verified && r.error.empty();
    r.report = frame.substr(rp + 10, frame.size() - rp - 11);
}

Reply
submitJob(const std::string &socket, const WorkloadJobSpec &spec,
          const std::string &client)
{
    Reply r;
    r.start = Clock::now();
    int fd = -1;
    try {
        fd = connectUnixSocket(socket);
    } catch (const SimError &e) {
        r.error = e.what();
        return r;
    }
    r.connected = Clock::now();
    const std::string frame =
        "{\"type\":\"submit\",\"spec\":" + serviceSpecJson(spec) +
        ",\"priority\":0,\"client\":" + frameJsonQuote(client) + "}";
    if (!writeFrame(fd, frame)) {
        close(fd);
        r.error = "daemon closed the connection";
        return r;
    }
    r.sent = r.spawned = Clock::now();
    bool spawnSeen = false;
    std::string payload;
    try {
        while (readFrameBlocking(fd, payload)) {
            const auto at = Clock::now();
            if (startsWith(payload, "{\"type\":\"queued\""))
                continue;
            if (startsWith(payload, "{\"type\":\"progress\"")) {
                if (!spawnSeen && payload.find("\"event\":\"spawn\"") !=
                                      std::string::npos) {
                    r.spawned = at;
                    spawnSeen = true;
                }
                continue;
            }
            if (!startsWith(payload, "{\"type\":\"result\"")) {
                r.error = "unexpected frame: " + payload.substr(0, 200);
                break;
            }
            r.done = at;
            r.bytes = payload.size();
            parseResultEnvelope(payload, r);
            break;
        }
    } catch (const std::exception &e) {
        r.ok = false;
        r.error = e.what();
    }
    close(fd);
    if (r.done == Clock::time_point{} && r.error.empty())
        r.error = "connection closed before a result arrived";
    return r;
}

void
recordReply(Tracer &tr, const Reply &r, std::uint64_t job)
{
    if (!tr.enabled() || r.done == Clock::time_point{})
        return;
    const std::uint64_t id = tr.newId();
    tr.add("service.connect", r.start, r.connected, id, job);
    if (r.cached) {
        tr.add("service.cached_reply", r.sent, r.done, id, job);
    } else {
        tr.add("service.queued", r.sent, r.spawned, id, job);
        tr.add("service.run", r.spawned, r.done, id, job);
    }
    tr.record(id, "service.request", r.start, r.done, 0, job);
}

// ---------------------------------------------------------------------
// Layer: report JSON (toJson / reportFromJson).
// ---------------------------------------------------------------------

/** One stored report parsed back and re-serialized, timed. */
struct Replayed
{
    SimReport report;
    bool identical = false; ///< the round trip gave the same bytes
};

Replayed
replayOne(const std::string &bytes, Tracer &tr)
{
    Replayed r;
    const std::uint64_t id = tr.newId();
    const auto t0 = Clock::now();
    bool parsedOk = true;
    try {
        r.report = reportFromJson(bytes);
    } catch (const std::exception &) {
        parsedOk = false;
    }
    const auto t1 = Clock::now();
    const std::string again =
        parsedOk ? toJson(r.report, fullJson()) : std::string();
    const auto t2 = Clock::now();
    r.identical = parsedOk && again == bytes;
    tr.add("report_json.parse", t0, t1, id, 0);
    tr.add("report_json.serialize", t1, t2, id, 0);
    tr.record(id, "replay", t0, t2, 0, 0);
    return r;
}

/** Model counters summed over a run's fixed job set. */
struct ModelTotals
{
    double jobs = 0.0, issues = 0.0, cplUpdates = 0.0, insts = 0.0;
    double memStall = 0.0, schedWait = 0.0, disparity = 0.0, cplAcc = 0.0;
    double critHits = 0.0, critAcc = 0.0, l1Hits = 0.0, l1Acc = 0.0;
    double l1Misses = 0.0, mshrRejects = 0.0, l2Hits = 0.0, l2Acc = 0.0;
    double dram = 0.0, icnt = 0.0;

    void
    add(const SimReport &r)
    {
        jobs += 1.0;
        for (const StatEntry &e : r.stats.entries())
            if (e.name.rfind("sched.", 0) == 0 && e.name.size() > 7 &&
                e.name.compare(e.name.size() - 7, 7, ".issues") == 0)
                issues += static_cast<double>(e.value);
        cplUpdates += static_cast<double>(
            r.stats.counterOr("cpl.issueUpdates") +
            r.stats.counterOr("cpl.branchUpdates") +
            r.stats.counterOr("cpl.barrierReleases"));
        insts += static_cast<double>(r.instructions);
        memStall += r.memStallFraction();
        schedWait += r.schedWaitFraction();
        disparity += r.avgDisparity();
        cplAcc += r.cplAccuracy();
        critHits += static_cast<double>(r.l1.criticalHits);
        critAcc += static_cast<double>(r.l1.criticalAccesses);
        l1Hits += static_cast<double>(r.l1.hits);
        l1Acc += static_cast<double>(r.l1.accesses);
        l1Misses += static_cast<double>(r.l1.misses);
        mshrRejects += static_cast<double>(r.l1.mshrRejects);
        l2Hits += static_cast<double>(r.l2.hits);
        l2Acc += static_cast<double>(r.l2.accesses);
        dram += static_cast<double>(r.dramReads + r.dramWrites);
        icnt += static_cast<double>(r.icntMessages);
    }
};

/** The pinned counters and model totals of a run's fixed job set. */
struct ReplaySummary
{
    PinnedMap pinned;
    ModelTotals model;
};

/**
 * Parse every report of the fixed job set back and re-serialize it;
 * the round trip must be byte-identical.
 */
ReplaySummary
replayReports(const std::map<std::string, std::string> &reports,
              Tracer &tr, Outcome &out)
{
    ReplaySummary sum;
    for (const auto &[name, bytes] : reports) {
        const Replayed r = replayOne(bytes, tr);
        out.check(r.identical,
                  name + ": report does not replay byte-identically");
        out.check(r.report.exitStatus == ExitStatus::Completed,
                  name + ": run did not complete");
        sum.pinned.emplace(name, pinnedCounters(r.report));
        sum.model.add(r.report);
    }
    return sum;
}

// ---------------------------------------------------------------------
// Measuring windows.
// ---------------------------------------------------------------------

/** One pass over a job set (service-mixed: the whole window). */
struct Pass
{
    double wall = 0.0;   ///< host seconds of the pass
    std::size_t ops = 0; ///< jobs or requests completed
    std::vector<std::string> simulated; ///< jobs simulated, by name
};

struct Window
{
    std::vector<Pass> passes;
    Latencies latency;
    Latencies cold, cached; ///< service-mixed only; reported in meta
    /// the fixed job set's reports: job -> bytes
    std::map<std::string, std::string> reports;
    PinnedMap pinned; ///< every job simulated (service: by the client)
    std::vector<IsolatedPass> isolated; ///< sweep-isolated: its passes
    std::size_t requests = 0, cachedReplies = 0;
    double resultBytes = 0.0;

    /** Fold @p o in; one job's report must be the same in both. */
    void
    merge(Window &&o, Outcome &out)
    {
        for (Pass &p : o.passes)
            passes.push_back(std::move(p));
        latency.append(std::move(o.latency));
        cold.append(std::move(o.cold));
        cached.append(std::move(o.cached));
        for (auto &[name, bytes] : o.reports) {
            const auto [it, fresh] = reports.emplace(name, bytes);
            if (!fresh)
                out.check(it->second == bytes,
                          name + ": report bytes differ between windows");
        }
        pinned.merge(o.pinned);
        for (IsolatedPass &ip : o.isolated)
            isolated.push_back(std::move(ip));
        requests += o.requests;
        cachedReplies += o.cachedReplies;
        resultBytes += o.resultBytes;
    }
};

/** sweep-isolated: whole supervisor passes over the short jobs. */
Window
sweepWindow(const std::vector<WorkloadJobSpec> &specs, const RefMap &ref,
            const Env &env, double secs, Tracer &tr, Outcome &out)
{
    Window w;
    const auto start = Clock::now();
    int k = 0;
    do {
        IsolatedPass ip = runIsolatedPass(
            specs, env,
            env.workDir + "/journal-" + std::to_string(k++) + ".jsonl", tr);
        Pass p;
        p.wall = ip.wall;
        p.ops = specs.size();
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::string &name = ip.names[i];
            const SweepResult &r = ip.results[i];
            out.check(r.ok(), name + ": isolated job failed: " +
                                  (r.error.empty() ? "not verified"
                                                   : r.error));
            const std::string bytes = toJson(r.report, fullJson());
            checkBytes(out, name, bytes, ref, "isolated");
            w.reports.emplace(name, bytes);
            p.simulated.push_back(name);
            w.latency.add(w.passes.size(), ip.latency[i]);
        }
        out.check(ip.journalLines == specs.size(),
                  "journal holds " + std::to_string(ip.journalLines) +
                      " lines for " + std::to_string(specs.size()) +
                      " jobs");
        ip.results.clear();
        w.passes.push_back(std::move(p));
        w.isolated.push_back(std::move(ip));
    } while (seconds(start, Clock::now()) < secs);
    return w;
}

/**
 * service-mixed's closed-loop clients: one per CPU, so that cawad's
 * workers keep every CPU busy. With one per two CPUs, throughput and
 * latency spread about twice as much from run to run.
 */
std::size_t
serviceClients(const Env &env)
{
    return static_cast<std::size_t>(env.nproc);
}

/** Check one cawad reply and count it into @p w and @p p. */
void
tallyReply(Window &w, Pass &p, Outcome &out, const std::string &name,
           const Reply &r, bool wantCached, std::size_t slice)
{
    out.check(r.ok, name + ": cawad request failed: " + r.error);
    out.check(r.cached == wantCached,
              name + (wantCached ? ": repeated key not served from cache"
                                 : ": fresh key served from cache"));
    ++p.ops;
    ++w.requests;
    w.resultBytes += static_cast<double>(r.bytes);
    w.latency.add(slice, r.latency());
    if (r.cached) {
        w.cached.add(slice, r.latency());
        ++w.cachedReplies;
    } else {
        w.cold.add(slice, r.latency());
        p.simulated.push_back(name);
    }
}

/**
 * service-mixed: closed-loop clients, one per CPU, each waiting
 * for its reply. About 3 in 8 requests repeat one of the client's own
 * earlier (completed) keys, so they must be cache hits. A client reads
 * each fresh report as it arrives (replayOne, outside the latency
 * sample) and keeps only its counters, a hash to compare the repeats
 * with, and the full bytes of the sampled keys (serviceSampled); so
 * the benchmark's memory does not grow with the number of requests.
 */
Window
serviceWindow(const DaemonProcess &daemon, const Env &env,
              std::uint64_t seed, double secs, Tracer &tr, Outcome &out)
{
    struct Sample
    {
        std::string name;
        bool repeat = false;
        bool identical = true;
        Reply reply;
    };
    struct Fresh
    {
        std::string name;
        std::size_t hash = 0;
        bool replayed = false; ///< the round trip gave the same bytes
        bool completed = false;
        Counters pinned;
    };
    const std::size_t clients = serviceClients(env);
    const std::size_t perClient = sampledPerClient(clients);
    std::vector<std::vector<Sample>> samples(clients);
    std::vector<std::vector<WorkloadJobSpec>> keys(clients);
    std::vector<std::vector<Fresh>> fresh(clients);
    Window w;
    std::mutex mu; // guards w.reports

    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(secs));
    parallelFor(clients, env.nproc, [&](std::size_t c) {
        std::mt19937_64 rng(seed * 1'000'003 + c);
        std::vector<WorkloadJobSpec> &mine = keys[c];
        while (Clock::now() < deadline) {
            Sample s;
            s.repeat = !mine.empty() && rng() % 8 < kRepeatEighths;
            std::size_t idx = 0;
            if (s.repeat) {
                idx = rng() % mine.size();
            } else {
                mine.push_back(serviceKey(seed, c, mine.size()));
                idx = mine.size() - 1;
            }
            s.name = workloadJobName(mine[idx]);
            s.reply = submitJob(daemon.socket(), mine[idx],
                                "perfbench-" + std::to_string(c));
            const std::size_t hash = std::hash<std::string>{}(s.reply.report);
            if (s.repeat) {
                s.identical = hash == fresh[c][idx].hash;
            } else {
                const Replayed r = replayOne(s.reply.report, tr);
                fresh[c].push_back({s.name, hash, r.identical,
                                    r.report.exitStatus ==
                                        ExitStatus::Completed,
                                    pinnedCounters(r.report)});
                if (idx < perClient) {
                    std::lock_guard<std::mutex> lock(mu);
                    w.reports.emplace(s.name, s.reply.report);
                }
            }
            std::string().swap(s.reply.report); // free, not just clear
            samples[c].push_back(std::move(s));
        }
    });
    const auto end = Clock::now();

    Pass p;
    p.wall = seconds(start, end);
    const auto lastSlice =
        static_cast<std::size_t>(std::max(1.0, secs / kSliceSeconds)) - 1;
    auto sliceOf = [&](const Reply &r) {
        const double t = std::max(0.0, seconds(start, r.done));
        return std::min(static_cast<std::size_t>(t / kSliceSeconds),
                        lastSlice);
    };
    std::uint64_t job = 0;
    for (std::size_t c = 0; c < clients; ++c) {
        for (std::size_t i = 0; i < keys[c].size(); ++i) {
            Fresh &f = fresh[c][i];
            out.check(f.replayed,
                      f.name + ": report does not replay byte-identically");
            out.check(f.completed, f.name + ": run did not complete");
            w.pinned.emplace(f.name, std::move(f.pinned));
        }
        for (const Sample &s : samples[c]) {
            tallyReply(w, p, out, s.name, s.reply, s.repeat,
                       sliceOf(s.reply));
            out.check(s.identical,
                      s.name + ": cached reply bytes differ from cold");
            recordReply(tr, s.reply, ++job);
        }
    }
    w.passes.push_back(std::move(p));
    return w;
}

/** Service warm-up: one fresh key and its repeat per client. */
void
serviceWarmup(const DaemonProcess &daemon, const Env &env,
              std::uint64_t seed, Outcome &out)
{
    const std::size_t clients = serviceClients(env);
    std::vector<std::vector<std::pair<std::string, Reply>>> got(clients);
    parallelFor(clients, env.nproc, [&](std::size_t c) {
        const WorkloadJobSpec spec =
            serviceKey(seed, kWarmupClientBase + c, 0);
        for (int k = 0; k < 2; ++k)
            got[c].emplace_back(workloadJobName(spec),
                                submitJob(daemon.socket(), spec,
                                          "perfbench-warmup"));
    });
    for (const auto &replies : got)
        for (const auto &[name, r] : replies)
            out.check(r.ok, name + ": warm-up request failed: " + r.error);
}

/** Every spec once cold, then once from the cache, on a fresh cawad. */
Window
daemonSpecs(const std::vector<WorkloadJobSpec> &specs, const Env &env,
            Tracer &tr, Outcome &out, const RefMap &ref)
{
    DaemonProcess daemon(env, "paths");
    Window w;
    std::uint64_t job = 0;
    for (const bool cachedRound : {false, true}) {
        std::vector<Reply> replies(specs.size());
        const auto t0 = Clock::now();
        parallelFor(specs.size(), env.nproc, [&](std::size_t i) {
            replies[i] = submitJob(daemon.socket(), specs[i], "perfbench");
        });
        Pass p;
        p.wall = seconds(t0, Clock::now());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::string name = workloadJobName(specs[i]);
            tallyReply(w, p, out, name, replies[i], cachedRound, 0);
            checkBytes(out, name, replies[i].report, ref, "cawad");
            recordReply(tr, replies[i], ++job);
        }
        w.passes.push_back(std::move(p));
    }
    return w;
}

/**
 * The table's key for a run: its workload and seed, and for
 * service-mixed the client count, which decides the sampled keys.
 */
std::string
expectedTag(const std::string &workload, std::uint64_t seed,
            const Env &env)
{
    std::string tag = workload + " seed " + std::to_string(seed);
    if (workload == "service-mixed")
        tag += " clients " + std::to_string(serviceClients(env));
    return tag;
}

/**
 * Pinned-counter check: every job the table lists under @p tag must
 * have been run and match. A tag the table lacks (a seed it does not
 * cover) checks nothing. Returns the entries compared.
 */
std::size_t
checkExpected(const PinnedMap &pinned, const ExpectedTable &table,
              const std::string &tag, Outcome &out)
{
    const auto group = table.find(tag);
    if (group == table.end())
        return 0;
    for (const auto &[name, want] : group->second) {
        const auto it = pinned.find(name);
        if (it == pinned.end()) {
            out.check(false, name + ": listed in expected.json under '" +
                                 tag + "' but not run");
            continue;
        }
        std::string diff;
        for (const std::string &c : counterMismatches(want, it->second))
            diff += " " + c;
        out.check(diff.empty(),
                  name + ": counters differ from expected.json:" + diff);
    }
    return group->second.size();
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

/** @p fixed: the fixed job set's counters, over which ipc is taken. */
void
endToEndMetrics(Outcome &out, const Window &w, const PinnedMap &fixed,
                double setup)
{
    auto simulated = [&w](const std::string &name, const char *c) {
        const auto it = w.pinned.find(name);
        return it == w.pinned.end()
                   ? 0.0
                   : static_cast<double>(it->second.at(c));
    };
    std::vector<double> cps, ips, jps;
    for (const Pass &p : w.passes) {
        double cycles = 0.0, insts = 0.0;
        for (const std::string &name : p.simulated) {
            cycles += simulated(name, "sim.cycles");
            insts += simulated(name, "sim.instructions");
        }
        cps.push_back(cycles / p.wall);
        ips.push_back(insts / p.wall);
        jps.push_back(static_cast<double>(p.ops) / p.wall);
    }
    double cycles = 0.0, insts = 0.0;
    for (const auto &[name, counters] : fixed) {
        cycles += static_cast<double>(counters.at("sim.cycles"));
        insts += static_cast<double>(counters.at("sim.instructions"));
    }
    out.metric("setup_s", setup, "s");
    out.metric("sim_cycles_per_s", median(cps), "1/s");
    out.metric("sim_insts_per_s", median(ips), "1/s");
    out.metric("ipc", cycles > 0.0 ? insts / cycles : 0.0, "inst/cycle");
    out.metric("jobs_per_s", median(jps), "1/s");
    out.metric("latency_p50_s", w.latency.sliced(0.5), "s");
    out.metric("latency_p90_s", w.latency.sliced(0.9), "s");
    out.metric("peak_rss_mb", peakRssMb(), "MB");
}

/** Model counters of the fixed job set (sched/sm/cawa/mem). */
void
modelMetrics(Outcome &out, const ModelTotals &m)
{
    const double n = std::max(1.0, m.jobs);
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    out.metric("sched.issues", m.issues, "count");
    out.metric("sm.mem_stall_frac", m.memStall / n, "frac");
    out.metric("sm.sched_wait_frac", m.schedWait / n, "frac");
    out.metric("sm.avg_disparity", m.disparity / n, "ratio");
    out.metric("cawa.cpl_updates", m.cplUpdates, "count");
    out.metric("cawa.cpl_accuracy", m.cplAcc / n, "frac");
    out.metric("cawa.critical_hit_rate", ratio(m.critHits, m.critAcc),
               "frac");
    out.metric("mem.l1_hit_rate", ratio(m.l1Hits, m.l1Acc), "frac");
    out.metric("mem.l1_mpki", 1000.0 * ratio(m.l1Misses, m.insts),
               "1/kinst");
    out.metric("mem.l1_mshr_rejects", m.mshrRejects, "count");
    out.metric("mem.l2_hit_rate", ratio(m.l2Hits, m.l2Acc), "frac");
    out.metric("mem.dram_accesses", m.dram, "count");
    out.metric("mem.icnt_messages", m.icnt, "count");
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Sample count, pooled median and the tail percentile with >= 10
 * samples beyond it.
 */
std::string
tailJson(const std::vector<double> &samples)
{
    const double p = tailPercentile(samples.size());
    return "{\"n\": " + std::to_string(samples.size()) + ", \"p50_s\": " +
           jsonNumber(median(samples)) + ", \"tail_pct\": " +
           jsonNumber(p) + ", \"tail_s\": " +
           jsonNumber(p > 0.0 ? quantile(samples, p / 100.0) : 0.0) + "}";
}

// ---------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------

/**
 * --trace 1: run the workload's job list through every layer it did
 * not already cross, with spans, and print the per-layer metrics.
 */
void
perLayerMetrics(Outcome &out, Tracer &on, const Env &env,
                const std::string &workload,
                const std::vector<WorkloadJobSpec> &specs,
                const RefMap &ref, const std::vector<LayeredRun> &ffRuns,
                Window &w, const ModelTotals &model,
                double overhead)
{
    Tracer off(false);
    const bool service = workload == "service-mixed";

    // Fast-forward off: the same bytes, and the ff speedup.
    std::map<std::string, std::pair<double, int>> ffGpu, inproc;
    double stepSum = 0.0, cycleSum = 0.0;
    for (const LayeredRun &r : ffRuns) {
        ffGpu[r.name].first += r.gpu();
        ++ffGpu[r.name].second;
        inproc[r.name].first += r.total;
        ++inproc[r.name].second;
        stepSum += r.step;
        cycleSum += static_cast<double>(r.report.cycles);
    }
    double flatSum = 0.0, ffSum = 0.0;
    for (const LayeredRun &r :
         runLayeredAll(specs, env.nproc, false, off)) {
        checkLayered(out, r);
        checkBytes(out, r.name, r.json, ref, "flat (no fast-forward)");
        const auto &[sum, n] = ffGpu[r.name];
        if (n) {
            flatSum += r.gpu();
            ffSum += sum / n;
        }
    }

    SweepEngine engine(env.nproc);
    const auto e0 = Clock::now();
    const std::vector<SweepResult> engineResults =
        engine.run(makeWorkloadJobs(specs));
    const auto e1 = Clock::now();
    on.add("sweep.engine", e0, e1, 0, 0);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string name = workloadJobName(specs[i]);
        out.check(engineResults[i].ok(), name + ": SweepEngine job failed");
        checkBytes(out, name, toJson(engineResults[i].report, fullJson()),
                   ref, "SweepEngine");
    }

    std::vector<IsolatedPass> isolated = std::move(w.isolated);
    if (service) {
        IsolatedPass ip = runIsolatedPass(
            specs, env, env.workDir + "/journal-paths.jsonl", on);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            out.check(ip.results[i].ok(),
                      ip.names[i] + ": isolated job failed");
            checkBytes(out, ip.names[i],
                       toJson(ip.results[i].report, fullJson()), ref,
                       "isolated");
        }
        isolated.push_back(std::move(ip));
    }
    double spanSum = 0.0, capacity = 0.0, overheadSum = 0.0;
    std::size_t spans = 0, lines = 0;
    int respawns = 0;
    for (const IsolatedPass &ip : isolated) {
        for (std::size_t i = 0; i < ip.span.size(); ++i) {
            spanSum += ip.span[i];
            const auto &[sum, n] = inproc[ip.names[i]];
            overheadSum += ip.span[i] - (n ? sum / n : 0.0);
            ++spans;
        }
        capacity += ip.workers * ip.wall;
        respawns += ip.respawns;
        lines += ip.journalLines;
    }

    Window daemonWindow;
    if (!service)
        daemonWindow = daemonSpecs(specs, env, on, out, ref);
    const Window &svc = service ? w : daemonWindow;

    double reportBytes = 0.0;
    for (const auto &[name, bytes] : w.reports)
        reportBytes += static_cast<double>(bytes.size());
    auto perRequest = [&svc](double x) {
        return svc.requests ? x / static_cast<double>(svc.requests) : 0.0;
    };

    out.metric("workloads.build_s", on.mean("workloads.build"), "s");
    out.metric("workloads.verify_s", on.mean("workloads.verify"), "s");
    out.metric("gpu.launch_s", on.mean("gpu.launch"), "s");
    out.metric("gpu.step_s", on.mean("gpu.step"), "s");
    out.metric("gpu.finish_s", on.mean("gpu.finish"), "s");
    out.metric("gpu.host_ns_per_cycle",
               cycleSum > 0.0 ? 1e9 * stepSum / cycleSum : 0.0, "ns");
    out.metric("gpu.ff_speedup", ffSum > 0.0 ? flatSum / ffSum : 0.0, "x");
    modelMetrics(out, model);
    out.metric("report_json.serialize_s", on.mean("report_json.serialize"),
               "s");
    out.metric("report_json.parse_s", on.mean("report_json.parse"), "s");
    out.metric("report_json.bytes",
               reportBytes / std::max<double>(
                                 1.0, static_cast<double>(w.reports.size())),
               "bytes");
    out.metric("sweep.inproc_jobs_per_s",
               static_cast<double>(specs.size()) / seconds(e0, e1), "1/s");
    out.metric("supervisor.queue_wait_s", on.mean("supervisor.queue_wait"),
               "s");
    out.metric("supervisor.job_span_s", on.mean("supervisor.job"), "s");
    out.metric("supervisor.overhead_s",
               spans ? overheadSum / static_cast<double>(spans) : 0.0, "s");
    out.metric("supervisor.worker_util",
               capacity > 0.0 ? spanSum / capacity : 0.0, "frac");
    out.metric("supervisor.respawns", respawns, "count");
    out.metric("journal.append_s", on.mean("journal.append"), "s");
    out.metric("journal.lines", static_cast<double>(lines), "count");
    out.metric("service.connect_s", on.mean("service.connect"), "s");
    out.metric("service.queued_s", on.mean("service.queued"), "s");
    out.metric("service.run_s", on.mean("service.run"), "s");
    out.metric("service.cached_reply_s", on.mean("service.cached_reply"),
               "s");
    out.metric("service.cache_hit_rate",
               perRequest(static_cast<double>(svc.cachedReplies)), "frac");
    out.metric("service.result_bytes", perRequest(svc.resultBytes),
               "bytes");
    out.metric("bench.trace_overhead_frac", overhead, "frac");

    std::fprintf(stderr, "perfbench: self time per span (s)\n");
    for (const auto &[name, sec] : on.selfTimes())
        std::fprintf(stderr, "  %-24s %12.6f\n", name.c_str(), sec);
    const std::string path = env.workDir + "/spans-" + workload + ".json";
    std::ofstream(path) << on.chromeJson(workload);
    std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
}

int
runBenchmark(const Options &opt, const Env &env)
{
    Outcome out;
    Tracer off(false);
    Tracer on(true);
    Tracer &traced = opt.trace ? on : off;
    const bool service = opt.workload == "service-mixed";
    const ExpectedTable table = loadExpected(opt.expectedPath);
    const std::string tag = expectedTag(opt.workload, opt.seed, env);
    // The fixed job set: all of sweep-isolated's jobs, or service-mixed's
    // sampled keys.
    std::vector<WorkloadJobSpec> specs =
        service ? serviceSampled(opt.seed, serviceClients(env))
                : sweepSpecs(opt.seed);

    // Set-up, timed kSetups times for a median: every job's input build,
    // or for service-mixed a fresh daemon until its socket accepts plus
    // its warm-up requests. sweep-isolated then adds one warm-up pass,
    // too long to repeat, that the measured window excludes.
    RefMap ref;
    std::vector<LayeredRun> refRuns;
    std::unique_ptr<DaemonProcess> daemon;
    auto startService = [&] {
        daemon.reset();
        daemon = std::make_unique<DaemonProcess>(env, "svc");
        serviceWarmup(*daemon, env, opt.seed, out);
    };
    std::vector<double> builds;
    for (int k = 0; k < kSetups; ++k) {
        const auto t0 = Clock::now();
        if (!service) {
            for (const WorkloadJobSpec &spec : specs) {
                MemoryImage mem;
                makeWorkload(spec.workload)->build(mem, spec.params);
            }
        } else {
            startService();
        }
        builds.push_back(seconds(t0, Clock::now()));
    }
    const auto warm0 = Clock::now();
    if (!service) {
        const IsolatedPass warm = runIsolatedPass(
            specs, env, env.workDir + "/journal-warmup.jsonl", off);
        for (std::size_t i = 0; i < specs.size(); ++i)
            out.check(warm.results[i].ok(),
                      warm.names[i] + ": warm-up job failed");
    }
    const double setup = median(builds) + seconds(warm0, Clock::now());

    if (!service) {
        refRuns = runLayeredAll(specs, env.nproc, true, traced);
        ref = referenceOf(refRuns, out);
    }

    auto window = [&](double secs, Tracer &tr) {
        if (service)
            return serviceWindow(*daemon, env, opt.seed, secs, tr, out);
        return sweepWindow(specs, ref, env, secs, tr, out);
    };
    Window w;
    double overhead = 0.0;
    if (!opt.trace) {
        w = window(opt.seconds, off);
    } else {
        // Quarters untraced, traced, traced, untraced, so that drift
        // over the run falls on both sides alike; on service-mixed each
        // quarter gets a fresh, warmed-up daemon (and repeats the keys).
        double ops[2] = {0.0, 0.0}, wall[2] = {0.0, 0.0};
        for (int q = 0; q < 4; ++q) {
            const bool tracing = q == 1 || q == 2;
            if (service && q > 0)
                startService();
            Window part = window(opt.seconds / 4.0, tracing ? on : off);
            for (const Pass &p : part.passes) {
                ops[tracing] += static_cast<double>(p.ops);
                wall[tracing] += p.wall;
            }
            w.merge(std::move(part), out);
        }
        overhead = (ops[0] / wall[0]) / (ops[1] / wall[1]) - 1.0;
    }
    daemon.reset();

    if (service) {
        // A key the window never reached (on a very slow host) has no
        // report to compare.
        std::erase_if(specs, [&w](const WorkloadJobSpec &s) {
            return !w.reports.count(workloadJobName(s));
        });
        refRuns = runLayeredAll(specs, env.nproc, true, traced);
        ref = referenceOf(refRuns, out);
        for (const auto &[name, bytes] : w.reports)
            checkBytes(out, name, bytes, ref, "cawad");
    }

    const ReplaySummary fixed = replayReports(w.reports, traced, out);
    w.pinned.insert(fixed.pinned.begin(), fixed.pinned.end());
    const std::size_t expectedChecked =
        checkExpected(fixed.pinned, table, tag, out);
    if (opt.regenExpected) {
        ExpectedTable updated = table;
        updated[tag] = fixed.pinned;
        saveExpected(opt.expectedPath, updated);
        std::fprintf(stderr, "perfbench: wrote %s ('%s')\n",
                     opt.expectedPath.c_str(), tag.c_str());
    }

    std::printf(
        "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
        "\"trace\": %d, \"nproc\": %d, \"build_type\": %s, "
        "\"compiler\": %s, \"git_commit\": %s, \"passes\": %zu, "
        "\"expected_tag\": %s, \"expected_checked\": %zu, "
        "\"latency\": %s, \"cold_latency\": %s, \"cached_latency\": %s}}\n",
        frameJsonQuote(opt.workload).c_str(),
        static_cast<unsigned long long>(opt.seed),
        jsonNumber(opt.seconds).c_str(), opt.trace ? 1 : 0, env.nproc,
        frameJsonQuote(PERFBENCH_BUILD_TYPE).c_str(),
        frameJsonQuote(__VERSION__).c_str(),
        frameJsonQuote(opt.commit).c_str(), w.passes.size(),
        frameJsonQuote(tag).c_str(), expectedChecked,
        tailJson(w.latency.all).c_str(), tailJson(w.cold.all).c_str(),
        tailJson(w.cached.all).c_str());

    if (!opt.trace)
        endToEndMetrics(out, w, fixed.pinned, setup);
    else
        perLayerMetrics(out, on, env, opt.workload, specs, ref, refRuns,
                        w, fixed.model, overhead);

    std::string line = "{\"correct\": ";
    line += out.failed ? "false" : "true";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const auto &[name, value, unit] = out.metrics[i];
        line += (i ? ", " : "") + frameJsonQuote(name) +
                ": {\"value\": " + jsonNumber(value) +
                ", \"unit\": " + frameJsonQuote(unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return out.failed ? 1 : 0;
}

/**
 * The benchmark's own checks: the percentile rule, and that one
 * corrupted expected.json entry is reported as a mismatch.
 */
int
selfTest(const Options &opt)
{
    int bad = 0;
    auto expect = [&bad](bool ok, const char *what) {
        std::fprintf(stderr, "self-test %s: %s\n", ok ? "ok" : "FAILED",
                     what);
        bad += ok ? 0 : 1;
    };
    expect(tailPercentile(19) == 0.0,
           "19 samples: no percentile has 10 beyond it");
    expect(tailPercentile(20) == 50.0, "20 samples: p50");
    expect(tailPercentile(99) == 50.0, "99 samples: p50");
    expect(tailPercentile(100) == 90.0, "100 samples: p90");
    expect(tailPercentile(999) == 90.0, "999 samples: p90");
    expect(tailPercentile(1000) == 99.0, "1000 samples: p99");
    expect(tailPercentile(10000) == 99.9, "10000 samples: p99.9");
    std::vector<double> v;
    for (int i = 1; i <= 101; ++i)
        v.push_back(i);
    expect(quantile(v, 0.5) == 51.0 && quantile(v, 0.9) == 91.0,
           "quantiles of 1..101");

    bool missingRefused = false;
    try {
        loadExpected(opt.expectedPath + ".missing");
    } catch (const std::runtime_error &) {
        missingRefused = true;
    }
    expect(missingRefused, "a missing table is refused");

    const ExpectedTable table = loadExpected(opt.expectedPath);
    expect(!table.empty() && !table.begin()->second.empty(),
           "expected.json has entries");
    if (!table.empty() && !table.begin()->second.empty()) {
        const auto &[tag, jobs] = *table.begin();
        auto failures = [&table](const PinnedMap &ran, const std::string &t) {
            Outcome o;
            checkExpected(ran, table, t, o);
            return o.failed;
        };
        PinnedMap corrupted = jobs;
        corrupted.begin()->second["sim.cycles"] += 1;
        PinnedMap missing = jobs;
        missing.erase(missing.begin());
        expect(failures(jobs, tag) == 0, "an intact run matches");
        expect(failures(corrupted, tag) == 1, "a corrupted entry is caught");
        expect(failures(missing, tag) == 1,
               "a listed job the run lacks is caught");
        expect(failures(jobs, "uncovered seed") == 0,
               "a seed the table does not cover checks nothing");
    }
    return bad ? 1 : 0;
}

[[noreturn]] void
usage(int status)
{
    std::fprintf(
        status ? stderr : stdout,
        "usage: cawa_perfbench --workload NAME --seed N --seconds S\n"
        "         --trace 0|1 --work-dir DIR --sweep-bin PATH\n"
        "         --cawad-bin PATH [--expected FILE] [--regen-expected]\n"
        "         [--commit ID]\n"
        "       cawa_perfbench --self-test [--expected FILE]\n"
        "workloads: sweep-isolated service-mixed\n");
    std::exit(status);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    auto next = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "cawa_perfbench: %s needs a value\n",
                         argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };
    auto number = [](const std::string &text, const char *what) {
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0' || !(v >= 0.0)) {
            std::fprintf(stderr, "cawa_perfbench: bad %s '%s'\n", what,
                         text.c_str());
            std::exit(2);
        }
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload")
            opt.workload = next(i);
        else if (arg == "--seed")
            opt.seed = std::strtoull(next(i).c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = number(next(i), "--seconds");
        else if (arg == "--trace")
            opt.trace = number(next(i), "--trace") != 0.0;
        else if (arg == "--expected")
            opt.expectedPath = next(i);
        else if (arg == "--regen-expected")
            opt.regenExpected = true;
        else if (arg == "--self-test")
            opt.selfTest = true;
        else if (arg == "--work-dir")
            opt.workDir = next(i);
        else if (arg == "--sweep-bin")
            opt.sweepBin = next(i);
        else if (arg == "--cawad-bin")
            opt.cawadBin = next(i);
        else if (arg == "--commit")
            opt.commit = next(i);
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else {
            std::fprintf(stderr, "cawa_perfbench: unknown option '%s'\n",
                         arg.c_str());
            usage(2);
        }
    }
    if (opt.selfTest)
        return opt;
    const std::vector<std::string> known = {"sweep-isolated",
                                            "service-mixed"};
    if (std::find(known.begin(), known.end(), opt.workload) ==
        known.end()) {
        std::fprintf(stderr, "cawa_perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        usage(2);
    }
    if (opt.sweepBin.empty() || opt.cawadBin.empty() ||
        !(opt.seconds > 0.0))
        usage(2);
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    for (const char *name : kGuardedEnv)
        if (std::getenv(name)) {
            std::fprintf(stderr,
                         "cawa_perfbench: %s is set; it changes the "
                         "measured program -- unset it\n",
                         name);
            return 2;
        }
    if (PERFBENCH_SANITIZED || !memoryLimitSupported()) {
        std::fprintf(stderr, "cawa_perfbench: refusing to measure a "
                             "sanitizer build\n");
        return 2;
    }
    const Options opt = parseArgs(argc, argv);
    Env env;
    env.nproc = availableCpus();
    env.workDir = opt.workDir;
    env.sweepBin = opt.sweepBin;
    env.cawadBin = opt.cawadBin;
    try {
        if (opt.selfTest)
            return selfTest(opt);
        fs::remove_all(env.workDir);
        fs::create_directories(env.workDir);
        return runBenchmark(opt, env);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cawa_perfbench: %s\n", e.what());
        return 1;
    }
}
