/**
 * @file
 * The repo benchmark: host speed of the real RiscyOO models, driven
 * through the public System / Kernel / KvHost API.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *
 * One workload is a fixed list of jobs (one fresh System each). A run
 * first sets the workload up kSetupRounds times without running it
 * (the setup_s sample), then repeats whole iterations (every job, set
 * up and run to completion) until the next one would end past S
 * seconds, with at least two. --trace 1 alternates untraced and traced
 * iterations (at least one of each). Every iteration's simulated
 * outputs and exact counts must equal the first untraced one's, and
 * the SPEC/PARSEC exit codes must equal the functional golden model's.
 *
 * Human-readable results go to stdout; the last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}, with the
 * end-to-end metrics under --trace 0 and the per-layer ones under
 * --trace 1. A usage error or a rule that maps to no layer exits 2
 * without that line.
 */
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "cache/l2_banks.hh"
#include "layer_trace.hh"
#include "server/kv.hh"

using namespace riscy;
using perfbench::LayerTimes;
using perfbench::LayerTracer;

namespace {

constexpr uint32_t kSetupRounds = 10;
#ifdef CMD_NO_OBS
// REPRO_DISABLE_OBS build: the kernel never calls an observer.
constexpr bool kObserverHooks = false;
#else
constexpr bool kObserverHooks = true;
#endif
constexpr Addr kKvEntry = kDramBase;

uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/** One fresh System running one program to completion. */
struct Job {
    std::string name;
    SystemConfig cfg;
    uint64_t maxCycles = 400'000'000;
    /// exit code each hart must report (missing harts: 0)
    std::vector<uint64_t> expectedExit;
    /** Load the program into a constructed System; a KV job also
     *  creates and attaches the host-side traffic source in @p kv. */
    std::function<workloads::Image(System &,
                                   std::unique_ptr<server::KvHost> &kv)>
        load;
};

struct Workload {
    std::string name;
    std::vector<Job> jobs;
};

std::vector<Job>
catalogJobs(const std::vector<workloads::Workload> &catalog,
            const std::vector<std::string> &names, const SystemConfig &cfg,
            uint32_t harts)
{
    std::vector<Job> jobs;
    for (const std::string &n : names) {
        auto it = std::find_if(catalog.begin(), catalog.end(),
                               [&](const auto &w) { return w.name == n; });
        if (it == catalog.end())
            throw std::runtime_error("no workload named " + n);
        workloads::Workload w = *it;
        jobs.push_back({n, cfg, 400'000'000, {},
                        [w, harts](System &sys, auto &) {
                            return w.build(sys, harts);
                        }});
    }
    return jobs;
}

/** Host threads for kv_16c: four, or fewer on a smaller host. */
uint32_t
kvThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/**
 * The four workloads. SPEC and PARSEC run fixed programs and ignore
 * the seed; kv_16c draws its arrivals and keys from it.
 */
std::optional<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "spec_compute")
        return Workload{name, catalogJobs(workloads::specWorkloads(),
                                          {"hmmer", "h264ref", "sjeng",
                                           "gobmk"},
                                          SystemConfig::riscyooTPlus(), 1)};
    if (name == "spec_memory")
        return Workload{name, catalogJobs(workloads::specWorkloads(),
                                          {"mcf", "astar", "omnetpp"},
                                          SystemConfig::riscyooTPlus(), 1)};
    if (name == "parsec_4c")
        return Workload{name,
                        catalogJobs(workloads::parsecWorkloads(),
                                    {"blackscholes", "fluidanimate",
                                     "streamcluster"},
                                    SystemConfig::multicore(true), 4)};
    if (name != "kv_16c")
        return std::nullopt;

    // The ablation_server traffic at about half the 16-core capacity
    // (60 req/kc offered against a ~113 req/kc peak).
    server::KvConfig kc;
    kc.harts = 16;
    kc.requests = 2000;
    kc.reqPerKilocycle = 60.0;
    kc.keys = 4096;
    kc.tableSlots = 8192;
    kc.zipf = 0.8;
    kc.putFrac = 0.1;
    kc.seed = seed;
    SystemConfig cfg = SystemConfig::serverConfig(16, 4);
    cfg.scheduler = cmd::SchedulerKind::Parallel;
    cfg.threads = kvThreads();
    cfg.lookahead = 0; // auto: fifo-min
    Job job{"kv", cfg, 20'000'000, {},
            [kc](System &sys, std::unique_ptr<server::KvHost> &kv) {
                kv = std::make_unique<server::KvHost>(kc);
                server::preloadKvTable(sys.mem(), kc);
                sys.host().attachKv(kv.get());
                asmkit::Assembler a(kKvEntry);
                server::emitKvWorker(a, kc);
                a.load(sys.mem(), kKvEntry);
                workloads::Image img;
                img.entry = kKvEntry;
                for (uint32_t i = 0; i < kc.harts; i++)
                    img.stacks.push_back(kKvEntry + 0x400000 + i * 0x10000);
                return img;
            }};
    return Workload{name, {job}};
}

// ------------------------------------------------------------ results

struct Setup {
    uint64_t constructNs = 0, buildNs = 0, elaborateNs = 0, startNs = 0;
    uint64_t total() const
    {
        return constructNs + buildNs + elaborateNs + startNs;
    }
    Setup &
    operator+=(const Setup &o)
    {
        constructNs += o.constructNs;
        buildNs += o.buildNs;
        elaborateNs += o.elaborateNs;
        startNs += o.startNs;
        return *this;
    }
};

/** What one iteration (every job of the workload) produced. */
struct Iteration {
    Setup setup;
    uint64_t runNs = 0; ///< summed System::run wall time
    uint64_t cycles = 0, instret = 0;
    /// every simulated output and exact count, in job order; repeats
    /// of one workload and seed must match it bit for bit
    std::vector<uint64_t> outputs;
    /// exact per-layer counts, summed over jobs (ratios and KV figures
    /// come from the one job that has them)
    std::map<std::string, double> counts;
    /// host-time figures from the kernel's own report, summed over jobs
    std::map<std::string, double> hostMs;
    std::optional<LayerTimes> trace;
    std::vector<std::string> failures;
    // run stamp (first job)
    std::string scheduler;
    uint32_t threads = 1, lookahead = 1;
};

/** Set up @p job on @p sys's storage (construct, load, elaborate,
 *  start); returns the timings. */
Setup
setUp(const Job &job, std::unique_ptr<System> &sys,
      std::unique_ptr<server::KvHost> &kv)
{
    Setup s;
    uint64_t t0 = nowNs();
    sys = std::make_unique<System>(job.cfg);
    uint64_t t1 = nowNs();
    workloads::Image img = job.load(*sys, kv);
    uint64_t t2 = nowNs();
    sys->elaborate();
    uint64_t t3 = nowNs();
    sys->start(img.entry, img.satp, img.stacks);
    uint64_t t4 = nowNs();
    s.constructNs = t1 - t0;
    s.buildNs = t2 - t1;
    s.elaborateNs = t3 - t2;
    s.startNs = t4 - t3;
    return s;
}

/**
 * Exit codes of @p job's program under the functional golden model
 * (isa::GoldenModel fast-forward): the SPEC stand-ins exit with a
 * checksum of their result, the PARSEC ones with 0.
 */
std::vector<uint64_t>
goldenExits(const Job &job)
{
    Job ff = job;
    ff.cfg.execMode = ExecMode::FastForward;
    std::unique_ptr<server::KvHost> kv;
    std::unique_ptr<System> sys;
    setUp(ff, sys, kv);
    if (!sys->runFastForward())
        throw std::runtime_error(job.name + ": golden model did not exit");
    std::vector<uint64_t> codes;
    for (uint32_t h = 0; h < sys->cores(); h++)
        codes.push_back(sys->host().exitCode(h));
    return codes;
}

void
record(Iteration &it, const std::string &name, double v)
{
    it.counts[name] += v;
    it.outputs.push_back(std::bit_cast<uint64_t>(v));
}

void
runJob(const Job &job, bool traced, Iteration &it)
{
    std::unique_ptr<server::KvHost> kv; // outlives the System using it
    std::unique_ptr<System> sys;
    it.setup += setUp(job, sys, kv);
    cmd::Kernel &k = sys->kernel();
    // Classify every rule even untraced: an unmapped rule is a hard
    // error on every run, not only on traced ones.
    perfbench::layerMap(k);
    std::optional<LayerTracer> tracer;
    if (traced)
        tracer.emplace(k);
    if (it.scheduler.empty()) {
        it.scheduler = k.report().scheduler;
        bool parallel = job.cfg.scheduler == cmd::SchedulerKind::Parallel;
        it.threads = parallel ? job.cfg.threads : 1;
        it.lookahead = parallel ? k.effectiveLookahead() : 1;
    }

    if (tracer) {
        k.setObserver(&*tracer);
        tracer->begin();
    }
    uint64_t t0 = nowNs();
    try {
        sys->run(job.maxCycles);
    } catch (const std::exception &e) {
        it.failures.push_back(job.name + ": run threw: " + e.what());
    }
    it.runNs += nowNs() - t0;
    std::optional<LayerTimes> lt;
    if (tracer) {
        lt = tracer->end();
        k.setObserver(nullptr);
    }

    const auto fail = [&](const std::string &why) {
        it.failures.push_back(job.name + ": " + why);
    };
    if (sys->stopReason() != StopReason::AllExited)
        fail(std::string("stopped with ") + toString(sys->stopReason()));
    uint64_t cycles = k.cycleCount();
    it.cycles += cycles;
    it.outputs.push_back(cycles);
    it.outputs.push_back(uint64_t(sys->stopReason()));
    for (uint32_t h = 0; h < sys->cores(); h++) {
        it.instret += sys->instret(h);
        it.outputs.push_back(sys->instret(h));
        uint64_t code = sys->host().exitCode(h);
        uint64_t want = h < job.expectedExit.size() ? job.expectedExit[h] : 0;
        it.outputs.push_back(code);
        if (code != want)
            fail("hart " + std::to_string(h) + " exit code " +
                 std::to_string(code) + ", expected " +
                 std::to_string(want));
    }

    cmd::KernelReport rep = k.report();
    uint64_t fired = 0, guardAborts = 0, cmAborts = 0;
    for (const auto &r : rep.rules) {
        fired += r.fired;
        guardAborts += r.guardAborts;
        cmAborts += r.cmAborts;
    }
    record(it, "core.attempts", double(rep.attempts));
    record(it, "core.fired", double(fired));
    record(it, "core.guard_throws", double(rep.guardThrows));
    record(it, "core.fast_guard_fails", double(rep.fastGuardFails));
    record(it, "core.cm_aborts", double(cmAborts));
    record(it, "core.sleep_skips", double(rep.sleepSkips));
    record(it, "core.wakes", double(rep.wakes));
    record(it, "core.sync_epochs", double(rep.syncEpochs));
    if (lt && kObserverHooks) {
        // The split must cover every attempt the kernel counted and
        // no more thread time than System::run took.
        uint64_t tf = 0, tg = 0;
        for (size_t l = 0; l < perfbench::kNumLayers; l++) {
            tf += lt->fired[l];
            tg += lt->guardAborts[l];
        }
        if (tf != fired || tg != guardAborts)
            fail("trace saw " + std::to_string(tf) + " fired / " +
                 std::to_string(tg) + " guard aborts, kernel counted " +
                 std::to_string(fired) + " / " +
                 std::to_string(guardAborts));
        if (lt->runLoopNs() < 0)
            fail("trace charged more than System::run thread time");
        if (it.trace)
            *it.trace += *lt;
        else
            it.trace = lt;
    }

    uint64_t execMax = 0, execSum = 0, waitMax = 0;
    for (const auto &d : rep.domainLines) {
        execMax = std::max(execMax, d.execNs);
        execSum += d.execNs;
        waitMax = std::max(waitMax, d.syncWaitNs);
    }
    it.hostMs["core.barrier_wait_ms"] += double(rep.barrierWaitNs) / 1e6;
    it.hostMs["core.domain_exec_ms_max"] += double(execMax) / 1e6;
    it.hostMs["core.domain_exec_ms_mean"] +=
        rep.domainLines.empty()
            ? 0.0
            : double(execSum) / 1e6 / double(rep.domainLines.size());
    it.hostMs["core.sync_wait_ms_max"] += double(waitMax) / 1e6;

    System::EventCounts ev{};
    for (uint32_t h = 0; h < sys->cores(); h++) {
        System::EventCounts e = sys->events(h);
        ev.dtlbMisses += e.dtlbMisses;
        ev.l2tlbMisses += e.l2tlbMisses;
        ev.branchMispredicts += e.branchMispredicts;
        ev.l1dMisses += e.l1dMisses;
        ev.ldKills += e.ldKills;
        ev.evictKills += e.evictKills;
        ev.l2Misses = e.l2Misses; // shared L2: the same on every hart
    }
    record(it, "tlb.dtlb_misses", double(ev.dtlbMisses));
    record(it, "tlb.l2tlb_misses", double(ev.l2tlbMisses));
    record(it, "frontend.mispredicts", double(ev.branchMispredicts));
    record(it, "cache.l1d_misses", double(ev.l1dMisses));
    record(it, "cache.l2_misses", double(ev.l2Misses));
    record(it, "lsq.ld_kills", double(ev.ldKills));
    record(it, "lsq.evict_kills", double(ev.evictKills));

    if (BankedL2Front *front = sys->hier().bankedFront()) {
        cmd::StatGroup &st = front->dramCtl().stats();
        record(it, "mem.dramctl.reads", double(st.get("reads")));
        record(it, "mem.dramctl.writes", double(st.get("writes")));
        record(it, "mem.dramctl.row_hit_rate", st.getFormula("rowHitRate"));
    }
    if (kv) {
        server::KvSummary s = kv->summarize();
        if (s.completed != s.offered)
            fail("served " + std::to_string(s.completed) + " of " +
                 std::to_string(s.offered) + " requests");
        record(it, "server.kv_requests", double(s.completed));
        record(it, "server.kv_p50_cycles", double(s.p50));
        record(it, "server.kv_p99_cycles", double(s.p99));
        record(it, "server.queue_depth_mean", s.meanQueueDepth);
        for (uint64_t v : {s.offered, s.p95, s.p999, s.maxLat,
                           s.windowCycles, s.maxQueueDepth})
            it.outputs.push_back(v);
        it.outputs.push_back(std::bit_cast<uint64_t>(s.meanLat));
    }
}

Iteration
runIteration(const Workload &w, bool traced)
{
    Iteration it;
    for (const Job &job : w.jobs)
        runJob(job, traced, it);
    return it;
}

/** Set every job up and tear it down without running it. */
Setup
setUpOnly(const Workload &w)
{
    Setup s;
    for (const Job &job : w.jobs) {
        std::unique_ptr<server::KvHost> kv;
        std::unique_ptr<System> sys;
        s += setUp(job, sys, kv);
    }
    return s;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double
medianOf(const std::vector<Iteration> &its, F f)
{
    std::vector<double> v;
    for (const Iteration &it : its)
        v.push_back(f(it));
    return median(v);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

struct Metric {
    std::string name, unit;
    std::optional<double> value; ///< empty: unavailable in this build
};

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{spec_compute|spec_memory|parsec_4c|kv_16c} --seed N "
                 "--seconds S --trace {0|1}\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], val = argv[i + 1];
        if (flag == "--workload")
            name = val;
        else if (flag == "--seed")
            seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::atof(val.c_str());
        else if (flag == "--trace")
            trace = val == "1" ? 1 : val == "0" ? 0 : -1;
        else
            return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0 || seconds <= 0 || trace < 0)
        return usage("missing or malformed arguments");
    std::optional<Workload> w = makeWorkload(name, seed);
    if (!w)
        return usage(("unknown workload " + name).c_str());

    std::vector<Setup> setups;
    std::vector<Iteration> plain, traced;
    try {
        if (w->name != "kv_16c") // KV workers verify GETs themselves
            for (Job &job : w->jobs)
                job.expectedExit = goldenExits(job);
        const uint64_t deadline = nowNs() + uint64_t(seconds * 1e9);
        for (uint32_t r = 0; r < kSetupRounds; r++)
            setups.push_back(setUpOnly(*w));
        // At least two untraced iterations (or one untraced, one
        // traced); then continue while the next one fits the budget.
        uint64_t last = 0;
        do {
            uint64_t t0 = nowNs();
            plain.push_back(runIteration(*w, false));
            setups.push_back(plain.back().setup);
            if (trace) {
                traced.push_back(runIteration(*w, true));
                setups.push_back(traced.back().setup);
            }
            last = nowNs() - t0;
        } while ((!trace && plain.size() < 2) || nowNs() + last <= deadline);
    } catch (const std::exception &e) {
        // Only a rule outside the layer map (or a workload that cannot
        // be built) gets here: a broken benchmark, not a failed run.
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    // Output checks: each iteration ran cleanly and reproduced the
    // first untraced iteration's simulated outputs and exact counts.
    const Iteration &ref = plain.front();
    uint64_t attempted = 0, failed = 0;
    auto check = [&](const std::vector<Iteration> &its, const char *kind) {
        for (size_t i = 0; i < its.size(); i++) {
            std::vector<std::string> why = its[i].failures;
            if (its[i].outputs != ref.outputs)
                why.push_back("simulated outputs differ from the first "
                              "untraced iteration");
            attempted++;
            if (!why.empty())
                failed++;
            for (const std::string &s : why)
                std::printf("FAILED %s iteration %zu: %s\n", kind, i,
                            s.c_str());
        }
    };
    check(plain, "untraced");
    check(traced, "traced");
    for (const auto *its : {&plain, &traced})
        for (const Iteration &it : *its)
            std::printf("%s iteration: setup %.3f ms, run %.3f ms, "
                        "%.3f KIPS\n",
                        its == &plain ? "untraced" : "traced",
                        double(it.setup.total()) / 1e6,
                        double(it.runNs) / 1e6,
                        1e6 * double(it.instret) / double(it.runNs));

    bench::JsonObject stamp = bench::hostInfo();
    stamp.put("build_type", PERFBENCH_BUILD_TYPE)
        .put("workload", w->name)
        .put("scheduler", ref.scheduler)
        .put("threads", ref.threads)
        .put("lookahead", ref.lookahead)
        .put("seed", seed)
        .put("seed_used", w->name == "kv_16c");
    std::printf("stamp %s\n", stamp.str().c_str());
    if (w->name == "kv_16c" && ref.threads < 4)
        std::printf("note: kv_16c runs on %u host threads (fewer than 4 "
                    "available)\n",
                    ref.threads);

    std::vector<Metric> metrics;
    auto add = [&](const std::string &n, const std::string &u,
                   std::optional<double> v) { metrics.push_back({n, u, v}); };
    if (!trace) {
        add("sim_kips", "kinst/s", medianOf(plain, [](const Iteration &it) {
                return 1e6 * double(it.instret) / double(it.runNs);
            }));
        add("sim_kcycles_per_s", "kcycles/s",
            medianOf(plain, [](const Iteration &it) {
                return 1e6 * double(it.cycles) / double(it.runNs);
            }));
        std::vector<double> s;
        for (const Setup &x : setups)
            s.push_back(double(x.total()) / 1e9);
        add("setup_s", "s", median(s));
        add("peak_rss_mb", "MB", peakRssMb());
        add("sim_cycles", "cycles", double(ref.cycles));
    } else {
        const auto count = [&](const std::string &n) {
            auto f = ref.counts.find(n);
            return f == ref.counts.end() ? 0.0 : f->second;
        };
        const double attempts = count("core.attempts");
        for (const char *n :
             {"core.attempts", "core.fired", "core.guard_throws",
              "core.fast_guard_fails", "core.cm_aborts", "core.sleep_skips",
              "core.wakes", "core.sync_epochs"})
            add(n, "count", count(n));
        add("core.fire_ratio", "ratio",
            attempts ? count("core.fired") / attempts : 0.0);
        add("core.throw_ratio", "ratio",
            attempts ? count("core.guard_throws") / attempts : 0.0);
        for (const char *n :
             {"core.barrier_wait_ms", "core.domain_exec_ms_max",
              "core.domain_exec_ms_mean", "core.sync_wait_ms_max"})
            add(n, "ms", medianOf(plain, [n](const Iteration &it) {
                    return it.hostMs.at(n);
                }));
        for (const char *n :
             {"tlb.dtlb_misses", "tlb.l2tlb_misses", "frontend.mispredicts",
              "cache.l1d_misses", "cache.l2_misses", "lsq.ld_kills",
              "lsq.evict_kills", "mem.dramctl.reads", "mem.dramctl.writes",
              "server.kv_requests"})
            add(n, "count", count(n));
        add("mem.dramctl.row_hit_rate", "ratio",
            count("mem.dramctl.row_hit_rate"));
        add("server.queue_depth_mean", "requests",
            count("server.queue_depth_mean"));
        add("server.kv_p50_cycles", "cycles", count("server.kv_p50_cycles"));
        add("server.kv_p99_cycles", "cycles", count("server.kv_p99_cycles"));

        // Host time per layer, from the traced iterations. With the
        // observer hooks compiled out the tracer sees no callbacks, so
        // these are unavailable rather than zero.
        const auto host = [&](auto f) -> std::optional<double> {
            if (!kObserverHooks)
                return std::nullopt;
            return medianOf(traced, [&](const Iteration &it) {
                return f(*it.trace);
            });
        };
        for (size_t l = 0; l < perfbench::kNumLayers; l++) {
            std::string ln = perfbench::kLayerNames[l];
            add(ln + ".self_ms", "ms", host([l](const LayerTimes &t) {
                    return double(t.selfNs[l]) / 1e6;
                }));
            add(ln + ".fired", "count", host([l](const LayerTimes &t) {
                    return double(t.fired[l]);
                }));
            add(ln + ".guard_aborts", "count",
                host([l](const LayerTimes &t) {
                    return double(t.guardAborts[l]);
                }));
            add(ln + ".ns_per_attempt", "ns", host([l](const LayerTimes &t) {
                    uint64_t n = t.fired[l] + t.guardAborts[l];
                    return n ? double(t.selfNs[l]) / double(n) : 0.0;
                }));
        }
        add("core.cycle_tail_ms", "ms", host([](const LayerTimes &t) {
                return double(t.cycleTailNs) / 1e6;
            }));
        add("core.run_loop_ms", "ms", host([](const LayerTimes &t) {
                return double(t.runLoopNs()) / 1e6;
            }));
        add("trace.run_wall_ms", "ms", host([](const LayerTimes &t) {
                return double(t.wallNs) / 1e6;
            }));
        add("trace.thread_ms", "ms", host([](const LayerTimes &t) {
                return double(t.threadNs) / 1e6;
            }));
        std::optional<double> overhead;
        if (kObserverHooks)
            overhead = medianOf(traced, [](const Iteration &it) {
                           return double(it.runNs);
                       }) /
                       medianOf(plain, [](const Iteration &it) {
                           return double(it.runNs);
                       });
        add("trace.overhead_share", "ratio", overhead);

        const auto setupPart = [&](uint64_t Setup::*part) {
            std::vector<double> v;
            for (const Setup &x : setups)
                v.push_back(double(x.*part) / 1e6);
            return median(v);
        };
        add("setup.construct_ms", "ms", setupPart(&Setup::constructNs));
        add("setup.build_ms", "ms", setupPart(&Setup::buildNs));
        add("setup.elaborate_ms", "ms", setupPart(&Setup::elaborateNs));
        add("setup.start_ms", "ms", setupPart(&Setup::startNs));
    }

    for (const Metric &m : metrics)
        std::printf("  %-32s %24s %s\n", m.name.c_str(),
                    m.value ? fmt(*m.value).c_str() : "unavailable",
                    m.unit.c_str());
    std::string out = "{\"correct\": ";
    out += failed ? "false" : "true";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); i++) {
        const Metric &m = metrics[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               (m.value ? fmt(*m.value) : "null") + ", \"unit\": \"" +
               m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return 0;
}
