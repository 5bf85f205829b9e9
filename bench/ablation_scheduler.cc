/**
 * @file
 * CMD-kernel scheduler ablation: exhaustive (attempt every rule every
 * cycle, the reference) against event-driven (sensitivity tracking +
 * sleep/wake) on the idle shapes where sleeping pays:
 *
 *  - idle_pipeline: a deep FIFO pipeline fed one token every 128
 *    cycles, so a couple of stages carry tokens while ~190 sit empty
 *    — the idle-LSQ/TLB/L2 shape that dominates real system
 *    simulations.
 *  - idle_guards: 64 permanently not-ready rules — the pure
 *    sleep-forever case.
 *
 * Every stage rule goes through a per-stage StageCtl block: the
 * status probes and bookkeeping calls (epoch check, scoreboard
 * search, credit check, perf counter) that the paper's fig 15-20
 * stage rules make on every firing besides their fifo moves, so a
 * firing stage costs what a real stage rule costs.
 *
 * Every run is checked for architectural equivalence (snapshot
 * digest) across both modes, and results are written both as a
 * human-readable table and as machine-readable BENCH_scheduler.json
 * so the perf trajectory can be tracked across changes.
 *
 * --ci additionally enforces the scheduler-regression gates:
 *   (1) event-driven vs exhaustive must reach >= 2x geomean over the
 *       idle suite, re-measured up to twice before failing so
 *       wall-clock noise on a loaded runner does not flip the gate;
 *   (2) the BENCH_scheduler.json must actually have been written —
 *       a CI run whose numbers cannot be archived is an error.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/cmd.hh"

using namespace cmd;

namespace {

constexpr unsigned kIdleStages = 192;
constexpr unsigned kIdleFeedInterval = 128;
uint64_t gCycles = 200000;
int gReps = 3;

/** The two measured modes, in table/JSON order. */
constexpr SchedulerKind kModes[] = {SchedulerKind::Exhaustive,
                                    SchedulerKind::EventDriven};

/**
 * Per-stage control block: the interface-method traffic a processor
 * stage rule generates besides its fifo moves. Each firing of the
 * owning stage rule probes the redirect epoch, the scoreboard, the
 * downstream credit counter and the unit-busy flag, then bumps a perf
 * counter — the method-call mix of the paper's stage rules (fetch
 * consults the epoch and the BTB, execute searches the scoreboard and
 * the bypass network, ...). Every block is private to one stage rule,
 * so all its methods are conflict-free; each call still pays the
 * kernel's per-call enforcement.
 */
struct StageCtl : Module {
    Method &epochM = method("epoch");
    Method &scoreM = method("score");
    Method &creditM = method("credit");
    Method &busyM = method("busy");
    Method &phaseM = method("phase");
    Method &bypassM = method("bypass");
    Method &stallM = method("stall");
    Method &robM = method("rob");
    Method &noteM = method("note");
    Reg<uint64_t> epoch_;
    Reg<uint64_t> score_;
    Reg<uint64_t> credit_;
    Reg<uint64_t> busy_;
    Reg<uint64_t> phase_;
    Reg<uint64_t> bypass_;
    Reg<uint64_t> stall_;
    Reg<uint64_t> rob_;
    Reg<uint64_t> moved_;

    StageCtl(Kernel &k, const std::string &name)
        : Module(k, name, Conflict::CF),
          epoch_(k, name + ".epoch", 0x9e3779b97f4a7c15ull),
          score_(k, name + ".score", 0),
          credit_(k, name + ".credit", ~0ull),
          busy_(k, name + ".busy", 0),
          phase_(k, name + ".phase", 1),
          bypass_(k, name + ".bypass", 0),
          stall_(k, name + ".stall", 0),
          rob_(k, name + ".rob", 3),
          moved_(k, name + ".moved", 0)
    {
    }

    /** Redirect epoch to stamp the moved token with. */
    uint64_t epoch() { epochM(); return epoch_.read(); }
    /** Scoreboard search result for the moved token. */
    uint64_t score() { scoreM(); return score_.read(); }
    /** Downstream credit available? */
    bool haveCredit() { creditM(); return credit_.read() != 0; }
    /** Functional-unit busy flag. */
    uint64_t busy() { busyM(); return busy_.read(); }
    /** Arbitration phase of this stage's issue port. */
    uint64_t phase() { phaseM(); return phase_.read(); }
    /** Bypass-network search result for the moved token. */
    uint64_t bypass() { bypassM(); return bypass_.read(); }
    /** Structural-stall predicate of the downstream unit. */
    bool stalled() { stallM(); return stall_.read() != 0; }
    /** Reorder-buffer occupancy credit for this stage. */
    uint64_t rob() { robM(); return rob_.read(); }
    /** Count one token moved through this stage. */
    void note(uint64_t v) { noteM(); moved_.write(moved_.read() + (v & 1)); }

    /** The method set a stage rule using this block must declare. */
    std::vector<const Method *>
    methods() const
    {
        return {&epochM, &scoreM, &creditM, &busyM, &phaseM,
                &bypassM, &stallM, &robM, &noteM};
    }

    /**
     * One stage's worth of probe/bookkeeping calls, folded into the
     * moved token so every scheduler must execute them to reach the
     * matching state digest.
     */
    uint64_t
    touch(uint64_t v)
    {
        v ^= epoch() + score();
        if (haveCredit())
            v += (v >> 7) | 1;
        v += busy() + phase() + bypass();
        if (!stalled())
            v ^= rob() << 1;
        note(v);
        return v;
    }
};

/** Deep FIFO pipeline; feed throttled to one token per interval. */
struct Pipeline {
    Kernel k;
    std::vector<std::unique_ptr<PipelineFifo<uint64_t>>> q;
    std::vector<std::unique_ptr<StageCtl>> ctl;
    Reg<uint64_t> tick;
    Reg<uint64_t> src;
    Reg<uint64_t> sink;

    explicit Pipeline(SchedulerKind kind)
        : tick(k, "tick", 0), src(k, "src", 0), sink(k, "sink", 0)
    {
        for (unsigned i = 0; i < kIdleStages; i++) {
            q.push_back(std::make_unique<PipelineFifo<uint64_t>>(
                k, strfmt("q%u", i), 2));
            ctl.push_back(
                std::make_unique<StageCtl>(k, strfmt("ctl%u", i)));
        }
        k.rule("tick", [this] { tick.write(tick.read() + 1); });
        // requireFast: the exception-free implicit-guard exit.
        k.rule("feed", [this] {
            if (!requireFast(tick.read() % kIdleFeedInterval == 0))
                return;
            q.front()->enq(src.read());
            src.write(src.read() + 1);
        }).uses({&q.front()->enqM});
        for (unsigned i = 0; i + 1 < kIdleStages; i++) {
            auto *a = q[i].get();
            auto *b = q[i + 1].get();
            auto *c = ctl[i].get();
            std::vector<const Method *> used = c->methods();
            used.push_back(&a->deqM);
            used.push_back(&b->enqM);
            k.rule(strfmt("move%u", i),
                   [a, b, c] { b->enq(c->touch(a->deq())); })
                .when([a, b] { return a->canDeq() && b->canEnq(); })
                .uses(used);
        }
        k.rule("drain", [this] {
            sink.write(sink.read() + q.back()->deq());
        }).when([this] { return q.back()->canDeq(); })
            .uses({&q.back()->deqM});
        k.setScheduler(kind);
        k.elaborate();
    }
};

/** 64 permanently not-ready rules behind when() guards. */
struct IdleGuards {
    Kernel k;
    Reg<int> never;

    explicit IdleGuards(SchedulerKind kind) : never(k, "never", 0)
    {
        for (int i = 0; i < 64; i++) {
            k.rule(strfmt("idle%d", i), [] { require(false); })
                .when([this] { return never.read() != 0; });
        }
        k.setScheduler(kind);
        k.elaborate();
    }
};

struct RunStats {
    double cps = 0;
    uint64_t stateDigest = 0;
    uint64_t attempts = 0;
    uint64_t sleepSkips = 0;
};

template <typename Design>
RunStats
measure(SchedulerKind kind, int reps)
{
    RunStats best;
    for (int rep = 0; rep < reps; rep++) {
        auto d = std::make_unique<Design>(kind);
        Kernel &k = d->k;
        auto t0 = std::chrono::steady_clock::now();
        k.run(gCycles);
        auto t1 = std::chrono::steady_clock::now();
        double secs = std::chrono::duration<double>(t1 - t0).count();
        double cps = double(gCycles) / secs;
        if (cps > best.cps) {
            best.cps = cps;
            best.stateDigest = fnv1a(k.snapshot());
            best.attempts = k.ruleAttemptCount();
            best.sleepSkips = k.sleepSkipCount();
        }
    }
    return best;
}

struct Workload {
    std::string name;
    std::function<RunStats(SchedulerKind, int)> run;
    RunStats ex, ev; ///< exhaustive, event-driven

    RunStats &
    at(SchedulerKind kind)
    {
        return kind == SchedulerKind::Exhaustive ? ex : ev;
    }
    bool digestsMatch() const { return ex.stateDigest == ev.stateDigest; }
    double speedup() const { return ev.cps / ex.cps; }
};

/** Event-vs-exhaustive geomean over the idle suite. */
double
idleSuiteGeomean(const std::vector<Workload> &work)
{
    std::vector<double> r;
    for (const Workload &w : work)
        r.push_back(w.speedup());
    return riscy::bench::geomean(r);
}

} // namespace

int
main(int argc, char **argv)
{
    bool ci = false;
    std::string outPath; // default: BENCH_scheduler.json in the cwd
    for (int i = 1; i < argc; i++) {
        auto need = [&](const char *flag) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--ci")) {
            ci = true;
        } else if (!std::strcmp(argv[i], "--cycles")) {
            gCycles = std::strtoull(need("--cycles"), nullptr, 0);
        } else if (!std::strcmp(argv[i], "--reps")) {
            gReps = int(std::strtol(need("--reps"), nullptr, 0));
        } else if (!std::strcmp(argv[i], "--out")) {
            outPath = need("--out");
        } else {
            std::fprintf(stderr,
                         "usage: %s [--ci] [--cycles N] [--reps N] "
                         "[--out PATH]\n",
                         argv[0]);
            return 2;
        }
    }

    std::vector<Workload> work = {
        {"idle_pipeline", measure<Pipeline>, {}, {}},
        {"idle_guards", measure<IdleGuards>, {}, {}},
    };
    for (Workload &w : work) {
        for (SchedulerKind kind : kModes)
            w.at(kind) = w.run(kind, gReps);
    }

    // Gate (1) de-flaking: the geomean rides on noisy wall clocks, so
    // a close miss re-measures both sides of every ratio (best-of
    // merge) before the gate decides.
    for (int round = 0; ci && round < 2 && idleSuiteGeomean(work) < 2.0;
         round++) {
        std::printf("re-measuring idle suite (geomean %.2fx)\n",
                    idleSuiteGeomean(work));
        for (Workload &w : work) {
            for (SchedulerKind kind : kModes) {
                RunStats again = w.run(kind, gReps);
                if (again.cps > w.at(kind).cps)
                    w.at(kind) = again;
            }
        }
    }

    printf("%-14s %13s %13s %8s %5s\n", "workload", "exhaustive", "event",
           "ev/ex", "state");
    for (const Workload &w : work) {
        printf("%-14s %13.0f %13.0f %7.2fx %5s\n", w.name.c_str(), w.ex.cps,
               w.ev.cps, w.speedup(), w.digestsMatch() ? "match" : "DIVERGE");
    }
    double idleGeomean = idleSuiteGeomean(work);
    printf("idle-suite event-vs-exhaustive geomean: %.2fx\n", idleGeomean);

    using riscy::bench::JsonObject;
    JsonObject cfg;
    cfg.put("cycles_per_run", gCycles)
        .put("reps", gReps)
        .put("idle_stages", kIdleStages)
        .put("idle_feed_interval", kIdleFeedInterval)
        .put("idle_geomean_event_vs_exhaustive", idleGeomean);
    std::vector<JsonObject> out;
    for (const Workload &w : work) {
        JsonObject o;
        o.put("workload", w.name)
            .put("cycles", gCycles)
            .put("digest_match", w.digestsMatch())
            .put("exhaustive_cps", w.ex.cps)
            .put("exhaustive_attempts", w.ex.attempts)
            .put("event_cps", w.ev.cps)
            .put("event_attempts", w.ev.attempts)
            .put("event_sleep_skips", w.ev.sleepSkips)
            .put("speedup_event", w.speedup());
        // Kernel-only microbench: the retired unit is a cycle, and the
        // headline (event-driven) run provides the wall time.
        riscy::bench::putSimSpeed(o, gCycles,
                                  uint64_t(1e9 * double(gCycles) / w.ev.cps));
        out.push_back(std::move(o));
    }
    bool wrote =
        riscy::bench::writeBenchJson("scheduler", cfg, out, outPath);
    if (ci && !wrote) {
        std::fprintf(stderr,
                     "GATE: --ci requires BENCH_scheduler.json to be "
                     "written (open failed: %s)\n",
                     outPath.empty() ? "BENCH_scheduler.json"
                                     : outPath.c_str());
        return 1;
    }

    bool ok = true;
    for (const Workload &w : work)
        ok = ok && w.digestsMatch();
    if (ci && idleGeomean < 2.0) {
        std::fprintf(stderr,
                     "GATE: idle-suite event-vs-exhaustive geomean "
                     "%.2fx < 2.0x\n",
                     idleGeomean);
        ok = false;
    }
    return ok ? 0 : 1;
}
