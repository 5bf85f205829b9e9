/**
 * @file
 * Outside-in host-time attribution for the repo benchmark: a
 * cmd::KernelObserver that timestamps every ruleFired / guardFailed /
 * cycleEnd callback and charges the interval since the previous
 * callback on the same host thread to the layer of the reported rule.
 *
 * What one charged interval covers: the reported attempt (guard, body,
 * commit or abort), the schedule walk since the previous reported
 * attempt, and any CM-blocked attempt in between (the kernel reports
 * none of those). The interval ending at cycleEnd is the cycle tail:
 * the walk after the last reported attempt, and under Parallel the
 * wait for the sync barrier.
 *
 * The run loop is what no interval covers. Sequential schedulers call
 * cycleEnd every cycle, and the first attempt of a cycle also carries
 * the loop's small between-cycle work. Under Parallel, cycleEnd comes
 * once per sync window, and the first interval of a window on each
 * thread is mostly mirror publication, pool wake-up and domain claiming
 * (often microseconds), so it is left uncharged: that one attempt per
 * thread and window goes to the run loop instead of its layer.
 *
 * Slots are per host thread, not per domain: under Parallel one thread
 * runs several domains back to back in a sync window, so per-domain
 * "previous" stamps would charge one domain's work to the next. With
 * per-thread slots the accounting identity is
 *   sum(layer self) + cycle tail + run loop = threads x System::run wall
 */
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/kernel.hh"

namespace perfbench {

/** Rule layers, named after the src/ modules whose rules they hold. */
enum Layer : uint8_t {
    kFetch,
    kRename,
    kIssue,
    kExec,
    kCommit,
    kLsq,
    kFifo,
    kTlb,
    kL1,
    kL2,
    kRouter,
    kDram,
    kDramCtl,
    kNumLayers
};

inline constexpr std::array<const char *, kNumLayers> kLayerNames = {
    "proc.fetch", "proc.rename", "proc.issue", "proc.exec",
    "proc.commit", "lsq",        "ooo.fifo",   "tlb",
    "cache.l1",   "cache.l2",    "cache.router", "mem.dram",
    "mem.dramctl"};

/**
 * Layer of the rule called @p name. A rule that matches no pattern is
 * a hard error (std::runtime_error naming it), so a renamed rule cannot
 * silently drop out of the split.
 */
inline Layer
layerOf(const std::string &name)
{
    static const std::vector<std::pair<std::regex, Layer>> map = [] {
        std::vector<std::pair<std::regex, Layer>> m;
        auto add = [&](const char *re, Layer l) {
            m.emplace_back(std::regex(re), l);
        };
        add(R"(hart\d+\..+\.compact)", kFifo);
        add(R"(hart\d+\.(itlb|dtlb|l2tlb)\..+)", kTlb);
        add(R"(hart\d+\.(doFetch\d+|doIcacheResp))", kFetch);
        add(R"(hart\d+\.doRename)", kRename);
        add(R"(hart\d+\.(doIssue\d+|doIssueMd|doIssueMem))", kIssue);
        add(R"(hart\d+\.(doRegRead(\d+|Md|Mem)|doExec\d+|doRegWrite\d+)"
            R"(|doMdWb|doAddrCalc))",
            kExec);
        add(R"(hart\d+\.(doCommit|doFlush))", kCommit);
        add(R"(hart\d+\.(doIssue(Ld|StTso|Atomic)|doResp\w+|doDeqLd)"
            R"(|doUpdateLsq))",
            kLsq);
        add(R"(mem\.l1[di]\d+\..+)", kL1);
        add(R"(mem\.l2(b\d+)?\..+)", kL2);
        add(R"(mem\.rt\d+\..+)", kRouter);
        add(R"(mem\.dram\..+)", kDram);
        add(R"(mem\.dramctl\..+)", kDramCtl);
        return m;
    }();
    for (const auto &[re, layer] : map)
        if (std::regex_match(name, re))
            return layer;
    throw std::runtime_error("rule '" + name + "' matches no layer");
}

/** Layer of every rule of @p k by schedule position (after elaborate). */
inline std::vector<Layer>
layerMap(const cmd::Kernel &k)
{
    std::vector<Layer> byPos;
    for (const cmd::Rule *r : k.scheduleOrder())
        byPos.push_back(layerOf(r->name())); // schedPos() == index
    return byPos;
}

/** Host time charged per layer by one traced System::run. */
struct LayerTimes {
    std::array<uint64_t, kNumLayers> selfNs{};
    std::array<uint64_t, kNumLayers> fired{};
    std::array<uint64_t, kNumLayers> guardAborts{};
    uint64_t cycleTailNs = 0;
    uint64_t wallNs = 0;   ///< System::run wall time
    /// wall time x host threads that reported callbacks
    uint64_t threadNs = 0;

    uint64_t
    chargedNs() const
    {
        uint64_t s = cycleTailNs;
        for (uint64_t v : selfNs)
            s += v;
        return s;
    }
    /** Thread time the callbacks did not bracket. Negative only if an
     *  interval was charged twice or outside System::run. */
    int64_t
    runLoopNs() const
    {
        return int64_t(threadNs) - int64_t(chargedNs());
    }

    LayerTimes &
    operator+=(const LayerTimes &o)
    {
        for (size_t l = 0; l < kNumLayers; l++) {
            selfNs[l] += o.selfNs[l];
            fired[l] += o.fired[l];
            guardAborts[l] += o.guardAborts[l];
        }
        cycleTailNs += o.cycleTailNs;
        wallNs += o.wallNs;
        threadNs += o.threadNs;
        return *this;
    }
};

class LayerTracer final : public cmd::KernelObserver
{
  public:
    explicit LayerTracer(const cmd::Kernel &k)
        : layerByPos_(layerMap(k)),
          windowed_(k.scheduler() == cmd::SchedulerKind::Parallel),
          id_(nextId().fetch_add(1) + 1)
    {
    }
    LayerTracer(const LayerTracer &) = delete;
    LayerTracer &operator=(const LayerTracer &) = delete;

    /** Call right before System::run. */
    void
    begin()
    {
        std::lock_guard<std::mutex> g(m_);
        begin_ = now();
        windowStart_ = begin_;
    }

    /** Call right after System::run; folds every thread's slot. */
    LayerTimes
    end() const
    {
        LayerTimes t;
        std::lock_guard<std::mutex> g(m_);
        t.wallNs = now() - begin_;
        t.threadNs = t.wallNs * slots_.size();
        for (const Slot &s : slots_) {
            for (size_t l = 0; l < kNumLayers; l++) {
                t.selfNs[l] += s.selfNs[l];
                t.fired[l] += s.fired[l];
                t.guardAborts[l] += s.guardAborts[l];
            }
            t.cycleTailNs += s.tailNs;
        }
        return t;
    }

    void
    ruleFired(const cmd::Rule &r, uint64_t, uint32_t) override
    {
        Slot &s = slot();
        Layer l = layerByPos_[r.schedPos()];
        charge(s, l);
        s.fired[l]++;
    }

    void
    guardFailed(const cmd::Rule &r, uint64_t, uint32_t) override
    {
        Slot &s = slot();
        Layer l = layerByPos_[r.schedPos()];
        charge(s, l);
        s.guardAborts[l]++;
    }

    /** Runs on the driving thread with every domain quiesced (after the
     *  sync barrier), so it may close every thread's interval. */
    void
    cycleEnd(uint64_t, uint32_t) override
    {
        uint64_t t = now();
        std::lock_guard<std::mutex> g(m_);
        for (Slot &s : slots_) {
            s.tailNs += t - s.last;
            s.last = t;
            s.windowStart = windowed_;
        }
        windowStart_ = t;
    }

    /** Keep Parallel's multi-cycle sync windows. */
    bool needsPerCycle() const override { return false; }

  private:
    struct Slot {
        uint64_t last = 0;
        bool windowStart = false; ///< next interval opens a sync window
        std::array<uint64_t, kNumLayers> selfNs{};
        std::array<uint64_t, kNumLayers> fired{};
        std::array<uint64_t, kNumLayers> guardAborts{};
        uint64_t tailNs = 0;
    };

    static uint64_t
    now()
    {
        return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now()
                                .time_since_epoch())
                            .count());
    }

    static std::atomic<uint64_t> &
    nextId()
    {
        static std::atomic<uint64_t> id{0};
        return id;
    }

    /** Charge the interval since this thread's previous callback to
     *  @p l, unless it opens a sync window. */
    static void
    charge(Slot &s, Layer l)
    {
        uint64_t t = now();
        if (!s.windowStart)
            s.selfNs[l] += t - s.last;
        s.windowStart = false;
        s.last = t;
    }

    /** This thread's slot, registered on its first callback. The id
     *  (not the address) identifies the tracer, so a later tracer
     *  built at a reused address never sees a stale slot. */
    Slot &
    slot()
    {
        thread_local uint64_t owner = 0;
        thread_local Slot *mine = nullptr;
        if (owner != id_) {
            std::lock_guard<std::mutex> g(m_);
            slots_.emplace_back();
            // A thread first seen mid-run starts at the current sync
            // window (every thread is idle before its first callback).
            slots_.back().last = windowStart_;
            slots_.back().windowStart = windowed_;
            mine = &slots_.back();
            owner = id_;
        }
        return *mine;
    }

    std::vector<Layer> layerByPos_;
    bool windowed_; ///< Parallel: cycleEnd closes a multi-cycle window
    uint64_t id_;
    uint64_t begin_ = 0;
    uint64_t windowStart_ = 0; ///< guarded by m_
    mutable std::mutex m_;
    std::deque<Slot> slots_;   ///< deque: slot addresses stay stable
};

} // namespace perfbench
