#include "core/worker.hh"

#include <algorithm>

#include "common/log.hh"
#include "fault/failure.hh"
#include "sim/fiber.hh"
#include "sim/system.hh"

namespace bigtiny::rt
{

using sim::Core;
using sim::TimeCat;
using L = TaskLayout;

namespace
{
/** Instruction overhead charged for task dispatch bookkeeping. */
constexpr uint64_t dispatchCycles = 4;
constexpr uint64_t victimSelectCycles = 4;

/**
 * Minimum fiber-stack headroom required to start another task body.
 * Guest tasks nest (execTask -> body -> wait -> execTask ...), so a
 * corrupted task frame that re-spawns the same range forever would
 * otherwise run the fiber stack off its 256 KiB allocation and kill
 * the host with SIGSEGV. 64 KiB leaves room for one more nest plus
 * the failure-unwind path even under sanitizer frame bloat.
 */
constexpr size_t minStackHeadroom = 64 * 1024;

/**
 * Scoped coherence-checker site label: violations reported while the
 * scope is live carry @p site for the worker's core; the previous
 * label is restored on exit (labels nest across execTask recursion).
 */
class SiteScope
{
  public:
    SiteScope(check::CoherenceChecker *chk, CoreId c, const char *site)
        : chk(chk), c(c)
    {
        if (chk)
            prev = chk->setSite(c, site);
    }
    ~SiteScope()
    {
        if (chk)
            chk->setSite(c, prev);
    }
    SiteScope(const SiteScope &) = delete;
    SiteScope &operator=(const SiteScope &) = delete;

  private:
    check::CoherenceChecker *chk;
    CoreId c;
    const char *prev = nullptr;
};

/**
 * Scoped racy-read annotation (CoherenceChecker::setRacy): loads in
 * the scope are deliberately racy heuristics, exempt from the
 * checker's stale-read validation.
 */
class RacyScope
{
  public:
    RacyScope(check::CoherenceChecker *chk, CoreId c) : chk(chk), c(c)
    {
        if (chk)
            prev = chk->setRacy(c, true);
    }
    ~RacyScope()
    {
        if (chk)
            chk->setRacy(c, prev);
    }
    RacyScope(const RacyScope &) = delete;
    RacyScope &operator=(const RacyScope &) = delete;

  private:
    check::CoherenceChecker *chk;
    CoreId c;
    bool prev = false;
};

} // namespace

Worker::Worker(Runtime &rt, Core &core, int wid)
    : core(core), rt(rt), wid(wid)
{}

void
Worker::accrue()
{
    uint64_t now = core.instCount();
    rt.profiler.accrue(curProf, now - lastInst);
    lastInst = now;
}

// ---------------------------------------------------------------------
// Task creation and bookkeeping
// ---------------------------------------------------------------------

Addr
Worker::newTask(TaskFn fn, std::initializer_list<uint64_t> args)
{
    panic_if(args.size() > L::maxArgs, "too many task arguments");
    accrue();
    SiteScope site(rt.sys.mem().checker(), wid, "Worker::newTask");
    Addr t = rt.allocTaskFrame();
    DagProfiler::Idx prof = rt.taskCreated(curProf);
    // Architectural initialization: these stores flow through the
    // simulated caches like any user data (fresh frames are zero, so
    // rc/has_stolen_child need no explicit store).
    rt.taskFns.insert(reinterpret_cast<uint64_t>(fn));
    core.st<uint64_t>(t + L::fnOff, reinterpret_cast<uint64_t>(fn));
    core.st<uint64_t>(t + L::parentOff, curTask);
    int i = 0;
    for (uint64_t v : args)
        core.st<uint64_t>(t + L::argsOff + 8 * i++, v);
    core.work(dispatchCycles);
    // Profiler index is metadata, not architectural state.
    rt.sys.mem().funcWrite<uint64_t>(t + L::profOff,
                                     static_cast<uint64_t>(prof + 1));
    return t;
}

void
Worker::registerBody(const void *p)
{
    rt.liveBodies.push_back(reinterpret_cast<uint64_t>(p));
}

void
Worker::unregisterBody(const void *p)
{
    auto bits = reinterpret_cast<uint64_t>(p);
    // Registrations nest (recursive patterns across workers); remove
    // the most recent matching entry. The list stays tiny — one entry
    // per live parallel scope.
    auto it = std::find(rt.liveBodies.rbegin(), rt.liveBodies.rend(),
                        bits);
    if (it != rt.liveBodies.rend())
        rt.liveBodies.erase(std::next(it).base());
}

const void *
Worker::checkBody(Addr task, uint64_t bits)
{
    if (std::find(rt.liveBodies.begin(), rt.liveBodies.end(), bits) ==
        rt.liveBodies.end())
        core.system().raiseFailure(
            fault::Verdict::DequeCorruption,
            fault::format("task %#llx closure pointer %#llx is not a "
                          "live parallel body (worker %d at cycle "
                          "%llu) — stale or corrupted frame read",
                          (unsigned long long)task,
                          (unsigned long long)bits, wid,
                          (unsigned long long)core.now()));
    return reinterpret_cast<const void *>(bits);
}

uint64_t
Worker::arg(Addr task, int i)
{
    return core.ld<uint64_t>(task + L::argsOff + 8 * i);
}

void
Worker::setArg(Addr task, int i, uint64_t v)
{
    core.st<uint64_t>(task + L::argsOff + 8 * i, v);
}

void
Worker::setRefCount(int64_t n)
{
    panic_if(!curTask, "setRefCount outside a task");
    core.st<uint64_t>(curTask + L::rcOff, static_cast<uint64_t>(n));
}

void
Worker::execTask(Addr t)
{
    // Depth guard: unbounded guest recursion (typically a stale or
    // corrupted task frame re-spawning its own range) must surface as
    // a structured failure, not a host stack overflow.
    if (sim::Fiber::current()->stackHeadroom() < minStackHeadroom)
        core.system().raiseFailure(
            fault::Verdict::GuestError,
            fault::format("fiber stack nearly exhausted executing task "
                          "%#llx (worker %d at cycle %llu) — runaway "
                          "task recursion",
                          (unsigned long long)t, wid,
                          (unsigned long long)core.now()));
    accrue();
    Addr saved_task = curTask;
    DagProfiler::Idx saved_prof = curProf;
    curTask = t;
    curProf = rt.taskIndex(t);
    lastInst = core.instCount();

    // Runtime invariant: every task executes exactly once (host-side
    // bookkeeping; a violation means the deque or join protocol broke).
    if (!rt.executedTasks.insert(t))
        core.system().raiseFailure(
            fault::Verdict::TaskProtocol,
            fault::format("task %#llx executed twice (worker %d at "
                          "cycle %llu)",
                          (unsigned long long)t, wid,
                          (unsigned long long)core.now()));
    Runtime::Span span = rt.taskStarted(t, curProf, wid);
    uint64_t fn_bits = core.ld<uint64_t>(t + L::fnOff);
    core.work(dispatchCycles);
    if (!fn_bits)
        core.system().raiseFailure(
            fault::Verdict::DequeCorruption,
            fault::format("task %#llx has no body (worker %d at cycle "
                          "%llu) — corrupted deque entry or mailbox",
                          (unsigned long long)t, wid,
                          (unsigned long long)core.now()));
    // Stale or corrupted frame reads can return arbitrary bits here;
    // jumping through them is host UB. Every legitimate value was
    // recorded by newTask.
    if (!rt.taskFns.contains(fn_bits))
        core.system().raiseFailure(
            fault::Verdict::DequeCorruption,
            fault::format("task %#llx function pointer %#llx is not a "
                          "registered task function (worker %d at "
                          "cycle %llu) — stale or corrupted frame "
                          "read",
                          (unsigned long long)t,
                          (unsigned long long)fn_bits, wid,
                          (unsigned long long)core.now()));
    auto fn = reinterpret_cast<TaskFn>(fn_bits);
    {
        SiteScope site(rt.sys.mem().checker(), wid, "task body");
        fn(*this, t);
    }

    accrue();
    rt.taskFinished(curProf, wid);
    ++stats.tasksExecuted;
    curTask = saved_task;
    curProf = saved_prof;
}

void
Worker::joinShared(Addr t)
{
    SiteScope site(rt.sys.mem().checker(), wid, "Worker::joinShared");
    ++stats.tasksJoined;
    Addr parent = core.ld<uint64_t>(t + L::parentOff);
    if (parent)
        core.amo(mem::AmoOp::Add, parent + L::rcOff,
                 static_cast<uint64_t>(-1), 8);
}

void
Worker::retire(Addr t)
{
    // After a task has executed and joined, nothing may read its
    // frame again (frames are not recycled inside a run; see task.hh).
    if (auto *chk = rt.sys.mem().checker())
        chk->frameFree(t);
}

void
Worker::joinDtsLocal(Addr t)
{
    // Figure 3(c) lines 17-20: AMO only if some child of the parent
    // was stolen; otherwise the parent runs on this very core and a
    // plain read-modify-write is safe.
    SiteScope site(rt.sys.mem().checker(), wid, "Worker::joinDtsLocal");
    ++stats.tasksJoined;
    Addr parent = core.ld<uint64_t>(t + L::parentOff);
    if (!parent)
        return;
    if (core.ld<uint64_t>(parent + L::stolenOff)) {
        core.amo(mem::AmoOp::Add, parent + L::rcOff,
                 static_cast<uint64_t>(-1), 8);
    } else {
        uint64_t rc = core.ld<uint64_t>(parent + L::rcOff);
        core.st<uint64_t>(parent + L::rcOff, rc - 1);
    }
}

int
Worker::chooseVictim()
{
    int n = rt.numWorkers();
    if (n < 2)
        return -1;
    // Victim selection is modeled at a constant cost regardless of
    // policy; the policy logic itself is host-side scheduling state.
    core.work(victimSelectCycles, TimeCat::Sync);
    return rt.stealPolicy().chooseVictim(rt, wid);
}

// ---------------------------------------------------------------------
// spawn (Figure 3, all variants)
// ---------------------------------------------------------------------

void
Worker::spawn(Addr t)
{
    SiteScope site(rt.sys.mem().checker(), wid, "Worker::spawn");
    ++stats.tasksSpawned;
    TaskDeque &q = rt.deque(wid);
    switch (rt.variant) {
      case SchedVariant::Baseline:
        q.lockAq(core);
        q.enq(core, t);
        q.lockRl(core);
        break;
      case SchedVariant::Hcc:
        q.lockAq(core);
        core.cacheInvalidate();
        q.enq(core, t);
        core.cacheFlush();
        q.lockRl(core);
        break;
      case SchedVariant::Dts:
        core.uliDisable();
        core.work(1, TimeCat::Sync);
        q.enq(core, t);
        core.uliEnable();
        core.work(1, TimeCat::Sync);
        break;
    }
    rt.taskEnqueued(t, wid);
}

void
Worker::spawnWithAffinity(Addr t, Addr data_addr)
{
    // The hint is pure scheduling metadata (no simulated work): map
    // the data address to the L2 bank that homes it, then to the
    // cluster holding that bank, and tell the steal policy that this
    // worker has work affine to that cluster.
    const auto &cfg = rt.cfg;
    int bank =
        static_cast<int>((data_addr >> lineShift) % cfg.numBanks());
    rt.stealPolicy().noteSpawnAffinity(rt, wid, cfg.clusterOfBank(bank));
    spawn(t);
}

// ---------------------------------------------------------------------
// wait (Figure 3, all variants)
// ---------------------------------------------------------------------

void
Worker::wait()
{
    panic_if(!curTask, "wait outside a task");
    SiteScope site(rt.sys.mem().checker(), wid, "Worker::wait");
    Addr p = curTask;
    accrue();
    // Scheduling-loop overhead is not the task's own work (Cilkview
    // measures the program, not the scheduler), so suspend accrual.
    DagProfiler::Idx saved = curProf;
    curProf = DagProfiler::none;
    switch (rt.variant) {
      case SchedVariant::Baseline:
        waitBaseline(p);
        break;
      case SchedVariant::Hcc:
        waitHcc(p);
        break;
      case SchedVariant::Dts:
        waitDts(p);
        break;
    }
    accrue();
    curProf = saved;
    rt.waitExited(curProf);
}

void
Worker::waitBaseline(Addr p)
{
    TaskDeque &q = rt.deque(wid);
    while (static_cast<int64_t>(core.ld<uint64_t>(p + L::rcOff)) > 0) {
        q.lockAq(core);
        Addr t = q.deqTail(core);
        q.lockRl(core);
        if (t) {
            rt.dequeDepth(wid, core.now());
            failStreak = 0;
            takenRemotely(t); // host bookkeeping only under MESI
            execTask(t);
            joinShared(t);
            retire(t);
        } else if (!stealOnce()) {
            idleBackoff();
        }
    }
}

void
Worker::waitHcc(Addr p)
{
    TaskDeque &q = rt.deque(wid);
    while (static_cast<int64_t>(core.amoLoad(p + L::rcOff, 8)) > 0) {
        q.lockAq(core);
        core.cacheInvalidate();
        Addr t = q.deqTail(core);
        core.cacheFlush();
        q.lockRl(core);
        if (t) {
            rt.dequeDepth(wid, core.now());
            failStreak = 0;
            bool remote = takenRemotely(t);
            execTask(t);
            if (remote)
                core.cacheFlush(); // publish before the remote join
            joinShared(t);
            retire(t);
        } else if (!stealOnce()) {
            idleBackoff();
        }
    }
    // Children may have run remotely; invalidate before the parent
    // resumes so it cannot read their values stale (Figure 3(b) l.40).
    core.cacheInvalidate();
}

void
Worker::waitDts(Addr p)
{
    TaskDeque &q = rt.deque(wid);
    auto rc = static_cast<int64_t>(core.ld<uint64_t>(p + L::rcOff));
    while (rc > 0) {
        core.uliDisable();
        core.work(1, TimeCat::Sync);
        Addr t = q.deqTail(core);
        core.uliEnable();
        core.work(1, TimeCat::Sync);
        if (t) {
            rt.dequeDepth(wid, core.now());
            failStreak = 0;
            execTask(t);
            joinDtsLocal(t);
            retire(t);
        } else if (!stealOnce()) {
            idleBackoff();
        }
        // Figure 3(c) lines 37-40: rc needs an AMO read only if a
        // child escaped to another core.
        if (core.ld<uint64_t>(p + L::stolenOff))
            rc = static_cast<int64_t>(core.amoLoad(p + L::rcOff, 8));
        else
            rc = static_cast<int64_t>(core.ld<uint64_t>(p + L::rcOff));
    }
    // Invalidate only if some child actually ran elsewhere (l.43-44).
    if (core.ld<uint64_t>(p + L::stolenOff))
        core.cacheInvalidate();
}

// ---------------------------------------------------------------------
// Stealing
// ---------------------------------------------------------------------

void
Worker::idleBackoff()
{
    // Exponential backoff on repeated failed steals: keeps idle
    // thieves from hammering victim deques (and, under DTS, from
    // interrupting busy victims at a harmful rate).
    Cycle b = rt.cfg.stealBackoff << std::min(failStreak, 3u);
    ++failStreak;
    core.work(b, TimeCat::Idle);
}

bool
Worker::stealOnce()
{
    SiteScope site(rt.sys.mem().checker(), wid, "Worker::stealOnce");
    ++stats.stealAttempts;
    Runtime::Span steal = rt.stealAttempted(wid);
    int vid = chooseVictim();
    if (vid < 0) {
        ++stats.failedSteals;
        rt.stealFailed(wid);
        return false;
    }
    steal.chose(vid);
    switch (rt.variant) {
      case SchedVariant::Baseline: {
        TaskDeque &vq = rt.deque(vid);
        if (rt.stealPolicy().probeBeforeLock() && vq.empty(core))
            break;
        std::vector<Addr> extras;
        vq.lockAq(core);
        Addr t = vq.deqHead(core);
        if (t && rt.stealPolicy().stealHalf(rt, wid, vid))
            grabHalf(vq, &extras);
        vq.lockRl(core);
        if (!t)
            break;
        rt.dequeDepth(vid, core.now());
        ++stats.tasksStolen;
        failStreak = 0;
        rt.stealPolicy().onStealOutcome(rt, wid, vid, true);
        rt.taskStolen(steal, t, extras);
        if (!extras.empty())
            transferStolen(extras);
        execTask(t);
        joinShared(t);
        retire(t);
        return true;
      }
      case SchedVariant::Hcc: {
        // One elision decision per steal attempt covers both
        // invalidate points (they protect the same hand-off).
        bool elide = elideStealInv();
        TaskDeque &vq = rt.deque(vid);
        if (rt.stealPolicy().probeBeforeLock()) {
            // Synchronizing cursor reads (plain loads would be stale
            // until the victim's pre-unlock flush), lock-free so an
            // empty-looking deque costs no AMOs on the victim's lock
            // line. Still racy — a concurrent plain cursor store may
            // sit dirty in another thief's L1 — but a wrong answer
            // only costs a failed attempt, so the probe is annotated
            // out of the checker's DRF contract.
            RacyScope racy(rt.sys.mem().checker(), core.id());
            if (vq.emptySync(core))
                break;
        }
        std::vector<Addr> extras;
        vq.lockAq(core);
        if (!elide)
            core.cacheInvalidate();
        Addr t = vq.deqHead(core);
        if (t && rt.stealPolicy().stealHalf(rt, wid, vid))
            grabHalf(vq, &extras);
        core.cacheFlush();
        vq.lockRl(core);
        if (!t)
            break;
        rt.dequeDepth(vid, core.now());
        ++stats.tasksStolen;
        failStreak = 0;
        rt.stealPolicy().onStealOutcome(rt, wid, vid, true);
        rt.taskStolen(steal, t, extras);
        if (!extras.empty())
            transferStolen(extras);
        if (!elide)
            core.cacheInvalidate(); // see the victim's published values
        execTask(t);
        core.cacheFlush();          // publish ours before the join
        joinShared(t);
        retire(t);
        return true;
      }
      case SchedVariant::Dts: {
        auto resp = core.uliSendReqAndWait(vid);
        Addr t = 0;
        if (resp.ack && resp.payload)
            t = core.amoLoad(rt.mailbox(wid), 8, TimeCat::Sync);
        if (!t)
            break;
        ++stats.tasksStolen;
        failStreak = 0;
        rt.stealPolicy().onStealOutcome(rt, wid, vid, true);
        rt.taskStolen(steal, t, {});
        core.cacheInvalidate();
        execTask(t);
        core.cacheFlush();
        joinShared(t); // stolen: always an AMO (Figure 3(c) l.33)
        retire(t);
        return true;
      }
    }
    rt.stealPolicy().onStealOutcome(rt, wid, vid, false);
    ++stats.failedSteals;
    rt.stealFailed(wid);
    return false;
}

void
Worker::grabHalf(TaskDeque &vq, std::vector<Addr> *out)
{
    // Steal-half (cross-cluster transfers only; see StealPolicy):
    // with the victim's lock held, take half of what remains beyond
    // the task already popped, so the expensive remote round trip is
    // amortized over a batch. The cursor reads are ordinary
    // architectural loads of the deque metadata.
    auto head = core.ld<uint64_t>(vq.headAddr());
    auto tail = core.ld<uint64_t>(vq.tailAddr());
    uint64_t take = (tail - head) / 2;
    for (uint64_t i = 0; i < take; ++i) {
        Addr e = vq.deqHead(core);
        if (!e)
            break;
        out->push_back(e);
    }
}

void
Worker::transferStolen(const std::vector<Addr> &tasks)
{
    // Re-home batch-stolen tasks on our own deque with the spawn
    // discipline of the variant (their producers already counted
    // them as spawned). They keep remote parents, so remember them:
    // the popper must publish its cache before the cross-core join
    // under software-centric protocols (takenRemotely).
    TaskDeque &q = rt.deque(wid);
    switch (rt.variant) {
      case SchedVariant::Baseline:
        q.lockAq(core);
        for (Addr t : tasks)
            q.enq(core, t);
        q.lockRl(core);
        break;
      case SchedVariant::Hcc:
        q.lockAq(core);
        core.cacheInvalidate();
        for (Addr t : tasks)
            q.enq(core, t);
        core.cacheFlush();
        q.lockRl(core);
        break;
      case SchedVariant::Dts:
        panic("steal-half is not defined for the DTS variant");
    }
    for (Addr t : tasks)
        remoteTasks.insert(t);
    stats.tasksStolen += tasks.size();
    rt.dequeDepth(wid, core.now());
}

bool
Worker::takenRemotely(Addr t)
{
    if (remoteTasks.empty())
        return false;
    return remoteTasks.erase(t) != 0;
}

void
Worker::uliHandler(CoreId thief)
{
    // Figure 3(c) lines 47-53, running on the victim core. ULI
    // reception is implicitly disabled while we are in the handler.
    SiteScope site(rt.sys.mem().checker(), wid, "Worker::uliHandler");
    TaskDeque &q = rt.deque(wid);
    Addr t = rt.dtsStealFromTail ? q.deqTail(core) : q.deqHead(core);
    if (!t) {
        // Empty deque: reply immediately through the ULI response
        // (payload 0 = no task). The common failed-probe case must
        // not touch the mailbox or flush anything.
        core.uliSendResp(thief, true, 0);
        return;
    }
    rt.dequeDepth(wid, core.now());
    auto &inj = core.system().injector();
    Addr parent = core.ld<uint64_t>(t + L::parentOff);
    if (parent) {
        bool skip =
            inj.armed(fault::FaultSite::RtSkipStolenMark) &&
            inj.fire(fault::FaultSite::RtSkipStolenMark, wid,
                     core.now(), parent);
        if (!skip)
            core.st<uint64_t>(parent + L::stolenOff, 1);
    }
    // Publish every value the parent produced for the stolen task
    // before the thief can observe it, then hand the task pointer
    // over through the mailbox with a synchronizing store (the
    // thief's synchronizing read is never stale).
    core.cacheFlush();
    Addr publish = t;
    if (inj.armed(fault::FaultSite::RtCorruptSteal) &&
        inj.fire(fault::FaultSite::RtCorruptSteal, wid, core.now(), t))
        publish = t ^ (1ull << 33); // points into unallocated memory
    core.amo(mem::AmoOp::Swap, rt.mailbox(thief), publish, 8,
             TimeCat::Sync);
    core.uliSendResp(thief, true, 1);
}

bool
Worker::elideStealInv()
{
    auto &inj = core.system().injector();
    return inj.armed(fault::FaultSite::RtElideStealInv) &&
           inj.fire(fault::FaultSite::RtElideStealInv, wid,
                    core.now()) != nullptr;
}

// ---------------------------------------------------------------------
// Guest entry
// ---------------------------------------------------------------------

void
Worker::guestMain(const std::function<void(Worker &)> *root)
{
    if (rt.variant == SchedVariant::Dts) {
        core.uliSetHandler(
            [this](CoreId thief, uint64_t) { uliHandler(thief); });
        core.uliEnable();
        core.work(1, TimeCat::Sync);
    }
    if (root) {
        // Worker 0 runs the root task inline.
        Addr t = newTask(nullptr);
        curTask = t;
        curProf = 0;
        lastInst = core.instCount();
        ++stats.tasksSpawned;   // balance the executed count
        ++stats.tasksExecuted;
        // The root participates in the execute-exactly-once invariant
        // like any other task, so a stray re-entry panics.
        panic_if(!rt.executedTasks.insert(t),
                 "root task %#llx executed twice (worker %d)",
                 (unsigned long long)t, wid);
        Runtime::Span span = rt.taskStarted(t, curProf, wid, false);
        (*root)(*this);
        accrue();
        rt.taskFinished(curProf, wid);
        curTask = 0;
        curProf = DagProfiler::none;
        // Publish any remaining results, then signal completion.
        core.cacheFlush();
        core.amo(mem::AmoOp::Swap, rt.doneFlag(), 1, 8);
    } else {
        topLoop();
    }
    if (rt.variant == SchedVariant::Dts)
        core.uliDisable();
}

void
Worker::topLoop()
{
    // Idle workers spin on the done flag with a synchronizing read
    // (visible under every protocol) and steal in between. With the
    // single-task steal policies, their own deque is necessarily
    // empty between top-level task executions (a stolen task only
    // returns after all of its descendants joined), so probing it
    // would be pure overhead. Batch-stealing policies break that
    // invariant — transferStolen parks extra tasks on our deque — so
    // those must drain the local deque before stealing again.
    bool drain = rt.variant != SchedVariant::Dts &&
                 rt.stealPolicy().stealsBatches();
    while (core.amoLoad(rt.doneFlag(), 8, TimeCat::Idle) == 0) {
        if (drain && popOwnTask())
            continue;
        if (!stealOnce())
            idleBackoff();
    }
}

bool
Worker::popOwnTask()
{
    TaskDeque &q = rt.deque(wid);
    Addr t = 0;
    switch (rt.variant) {
      case SchedVariant::Baseline:
        q.lockAq(core);
        t = q.deqTail(core);
        q.lockRl(core);
        break;
      case SchedVariant::Hcc:
        q.lockAq(core);
        core.cacheInvalidate();
        t = q.deqTail(core);
        core.cacheFlush();
        q.lockRl(core);
        break;
      case SchedVariant::Dts:
        return false; // private deques never hold batch-stolen work
    }
    if (!t)
        return false;
    rt.dequeDepth(wid, core.now());
    failStreak = 0;
    bool remote = takenRemotely(t);
    execTask(t);
    if (remote && rt.variant == SchedVariant::Hcc)
        core.cacheFlush(); // publish before the remote join
    joinShared(t);
    retire(t);
    return true;
}

} // namespace bigtiny::rt
