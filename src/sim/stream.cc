#include "sim/stream.hh"

#include <atomic>
#include <mutex>
#include <set>

#include "common/log.hh"
#include "sim/interp.hh"

namespace hscd {
namespace sim {

namespace {

/**
 * Hard cap on one program's recorded ops (32 bytes each: 512 MB). No
 * workload comes near it; a program past it is rejected, not run.
 */
constexpr std::size_t kMaxStreamOps = std::size_t(1) << 24;

bool
bodyHasSync(const hir::Program &prog, const hir::StmtList &body,
            std::set<const hir::StmtList *> &seen)
{
    if (!seen.insert(&body).second)
        return false;
    for (const auto &s : body) {
        switch (s->kind()) {
          case hir::StmtKind::Sync:
            return true;
          case hir::StmtKind::Loop:
            if (bodyHasSync(
                    prog, static_cast<const hir::LoopStmt &>(*s).body,
                    seen))
                return true;
            break;
          case hir::StmtKind::IfUnknown: {
            const auto &br = static_cast<const hir::IfUnknownStmt &>(*s);
            if (bodyHasSync(prog, br.thenBody, seen) ||
                bodyHasSync(prog, br.elseBody, seen))
                return true;
            break;
          }
          case hir::StmtKind::Critical:
            if (bodyHasSync(
                    prog,
                    static_cast<const hir::CriticalStmt &>(*s).body, seen))
                return true;
            break;
          case hir::StmtKind::Call:
            if (bodyHasSync(
                    prog,
                    prog.procedures()[static_cast<const hir::CallStmt &>(
                                          *s).callee].body,
                    seen))
                return true;
            break;
          default:
            break;
        }
    }
    return false;
}

/** Does a DOALL body (transitively) contain post/wait? */
bool
doallBodyHasSync(const hir::Program &prog, const hir::LoopStmt &loop)
{
    std::set<const hir::StmtList *> seen;
    return bodyHasSync(prog, loop.body, seen);
}

/** Recording pass: interpret once, emit flat ops. */
class StreamBuilder
{
  public:
    explicit StreamBuilder(const compiler::CompiledProgram &cp)
        : _prog(cp.program), _marking(cp.marking)
    {}

    std::shared_ptr<const StreamProgram>
    build()
    {
        auto sp = std::make_shared<StreamProgram>();
        RunCtx ctx;
        TaskStream master(_prog, ctx, _prog.main().body);
        while (true) {
            TaskOp op = master.next();
            if (op.kind == TaskOp::Kind::End)
                break;
            if (op.kind == TaskOp::Kind::BeginDoall) {
                StreamOp rec;
                rec.kind = StreamOp::Kind::BeginDoall;
                rec.aux = static_cast<std::int64_t>(sp->epochs.size());
                push(sp->master, rec);
                sp->epochs.push_back(recordEpoch(op, master.env(), ctx));
            } else {
                push(sp->master, convert(op));
            }
        }
        return sp;
    }

  private:
    void
    push(std::vector<StreamOp> &out, const StreamOp &rec)
    {
        if (++_ops > kMaxStreamOps)
            fatal("op stream exceeds its cap: %d ops recorded, the cap "
                  "is %d", _ops, kMaxStreamOps);
        out.push_back(rec);
    }

    StreamOp
    convert(const TaskOp &op) const
    {
        StreamOp rec;
        switch (op.kind) {
          case TaskOp::Kind::Ref: {
            rec.kind = StreamOp::Kind::Ref;
            rec.addr = op.addr;
            rec.ref = op.ref;
            rec.array = op.array;
            rec.write = op.write;
            const compiler::Mark &mark = _marking.mark(op.ref);
            rec.markCritical =
                mark.reason == compiler::MarkReason::Critical;
            if (!op.write) {
                rec.mark = mark.kind;
                rec.distance = mark.distance;
            }
            break;
          }
          case TaskOp::Kind::Compute:
            rec.kind = StreamOp::Kind::Compute;
            rec.aux = static_cast<std::int64_t>(op.cycles);
            break;
          case TaskOp::Kind::LockAcquire:
            rec.kind = StreamOp::Kind::LockAcquire;
            break;
          case TaskOp::Kind::LockRelease:
            rec.kind = StreamOp::Kind::LockRelease;
            break;
          case TaskOp::Kind::Post:
            rec.kind = StreamOp::Kind::Post;
            rec.aux = op.flag;
            break;
          case TaskOp::Kind::Wait:
            rec.kind = StreamOp::Kind::Wait;
            rec.aux = op.flag;
            break;
          case TaskOp::Kind::CallBoundary:
            rec.kind = StreamOp::Kind::CallBoundary;
            break;
          case TaskOp::Kind::Barrier:
            rec.kind = StreamOp::Kind::Barrier;
            break;
          default:
            panic("unexpected op while recording a stream");
        }
        return rec;
    }

    /**
     * Record one parallel epoch: every iteration in index order, through
     * one task stream that shares the master's RunCtx, so the ops are
     * those of the loop run serially. Which processor runs an iteration
     * is the executor's choice at replay time.
     */
    EpochStream
    recordEpoch(const TaskOp &doall, const hir::Env &outer, RunCtx &ctx)
    {
        EpochStream ep;
        ep.hasSync = doallBodyHasSync(_prog, *doall.doall);
        ep.lo = doall.lo;
        ep.step = doall.step;
        TaskStream task(_prog, ctx, *doall.doall, outer);
        for (std::int64_t i = doall.lo; i <= doall.hi; i += doall.step) {
            task.addIteration(i);
            for (TaskOp op = task.next(); op.kind != TaskOp::Kind::End;
                 op = task.next())
                push(ep.ops, convert(op));
            ep.iterBegin.push_back(ep.ops.size());
        }
        return ep;
    }

    const hir::Program &_prog;
    const compiler::Marking &_marking;
    std::size_t _ops = 0;
};

/**
 * Per-CompiledProgram cache, hung off CompiledProgram::simCache. The
 * slot mutex serializes the first lookups, which both guarantees
 * insert-once and keeps concurrent sweep threads from recording the
 * program twice.
 */
struct CacheSlot
{
    std::mutex mu;
    std::shared_ptr<const StreamProgram> stream;
};

std::mutex g_slotMu;

// Process-wide cache telemetry, aggregated across every program's slot
// (slots die with their CompiledProgram).
std::atomic<std::uint64_t> g_streamBuilds{0};
std::atomic<std::uint64_t> g_streamHits{0};

CacheSlot &
slotFor(const compiler::CompiledProgram &cp)
{
    std::lock_guard<std::mutex> g(g_slotMu);
    if (!cp.simCache)
        cp.simCache = std::make_shared<CacheSlot>();
    return *static_cast<CacheSlot *>(cp.simCache.get());
}

} // namespace

std::size_t
StreamProgram::opCount() const
{
    std::size_t n = master.size();
    for (const EpochStream &ep : epochs)
        n += ep.ops.size();
    return n;
}

std::shared_ptr<const StreamProgram>
epochStream(const compiler::CompiledProgram &cp, const MachineConfig &)
{
    CacheSlot &slot = slotFor(cp);
    std::lock_guard<std::mutex> g(slot.mu);
    if (slot.stream) {
        ++g_streamHits;
        return slot.stream;
    }
    slot.stream = StreamBuilder(cp).build();
    ++g_streamBuilds;
    return slot.stream;
}

StreamCacheStats
streamCacheStats()
{
    StreamCacheStats s;
    s.builds = g_streamBuilds.load();
    s.hits = g_streamHits.load();
    return s;
}

} // namespace sim
} // namespace hscd
