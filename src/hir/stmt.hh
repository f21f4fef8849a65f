/**
 * @file
 * Statement nodes of the parallel-program IR.
 *
 * The IR models what the Polaris parallelizer hands to the coherence
 * compiler: structured code made of serial DO loops, DOALL loops, array
 * reads/writes with affine (or unknown) subscripts, procedure calls,
 * critical sections, explicit barriers, and compile-time-opaque branches.
 */

#ifndef HSCD_HIR_STMT_HH
#define HSCD_HIR_STMT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "hir/expr.hh"

namespace hscd {
namespace hir {

/** Index of an array in Program's symbol table. */
using ArrayId = std::uint32_t;
/** Unique id of a static memory reference (read or write site). */
using RefId = std::uint32_t;
/** Index of a procedure in Program's procedure table. */
using ProcIndex = std::uint32_t;

constexpr ArrayId invalidArray = static_cast<ArrayId>(-1);
constexpr RefId invalidRef = static_cast<RefId>(-1);

enum class StmtKind
{
    ArrayRef,     ///< read or write of an array element
    Compute,      ///< opaque ALU work costing N cycles
    Loop,         ///< serial DO or parallel DOALL
    IfUnknown,    ///< branch whose predicate the compiler cannot analyze
    Call,         ///< call of another procedure (globals only)
    Critical,     ///< lock-protected section
    Barrier,      ///< explicit epoch boundary
    Sync,         ///< post/wait point-to-point synchronization
};

/** How an IfUnknown branch resolves at run time (compiler can't see it). */
enum class TakePolicy
{
    Always,      ///< then-branch every time
    Never,       ///< else-branch every time
    /**
     * Then on the branch's even evaluations, else on its odd ones,
     * counted over the whole run in program order. Inside a DOALL the
     * iterations count in index order, as if the loop ran serially, so
     * every schedule and processor count takes the same arms.
     */
    Alternate,
    Hash,        ///< deterministic pseudo-random on the live bindings
};

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using StmtList = std::vector<StmtPtr>;

class Stmt
{
  public:
    explicit Stmt(StmtKind kind) : _kind(kind) {}
    virtual ~Stmt() = default;

    Stmt(const Stmt &) = delete;
    Stmt &operator=(const Stmt &) = delete;

    StmtKind kind() const { return _kind; }

  private:
    StmtKind _kind;
};

/** An array element read or write. */
class ArrayRefStmt : public Stmt
{
  public:
    ArrayRefStmt(ArrayId array, std::vector<IntExpr> subs, bool is_write,
                 RefId id)
        : Stmt(StmtKind::ArrayRef), array(array), subs(std::move(subs)),
          isWrite(is_write), id(id)
    {}

    ArrayId array;
    std::vector<IntExpr> subs;
    bool isWrite;
    RefId id;
};

/** Opaque computation consuming processor cycles. */
class ComputeStmt : public Stmt
{
  public:
    explicit ComputeStmt(Cycles cycles)
        : Stmt(StmtKind::Compute), cycles(cycles)
    {}

    Cycles cycles;
};

/** DO / DOALL loop. Bounds are inclusive; step is a positive constant. */
class LoopStmt : public Stmt
{
  public:
    LoopStmt(std::string var, IntExpr lo, IntExpr hi, std::int64_t step,
             bool parallel)
        : Stmt(StmtKind::Loop), var(std::move(var)), lo(std::move(lo)),
          hi(std::move(hi)), step(step), parallel(parallel)
    {}

    std::string var;
    IntExpr lo;
    IntExpr hi;
    std::int64_t step;
    bool parallel;
    StmtList body;
};

/** Two-way branch on a predicate the compiler must treat as opaque. */
class IfUnknownStmt : public Stmt
{
  public:
    explicit IfUnknownStmt(TakePolicy policy, std::uint32_t id)
        : Stmt(StmtKind::IfUnknown), policy(policy), id(id)
    {}

    TakePolicy policy;
    std::uint32_t id;
    StmtList thenBody;
    StmtList elseBody;
};

/** Call of another procedure. Procedures share the global arrays. */
class CallStmt : public Stmt
{
  public:
    explicit CallStmt(ProcIndex callee)
        : Stmt(StmtKind::Call), callee(callee)
    {}

    ProcIndex callee;
};

/** Lock-protected section (single global lock, as in DOALL reductions). */
class CriticalStmt : public Stmt
{
  public:
    CriticalStmt() : Stmt(StmtKind::Critical) {}

    StmtList body;
};

/** Explicit epoch boundary in serial code. */
class BarrierStmt : public Stmt
{
  public:
    BarrierStmt() : Stmt(StmtKind::Barrier) {}
};

/**
 * Point-to-point synchronization between concurrent tasks of one epoch
 * (the paper's "threads with inter-thread communication"). A post
 * carries release semantics (the poster's write buffer drains first);
 * waits block until the flag has been posted in the current epoch. The
 * flag expression is evaluated per dynamic instance, so doacross-style
 * pipelines post/wait on their iteration number.
 */
class SyncStmt : public Stmt
{
  public:
    SyncStmt(bool is_post, IntExpr flag)
        : Stmt(StmtKind::Sync), isPost(is_post), flag(std::move(flag))
    {}

    bool isPost;
    IntExpr flag;
};

/** Checked downcast helpers. */
template <typename T>
const T *
stmtAs(const Stmt &s)
{
    return dynamic_cast<const T *>(&s);
}

} // namespace hir
} // namespace hscd

#endif // HSCD_HIR_STMT_HH
