/**
 * @file
 * Host-time ledger for the traced benchmark runs.
 *
 * One HostLedger charges steady_clock time to named layer buckets.
 * Two kinds of scopes feed it and nest in one stack:
 *
 *  - the benchmark's own LayerScope markers around calls into each
 *    module's public functions (standardCurve, ecdsaTrace, the
 *    KernelModel constructor, replayFetchTrace, evaluateChecked,
 *    Server::run, Target::generate/check, ...);
 *  - the program's existing TraceScope spans (ec.scalar_mul,
 *    ecdsa.sign, monte.execute, ...), received through the SpanSink
 *    seam in mpint/op_observer.hh.
 *
 * Each bucket accumulates self time: a scope's duration minus the
 * part of it that nested scopes cover.  The root scope's self time is
 * the unattributed remainder, so the buckets sum to the root duration
 * exactly.  The ledger also counts field operations per (domain, op,
 * bits, binary) through the OpObserver seam.
 *
 * Both seams are thread-local, so a traced run executes serially on
 * the installing thread.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "mpint/op_observer.hh"

namespace perfbench
{

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Layer bucket a program span is charged to. */
inline std::string
bucketForSpan(const std::string &name)
{
    if (name == "ec.scalar_mul" || name == "ec.scalar_mul_ladder")
        return "ec.scalar_mul";
    if (name == "ec.twin_scalar_mul")
        return "ec.twin_scalar_mul";
    if (name.rfind("ecdsa.", 0) == 0 || name.rfind("ecdh.", 0) == 0)
        return "ecdsa.protocol_self";
    if (name == "monte.execute" || name == "billie.execute")
        return "accel.execute";
    return "span." + name;
}

/** Field-operation key: (domain, op, bits, binary). */
using FieldOpKey = std::tuple<int, int, int, bool>;

class HostLedger : public ulecc::SpanSink, public ulecc::OpObserver
{
  public:
    /** Opens a scope charged to @p bucket. */
    void
    begin(const std::string &bucket)
    {
        stack_.push_back(Frame{bucket, nowNs(), 0});
    }

    /** Closes the innermost scope; returns its duration in ns. */
    uint64_t
    end()
    {
        Frame f = stack_.back();
        stack_.pop_back();
        uint64_t dur = nowNs() - f.t0;
        selfNs_[f.bucket] += static_cast<int64_t>(dur - f.childNs);
        inclusiveNs_[f.bucket] += dur;
        if (!stack_.empty())
            stack_.back().childNs += dur;
        return dur;
    }

    void
    onSpanBegin(const char *name, const char *) override
    {
        begin(bucketForSpan(name));
    }

    void
    onSpanEnd(const char *) override
    {
        end();
    }

    void
    onFieldOp(ulecc::FieldOp op, int bits, bool binary) override
    {
        ++fieldOps_[FieldOpKey{static_cast<int>(ulecc::opDomain()),
                               static_cast<int>(op), bits, binary}];
    }

    /**
     * Re-attributes @p ns of self time from @p from to @p to (used
     * where a layer's share is estimated rather than bracketed).  The
     * bucket total is unchanged.
     */
    void
    transfer(const std::string &from, const std::string &to, int64_t ns)
    {
        selfNs_[from] -= ns;
        selfNs_[to] += ns;
    }

    bool balanced() const { return stack_.empty(); }

    const std::map<std::string, int64_t> &selfNs() const { return selfNs_; }

    uint64_t
    inclusiveNs(const std::string &bucket) const
    {
        auto it = inclusiveNs_.find(bucket);
        return it == inclusiveNs_.end() ? 0 : it->second;
    }

    const std::map<FieldOpKey, uint64_t> &fieldOps() const
    {
        return fieldOps_;
    }

  private:
    struct Frame
    {
        std::string bucket;
        uint64_t t0 = 0;
        uint64_t childNs = 0;
    };

    std::vector<Frame> stack_;
    std::map<std::string, int64_t> selfNs_;
    std::map<std::string, uint64_t> inclusiveNs_;
    std::map<FieldOpKey, uint64_t> fieldOps_;
};

/** RAII layer marker; a null ledger (untraced run) makes it free. */
class LayerScope
{
  public:
    LayerScope(HostLedger *ledger, const char *bucket) : ledger_(ledger)
    {
        if (ledger_)
            ledger_->begin(bucket);
    }

    ~LayerScope()
    {
        if (ledger_)
            ledger_->end();
    }

    LayerScope(const LayerScope &) = delete;
    LayerScope &operator=(const LayerScope &) = delete;

  private:
    HostLedger *ledger_;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
