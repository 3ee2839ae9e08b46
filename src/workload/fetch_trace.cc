/**
 * @file
 * Fetch-trace replay implementation.
 */

#include "workload/fetch_trace.hh"

namespace ulecc
{

namespace
{

/** Static code map (word counts, -O2-typical footprints). */
struct CodeMap
{
    // Byte base addresses of each routine region.
    uint32_t shaBase, protoBase, scalarBase, pdblBase, paddBase;
    uint32_t mulBase, redBase, sqrBase, addBase, invBase, omulBase;

    static CodeMap
    build()
    {
        CodeMap m{};
        uint32_t a = 0;
        auto place = [&](uint32_t words) {
            uint32_t base = a;
            a += words * 4;
            return base;
        };
        m.shaBase = place(1400);    // SHA-256 + HMAC-DRBG
        m.protoBase = place(700);   // ECDSA driver, mod-n helpers
        m.scalarBase = place(400);  // window recode + scalar loop
        m.pdblBase = place(260);    // point doubling routine
        m.paddBase = place(280);    // mixed point addition routine
        m.mulBase = place(110);     // field multiply kernel
        m.redBase = place(120);     // NIST reduction kernel
        m.sqrBase = place(90);      // field squaring kernel
        m.addBase = place(40);      // field add/sub kernel
        m.invBase = place(130);     // EEA inversion kernel
        m.omulBase = place(130);    // order-field multiply + Barrett
        return m;
    }
};

class Replayer
{
  public:
    Replayer(const ICacheConfig &config, int k)
        : cache_(config), map_(CodeMap::build()), k_(k)
    {
        cache_.invalidateAll();
    }

    /** Fetches @p words sequential instructions from @p base. */
    void
    block(uint32_t base, int words)
    {
        cache_.accessRun(base, words);
        fetches_ += words;
    }

    /** A loop: @p body words executed @p iters times. */
    void
    loop(uint32_t base, int body, int iters)
    {
        cache_.accessLoop(base, body, iters);
        fetches_ += uint64_t(body) * uint64_t(iters);
    }

    void
    fieldOp(OpEvent ev)
    {
        // Caller glue alternates between the double and add routines,
        // mimicking the point-arithmetic control flow.
        uint32_t caller = (opIndex_ % 3 == 2) ? map_.paddBase
                                              : map_.pdblBase;
        block(caller + (opIndex_ * 52) % 800, 13);
        ++opIndex_;
        // Every handful of field ops the scalar loop advances.
        if (opIndex_ % 11 == 0)
            block(map_.scalarBase, 28);

        bool order = ev.domain() == OpDomain::OrderField;
        switch (ev.op()) {
          case FieldOp::Mul:
          case FieldOp::Sqr: {
            uint32_t base = order ? map_.omulBase
                : (ev.op() == FieldOp::Mul ? map_.mulBase
                                           : map_.sqrBase);
            // Nested multiply loops: outer k, inner k of ~9 words.  The
            // outer loop adds no fetches of its own, so the nest is
            // one loop of k*k iterations.
            loop(base + 16, 9, k_ * k_);
            block(base, 4);
            // Reduction sweep.
            loop(map_.redBase, 10, k_);
            block(map_.redBase + 40, 18);
            break;
          }
          case FieldOp::Add:
          case FieldOp::Sub:
            loop(map_.addBase, 12, k_);
            break;
          case FieldOp::Reduce:
            loop(map_.redBase, 10, k_);
            break;
          case FieldOp::Inv:
            // EEA: long loop over the inversion kernel + helpers.
            for (int it = 0; it < 2 * 32 * k_; ++it) {
                block(map_.invBase, 22);
                if (it % 7 == 0)
                    block(map_.addBase, 12);
            }
            break;
        }
    }

    void
    fixedOverhead(bool sign)
    {
        // Hash + (for signing) HMAC-DRBG: long streaming passes.
        loop(map_.shaBase, 1100, sign ? 14 : 4);
        block(map_.protoBase, 600);
        loop(map_.scalarBase, 120, 3); // recoding
    }

    const ICache &cache() const { return cache_; }
    uint64_t fetches() const { return fetches_; }

  private:
    ICache cache_;
    CodeMap map_;
    int k_;
    uint64_t fetches_ = 0;
    uint64_t opIndex_ = 0;
};

} // namespace

FetchReplayResult
replayFetchTrace(CurveId curve, MicroArch arch, const ICacheConfig &config)
{
    (void)arch; // kernel footprints are arch-independent to first order
    const EcdsaTrace &trace = ecdsaTrace(curve);
    const Curve &c = standardCurve(curve);
    int k = (c.fieldBits() + 31) / 32;

    Replayer rep(config, k);
    rep.fixedOverhead(true);
    for (OpEvent ev : trace.signSeq)
        rep.fieldOp(ev);
    rep.fixedOverhead(false);
    for (OpEvent ev : trace.verifySeq)
        rep.fieldOp(ev);

    FetchReplayResult out;
    out.stats = rep.cache().stats();
    out.fetches = rep.fetches();
    return out;
}

} // namespace ulecc
