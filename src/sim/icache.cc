/**
 * @file
 * ICache implementation.
 */

#include "sim/icache.hh"

#include <algorithm>
#include <string>

#include "base/error.hh"

namespace ulecc
{

namespace
{

bool
isPowerOfTwo(uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** The line count @p config describes, or InvalidInput. */
uint32_t
checkedLineCount(const ICacheConfig &config)
{
    if (!isPowerOfTwo(config.lineBytes)
        || config.sizeBytes % config.lineBytes != 0
        || !isPowerOfTwo(config.sizeBytes / config.lineBytes)) {
        throw UleccError(Errc::InvalidInput,
                         "ICache: " + std::to_string(config.sizeBytes)
                         + " bytes in " + std::to_string(config.lineBytes)
                         + "-byte lines is not a power-of-two line count");
    }
    return config.sizeBytes / config.lineBytes;
}

} // namespace

ICache::ICache(const ICacheConfig &config)
    : config_(config), lines_(checkedLineCount(config)),
      tags_(lines_, 0), valid_(lines_, false)
{
}

void
ICache::invalidateAll()
{
    valid_.assign(lines_, false);
    bufValid_ = false;
}

uint32_t
ICache::access(uint32_t addr)
{
    stats_.accesses++;
    stats_.tagReads++;
    stats_.dataReads++;
    uint32_t idx = lineIndex(addr);
    uint32_t tag = tagOf(addr);
    if (valid_[idx] && tags_[idx] == tag) {
        stats_.hits++;
        return 0;
    }
    stats_.misses++;
    uint32_t la = lineAddr(addr);
    if (config_.prefetch && bufValid_ && bufLineAddr_ == la) {
        // Stream-buffer hit: forward to the processor and write the
        // line into the cache in the same cycle; start the next
        // prefetch.
        stats_.prefetchHits++;
        valid_[idx] = true;
        tags_[idx] = tag;
        stats_.dataWrites++;
        bufLineAddr_ = la + config_.lineBytes;
        stats_.prefetchFills++;
        return 0;
    }
    // Demand fill.
    valid_[idx] = true;
    tags_[idx] = tag;
    stats_.lineFills++;
    stats_.dataWrites++;
    if (config_.prefetch) {
        bufValid_ = true;
        bufLineAddr_ = la + config_.lineBytes;
        stats_.prefetchFills++;
    }
    return config_.missPenalty;
}

uint64_t
ICache::accessRun(uint32_t addr, uint32_t words)
{
    uint64_t stall = 0;
    while (words > 0) {
        stall += access(addr);
        // Words of the run that fall in this line, the first included.
        uint32_t offset = addr & (config_.lineBytes - 1);
        uint32_t n = std::min(words, (config_.lineBytes - offset + 3) / 4);
        creditHits(n - 1);
        addr += 4 * n;
        words -= n;
    }
    return stall;
}

uint64_t
ICache::accessLoop(uint32_t addr, uint32_t words, uint64_t iters)
{
    if (iters == 0 || words == 0)
        return 0;
    uint64_t stall = accessRun(addr, words);
    uint64_t last = uint64_t(addr) + 4 * uint64_t(words - 1);
    uint64_t span = last / config_.lineBytes - addr / config_.lineBytes + 1;
    if (span <= lines_) {
        creditHits((iters - 1) * words);
        return stall;
    }
    for (uint64_t it = 1; it < iters; ++it)
        stall += accessRun(addr, words);
    return stall;
}

} // namespace ulecc
