/**
 * @file
 * GPU DRAM model: 8 channels x 8 banks, open-row policy, 16 bytes/cycle
 * channel bandwidth (Table I). Latency-and-occupancy model: each bank and
 * channel tracks a busy-until timestamp, giving realistic queueing under
 * texture-fetch bursts without an event-driven core.
 */

#ifndef PARGPU_MEM_DRAM_HH
#define PARGPU_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace pargpu
{

/** DRAM organization and timing parameters. */
struct DramConfig
{
    unsigned channels = 8;        ///< Independent channels.
    unsigned banks = 8;           ///< Banks per channel.
    Bytes row_bytes = 2048;       ///< Row-buffer size per bank.
    Bytes line_bytes = 64;        ///< Transfer granularity.
    unsigned bytes_per_cycle = 16;///< Channel data-bus bandwidth.
    Cycle t_cas = 20;             ///< Row-hit access latency.
    Cycle t_row_miss = 44;        ///< Precharge + activate + CAS.
    Cycle t_base = 40;            ///< Controller/interconnect overhead.

    bool operator==(const DramConfig &) const = default;
};

/** Per-access result from the DRAM model. */
struct DramResult
{
    Cycle complete = 0;  ///< Cycle at which data is returned.
    bool row_hit = false;///< Whether the open row serviced the access.
};

/**
 * The DRAM subsystem. Reads are timed; writes (color/depth buffer flushes)
 * only consume channel bandwidth.
 *
 * Timing views: the cycle-approximate simulator advances one cycle counter
 * per shader cluster, and those counters drift apart with load imbalance.
 * Gating every request on globally shared busy-until timestamps would make
 * a lagging cluster queue behind another cluster's *future* — phantom
 * contention. Each requester therefore owns a private timing view of the
 * banks and buses: self-queueing (burstiness within one correctly-clocked
 * stream) is modelled exactly, while cross-requester bandwidth contention
 * — negligible below saturation — is ignored. Row-buffer state and traffic
 * statistics remain global.
 */
class DramModel
{
  public:
    /**
     * @param config  Organization/timing parameters.
     * @param views   Independent requester timing views (e.g., one per
     *                shader cluster plus one for the geometry engine).
     */
    explicit DramModel(const DramConfig &config, unsigned views = 1);

    /**
     * Timed read of one line containing @p addr, issued at @p now on
     * timing view @p view.
     */
    DramResult read(Addr addr, Cycle now, unsigned view = 0);

    /** Untimed bandwidth-only write of @p bytes starting at @p addr. */
    void write(Addr addr, Bytes bytes, Cycle now, unsigned view = 0);

    /** Reset row-buffer/busy state between frames (stats preserved). */
    void resetState();

    std::uint64_t reads() const { return reads_; }
    std::uint64_t rowHits() const { return row_hits_; }
    Bytes bytesRead() const { return bytes_read_; }
    Bytes bytesWritten() const { return bytes_written_; }

    /** Row-buffer hit rate in [0, 1]. */
    double
    rowHitRate() const
    {
        return reads_ == 0 ? 0.0
                           : static_cast<double>(row_hits_) / reads_;
    }

    const DramConfig &config() const { return config_; }

  private:
    struct Bank
    {
        Addr open_row = kInvalidAddr; ///< Shared row-buffer state.
    };

    unsigned channelOf(Addr addr) const;
    unsigned bankOf(Addr addr) const;
    Addr rowOf(Addr addr) const;

    DramConfig config_;
    unsigned views_;
    std::vector<Bank> banks_;        ///< channels * banks, channel-major.
    std::vector<Cycle> bank_until_;  ///< views * channels * banks.
    std::vector<Cycle> bus_until_;   ///< views * channels.
    std::uint64_t reads_ = 0;
    std::uint64_t row_hits_ = 0;
    Bytes bytes_read_ = 0;
    Bytes bytes_written_ = 0;
};

} // namespace pargpu

#endif // PARGPU_MEM_DRAM_HH
