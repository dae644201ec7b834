/**
 * @file
 * The GPU memory system: per-cluster texture L1 caches, a shared L2 (the
 * LLC) and DRAM, with traffic-class accounting so benches can reproduce the
 * paper's bandwidth breakdowns (Fig. 6) and cache-scaling study (Fig. 21).
 */

#ifndef PARGPU_MEM_MEMSYS_HH
#define PARGPU_MEM_MEMSYS_HH

#include <memory>
#include <span>
#include <vector>

#include "common/annotations.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"

namespace pargpu
{

/** Who generated a memory access; drives bandwidth breakdowns. */
enum class TrafficClass
{
    Texture,    ///< Texel fetches from the texture units.
    ColorDepth, ///< Framebuffer color/depth traffic.
    Geometry,   ///< Vertex/index fetches.
};

/** Fixed access latencies of the on-chip hierarchy. */
struct MemLatencies
{
    Cycle l1_hit = 4;   ///< Texture L1 hit.
    Cycle l2_hit = 28;  ///< L2 hit (beyond the L1 lookup).

    bool operator==(const MemLatencies &) const = default;
};

/** Memory-system geometry; scale factors support the Fig. 21 sweep. */
struct MemSysConfig
{
    unsigned clusters = 4;          ///< Texture L1 instances.
    Bytes tc_size = 16 * 1024;      ///< Texture L1 capacity (Table I).
    unsigned tc_assoc = 4;
    Bytes llc_size = 128 * 1024;    ///< Shared L2 capacity (Table I).
    unsigned llc_assoc = 8;
    unsigned line_bytes = 64;
    unsigned tc_scale = 1;          ///< Texture-cache capacity multiplier.
    unsigned llc_scale = 1;         ///< LLC capacity multiplier.
    MemLatencies latencies;
    DramConfig dram;

    bool operator==(const MemSysConfig &) const = default;
};

/**
 * The full texture/framebuffer memory hierarchy.
 *
 * Timed reads walk L1 (texture class only) then L2 then DRAM; writes are
 * bandwidth-accounted only. All traffic is tallied per TrafficClass so the
 * analysis layer can split DRAM bandwidth the way Fig. 6 does.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemSysConfig &config);

    /**
     * The serial-memory-phase capability (zero runtime cost; see
     * common/annotations.hh). Shared LLC/DRAM state may only move while
     * exactly one thread runs — the geometry phase or a tile commit.
     * Every mutating entry point requires this capability;
     * ClusterMemFront::stageLines (tile recording, possibly on worker
     * threads) excludes it. GpuSimulator::renderFrame scopes a
     * PhaseGuard around each serial region, so under clang TSA
     * (-DPARGPU_TSA=ON) a future code path that touches shared memory
     * state while recording fails to compile.
     */
    PhaseCapability serial_phase;

    /**
     * Timed read of the line containing @p addr.
     *
     * @param cluster  Requesting shader cluster (selects the texture L1).
     * @param addr     Byte address.
     * @param now      Issue cycle.
     * @param cls      Traffic class for accounting.
     * @return Cycle at which the data is available.
     */
    Cycle read(unsigned cluster, Addr addr, Cycle now, TrafficClass cls)
        PARGPU_REQUIRES(serial_phase);

    /** Bandwidth-only write (framebuffer flush, etc.). */
    void write(Addr addr, Bytes bytes, Cycle now, TrafficClass cls)
        PARGPU_REQUIRES(serial_phase);

    /**
     * Commit one recorded quad: replay the L1-miss lines it staged
     * through a ClusterMemFront against the shared LLC and DRAM, in the
     * caller-chosen (canonical) order, all issued at @p now.
     *
     * @p miss_lines is the quad's slice of the front's miss log — the
     * lines that missed the cluster's L1 when the quad was recorded.
     * @p any_line says whether the quad issued any line at all: a quad
     * whose lines all hit the L1 still completes at now + the L1 hit
     * latency. Together with the L1 probes already made, this is
     * equivalent to read() of each of the quad's distinct lines at
     * @p now, returning the furthest completion.
     *
     * @return The furthest completion cycle (@p now when the quad
     *         issued no line).
     */
    Cycle commitBatch(unsigned cluster, std::span<const Addr> miss_lines,
                      Cycle now, bool any_line, TrafficClass cls)
        PARGPU_REQUIRES(serial_phase);

    /** Reset caches, DRAM state and traffic tallies for a fresh run. */
    void reset() PARGPU_REQUIRES(serial_phase);

    /** DRAM bytes moved (read + write) for @p cls. */
    Bytes trafficBytes(TrafficClass cls) const;

    /** Total DRAM bytes moved across all classes. */
    Bytes totalTrafficBytes() const;

    const SetAssocCache &textureL1(unsigned cluster) const
    { return *tex_l1_[cluster]; }
    const SetAssocCache &llc() const { return *llc_; }
    const DramModel &dram() const { return *dram_; }
    const MemSysConfig &config() const { return config_; }

    /** Dump cache/DRAM stats into @p stats under @p prefix. */
    void exportStats(StatRegistry &stats, const std::string &prefix) const;

  private:
    friend class ClusterMemFront;

    MemSysConfig config_;
    std::vector<std::unique_ptr<SetAssocCache>> tex_l1_;
    std::unique_ptr<SetAssocCache> llc_;
    std::unique_ptr<DramModel> dram_;
    Bytes traffic_[3] = {0, 0, 0};
};

/**
 * One cluster's private view of the memory system while its tiles are
 * recorded.
 *
 * The texture L1 is per-cluster already, so a front may probe it from the
 * cluster's worker thread without synchronization — provided the cluster
 * issues the same line sequence under every driver (the static
 * `tile % clusters` assignment and row-major recording guarantee that).
 * Lines that miss are appended to a log instead of touching the shared
 * LLC/DRAM; the commit step replays the log in canonical tile order
 * through MemorySystem::commitBatch(), so the LLC and DRAM state,
 * counters and completion cycles do not depend on the driver.
 */
class ClusterMemFront
{
  public:
    ClusterMemFront(MemorySystem &mem, unsigned cluster);

    /** One staged quad: a slice of the miss log. */
    struct Batch
    {
        std::uint32_t miss_begin = 0; ///< First miss-log index.
        std::uint32_t miss_end = 0;   ///< One past the last index.
        bool any_line = false;        ///< Quad issued at least one line.
    };

    /**
     * Recording: probe the cluster's L1 for each distinct line of a
     * quad (updating the L1 exactly as a timed read would) and log the
     * misses for the later commit.
     */
    Batch stageLines(std::span<const Addr> lines)
        PARGPU_EXCLUDES(mem_->serial_phase);

    /** Miss log indexed by the Batch ranges stageLines() returned. */
    const std::vector<Addr> &missLines() const { return miss_lines_; }

    unsigned cluster() const { return cluster_; }

    /** Drop the miss log (after the commit consumed it). */
    void clear() { miss_lines_.clear(); }

  private:
    MemorySystem *mem_;
    unsigned cluster_;
    std::vector<Addr> miss_lines_;
};

} // namespace pargpu

#endif // PARGPU_MEM_MEMSYS_HH
