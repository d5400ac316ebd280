/**
 * @file
 * Analytical ASIC implementation models: silicon area (Fig 10 and
 * Fig 12), maximum frequency (Fig 11) and average power (Fig 13).
 *
 * Area is accounted bottom-up from the structures each configuration
 * instantiates (alternate register file + sparse muxing, FSMs,
 * scheduler list slots, preload buffer, renaming duplication on
 * NaxRiscv, the CV32RT snapshot bank and its extra read ports under
 * renaming), with per-core integration factors for routing
 * congestion. Frequency applies the critical-path penalties the paper
 * reports per core. Power combines static leakage (proportional to
 * area) with dynamic energy derived from the activity counters of an
 * actual simulation run — the analytical analogue of the paper's
 * gate-level waveform power flow.
 */

#ifndef RTU_ASIC_ASIC_HH
#define RTU_ASIC_ASIC_HH

#include <map>
#include <string>

#include "cores/core.hh"
#include "harness/experiment.hh"
#include "rtosunit/config.hh"

namespace rtu {

struct AreaResult
{
    double totalGE = 0;
    double areaMm2 = 0;
    double normalized = 1.0;  ///< vs the same core's vanilla build
    std::map<std::string, double> breakdownGE;
};

struct PowerResult
{
    double staticMw = 0;
    double dynamicMw = 0;
    double totalMw() const { return staticMw + dynamicMw; }
};

class AsicModel
{
  public:
    /** Area of @p core with @p unit (Fig 10; Fig 12 via listSlots). */
    static AreaResult area(CoreKind core, const RtosUnitConfig &unit);

    /** Achievable frequency in GHz (Fig 11). */
    static double fmaxGHz(CoreKind core, const RtosUnitConfig &unit);

    /**
     * Average power at @p freq_mhz using measured switching activity
     * (Fig 13; the paper runs mutex_workload at 500 MHz).
     */
    static PowerResult power(CoreKind core, const RtosUnitConfig &unit,
                             const ActivityCounters &activity,
                             double freq_mhz);

  private:
    static double baseGE(CoreKind core);
};

} // namespace rtu

#endif // RTU_ASIC_ASIC_HH
