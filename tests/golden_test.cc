/**
 * @file
 * Golden bit-identity regression for the hot-path overhaul: the
 * fast simulator's Figure-5 grid, captured (at %.17g, so every
 * double round-trips exactly) from the tree immediately before the
 * allocation-free trace / flat-memory rework. Any optimization that
 * changes even one counter or one ULP of a rate shows up here.
 *
 * The grid is 4 benchmarks x the 13 figure5Grid() points at a
 * 50k-instruction budget — small enough to run in a normal test
 * cycle, large enough to exercise the trace cache, the
 * preconstruction engine and the stats plumbing end to end.
 *
 * A second table pins timing mode the same way: every
 * ProcessorStats counter of the TraceProcessor on the Figure 6/8
 * configurations, so the event-driven timing loop stays
 * cycle-for-cycle identical to the loop that ticked every cycle.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "par/parallel_sweep.hh"
#include "sim/simulator.hh"
#include "tproc/processor.hh"

namespace tpre
{
namespace
{

struct GoldenRow
{
    const char *benchmark;
    std::size_t tcEntries;
    std::size_t pbEntries;
    std::uint64_t instructions;
    std::uint64_t cycles;
    std::uint64_t traces;
    std::uint64_t tcMisses;
    std::uint64_t pbHits;
    double missesPerKi;
    double icacheSupplyPerKi;
    double icacheMissesPerKi;
    double icacheMissSupplyPerKi;
    std::uint64_t preconTracesConstructed;
    std::uint64_t preconBufferHits;
};

// Captured pre-overhaul; doubles printed with %.17g (exact).
const GoldenRow kGolden[] = {
    {"compress", 64, 0, 50003, 12347, 3473, 581, 0, 11.619302841829491, 166.05003699778013, 0.99994000359978397, 6.2796232226066433, 0, 0},
    {"compress", 128, 0, 50003, 12186, 3473, 331, 0, 6.6196028238305704, 93.774373537587749, 0.99994000359978397, 6.2796232226066433, 0, 0},
    {"compress", 256, 0, 50003, 12126, 3473, 233, 0, 4.6597204167749933, 66.276023438593683, 0.99994000359978397, 6.2796232226066433, 0, 0},
    {"compress", 512, 0, 50003, 12112, 3473, 205, 0, 4.0997540147591147, 57.816531008139513, 0.99994000359978397, 6.2796232226066433, 0, 0},
    {"compress", 1024, 0, 50003, 12103, 3473, 192, 0, 3.8397696138231705, 54.096754194748314, 0.99994000359978397, 6.2796232226066433, 0, 0},
    {"compress", 64, 32, 50003, 11957, 3473, 442, 139, 8.8394696318220909, 129.61222326660399, 1.059936403815771, 2.4598524088554687, 2078, 139},
    {"compress", 64, 64, 50003, 11931, 3473, 398, 183, 7.9595224286542807, 116.6929984200948, 1.059936403815771, 2.4598524088554687, 2231, 183},
    {"compress", 128, 64, 50003, 11791, 3473, 214, 117, 4.2797432154070751, 62.376257424554524, 1.059936403815771, 2.1398716077035376, 2369, 117},
    {"compress", 128, 128, 50003, 11774, 3473, 192, 139, 3.8397696138231705, 56.236625802451854, 1.059936403815771, 2.1398716077035376, 2717, 139},
    {"compress", 256, 128, 50003, 11745, 3473, 137, 96, 2.739835609863408, 40.077595344279345, 1.059936403815771, 2.1398716077035376, 2789, 96},
    {"compress", 256, 256, 50003, 11734, 3473, 122, 111, 2.4398536087834728, 35.857848529088251, 1.059936403815771, 2.1398716077035376, 3036, 111},
    {"compress", 512, 256, 50003, 11723, 3473, 105, 100, 2.0998740075595466, 30.798152110873346, 1.059936403815771, 2.1398716077035376, 3042, 100},
    {"compress", 512, 512, 50003, 11722, 3473, 100, 105, 1.9998800071995679, 29.218246905185691, 1.059936403815771, 2.1398716077035376, 3049, 105},
    {"gcc", 64, 0, 50003, 17889, 3550, 2212, 0, 44.237345759254445, 625.56246625202493, 10.759354438733675, 71.155730656160628, 0, 0},
    {"gcc", 128, 0, 50003, 17781, 3550, 2036, 0, 40.717556946583208, 577.14537127772337, 10.759354438733675, 71.155730656160628, 0, 0},
    {"gcc", 256, 0, 50003, 17667, 3550, 1797, 0, 35.93784372937624, 508.62948223106616, 10.759354438733675, 71.155730656160628, 0, 0},
    {"gcc", 512, 0, 50003, 17545, 3550, 1549, 0, 30.978141311521309, 438.17370957742537, 10.759354438733675, 71.155730656160628, 0, 0},
    {"gcc", 1024, 0, 50003, 17457, 3550, 1358, 0, 27.158370497770132, 382.55704657720537, 10.759354438733675, 71.155730656160628, 0, 0},
    {"gcc", 64, 32, 50003, 16745, 3550, 1995, 217, 39.897606143631386, 564.76611403315803, 11.079335239885607, 58.57648541087535, 2491, 217},
    {"gcc", 64, 64, 50003, 16764, 3550, 1965, 247, 39.297642141471513, 556.20662760234381, 11.099334039957602, 58.736475811451314, 2983, 247},
    {"gcc", 128, 64, 50003, 16662, 3550, 1777, 259, 35.537867727936323, 503.88976661400318, 11.099334039957602, 59.216447013179206, 3224, 259},
    {"gcc", 128, 128, 50003, 16528, 3550, 1736, 300, 34.7179169249845, 492.89042657440552, 11.059336439813611, 57.556546607203565, 3588, 300},
    {"gcc", 256, 128, 50003, 16409, 3550, 1494, 303, 29.878207307561546, 424.23454592724437, 11.079335239885607, 57.756534607923527, 3925, 303},
    {"gcc", 256, 256, 50003, 16394, 3550, 1470, 327, 29.39823610583365, 416.93498390096596, 11.099334039957602, 57.69653820770754, 4009, 327},
    {"gcc", 512, 256, 50003, 16248, 3550, 1262, 287, 25.23848569085855, 358.09851408915466, 11.119332840029598, 57.196568205907646, 4225, 287},
    {"gcc", 512, 512, 50003, 16251, 3550, 1238, 311, 24.758514489130651, 351.63890166590005, 11.119332840029598, 57.236565806051637, 4248, 311},
    {"go", 64, 0, 50005, 18121, 3531, 2031, 0, 40.615938406159387, 576.14238576142384, 11.43885611438856, 81.031896810318969, 0, 0},
    {"go", 128, 0, 50005, 18023, 3531, 1880, 0, 37.596240375962402, 534.28657134286573, 11.43885611438856, 81.031896810318969, 0, 0},
    {"go", 256, 0, 50005, 17948, 3531, 1705, 0, 34.096590340965903, 484.51154884511544, 11.43885611438856, 81.031896810318969, 0, 0},
    {"go", 512, 0, 50005, 17853, 3531, 1515, 0, 30.296970302969704, 428.89711028897108, 11.43885611438856, 81.031896810318969, 0, 0},
    {"go", 1024, 0, 50005, 17775, 3531, 1365, 0, 27.297270272972703, 386.26137386261371, 11.43885611438856, 81.031896810318969, 0, 0},
    {"go", 64, 32, 50005, 16851, 3531, 1852, 179, 37.036296370362962, 527.36726327367262, 12.018798120187981, 67.073292670732926, 2592, 179},
    {"go", 64, 64, 50005, 16737, 3531, 1807, 224, 36.136386361363861, 516.06839316068385, 11.998800119988001, 65.493450654934506, 2861, 224},
    {"go", 128, 64, 50005, 16628, 3531, 1658, 222, 33.156684331566844, 474.6525347465253, 12.07879212078792, 65.733426657334263, 3078, 222},
    {"go", 128, 128, 50005, 16592, 3531, 1628, 252, 32.556744325567443, 465.41345865413456, 12.07879212078792, 65.333466653334668, 3417, 252},
    {"go", 256, 128, 50005, 16520, 3531, 1471, 234, 29.417058294170584, 420.35796420357963, 12.138786121387861, 65.233476652334758, 3556, 234},
    {"go", 256, 256, 50005, 16487, 3531, 1430, 275, 28.597140285971403, 409.4590540945905, 12.158784121587841, 65.233476652334758, 3888, 275},
    {"go", 512, 256, 50005, 16401, 3531, 1267, 248, 25.337466253374661, 361.50384961503846, 12.158784121587841, 65.313468653134677, 4134, 248},
    {"go", 512, 512, 50005, 16394, 3531, 1245, 270, 24.897510248975102, 355.26447355264474, 12.158784121587841, 65.313468653134677, 4168, 270},
    {"vortex", 64, 0, 50012, 17499, 3486, 2075, 0, 41.490042389826442, 598.6563224826042, 9.9376149724066227, 59.785651443653521, 0, 0},
    {"vortex", 128, 0, 50012, 17420, 3486, 1930, 0, 38.590738222826523, 557.68615532272258, 9.9376149724066227, 59.785651443653521, 0, 0},
    {"vortex", 256, 0, 50012, 17321, 3486, 1715, 0, 34.291769975205952, 496.600815804207, 9.9376149724066227, 59.785651443653521, 0, 0},
    {"vortex", 512, 0, 50012, 17180, 3486, 1425, 0, 28.493161641206111, 412.74094217387824, 9.9376149724066227, 59.785651443653521, 0, 0},
    {"vortex", 1024, 0, 50012, 17061, 3486, 1178, 0, 23.554346956730384, 340.91817963688715, 9.9376149724066227, 59.785651443653521, 0, 0},
    {"vortex", 64, 32, 50012, 16497, 3486, 1844, 231, 36.871150923778295, 534.65168359593702, 10.137566983923858, 48.588338798688312, 2228, 231},
    {"vortex", 64, 64, 50012, 16378, 3486, 1774, 301, 35.471486843157642, 514.97640566264101, 10.157562185075582, 47.76853555146765, 2529, 301},
    {"vortex", 128, 64, 50012, 16313, 3486, 1624, 306, 32.472206670399103, 472.18667519795247, 10.157562185075582, 47.828521154922818, 2786, 306},
    {"vortex", 128, 128, 50012, 16217, 3486, 1599, 331, 31.972326641606013, 466.26809565704229, 10.177557386227305, 47.048708310005601, 3168, 331},
    {"vortex", 256, 128, 50012, 16145, 3486, 1414, 301, 28.273214428537152, 411.90114372550585, 10.197552587379029, 47.348636327281454, 3417, 301},
    {"vortex", 256, 256, 50012, 16140, 3486, 1380, 335, 27.593377589378548, 402.38342797728546, 10.217547788530753, 47.268655522674557, 3465, 335},
    {"vortex", 512, 256, 50012, 15993, 3486, 1165, 260, 23.294409341757977, 340.0983763896665, 10.197552587379029, 46.188914660481487, 3636, 260},
    {"vortex", 512, 512, 50012, 15952, 3486, 1140, 285, 22.794529312964887, 333.59993601535632, 10.177557386227305, 46.188914660481487, 3665, 285},
};

TEST(GoldenTest, Fig5GridBitIdenticalToPreOverhaulCapture)
{
    Simulator sim;
    const std::vector<SizePoint> grid = figure5Grid();
    std::size_t row = 0;
    for (const char *name : {"compress", "gcc", "go", "vortex"}) {
        SimConfig base;
        base.benchmark = name;
        base.maxInsts = 50000;
        const std::vector<SimResult> results =
            par::runParallelSweep(sim, base, grid);
        ASSERT_EQ(results.size(), grid.size());
        for (const SimResult &r : results) {
            ASSERT_LT(row, std::size(kGolden));
            const GoldenRow &g = kGolden[row];
            SCOPED_TRACE(std::string(g.benchmark) + " tc=" +
                         std::to_string(g.tcEntries) + " pb=" +
                         std::to_string(g.pbEntries));
            ASSERT_EQ(r.config.benchmark, g.benchmark);
            ASSERT_EQ(r.config.traceCacheEntries, g.tcEntries);
            ASSERT_EQ(r.config.preconBufferEntries, g.pbEntries);
            EXPECT_EQ(r.instructions, g.instructions);
            EXPECT_EQ(r.cycles, g.cycles);
            EXPECT_EQ(r.traces, g.traces);
            EXPECT_EQ(r.tcMisses, g.tcMisses);
            EXPECT_EQ(r.pbHits, g.pbHits);
            EXPECT_EQ(r.missesPerKi, g.missesPerKi);
            EXPECT_EQ(r.icacheSupplyPerKi, g.icacheSupplyPerKi);
            EXPECT_EQ(r.icacheMissesPerKi, g.icacheMissesPerKi);
            EXPECT_EQ(r.icacheMissSupplyPerKi,
                      g.icacheMissSupplyPerKi);
            EXPECT_EQ(r.precon.tracesConstructed,
                      g.preconTracesConstructed);
            EXPECT_EQ(r.precon.bufferHits, g.preconBufferHits);
            ++row;
        }
    }
    EXPECT_EQ(row, std::size(kGolden));
}

// ---------------------------------------------------------------
// Timing mode: every ProcessorStats counter of the TraceProcessor
// on the Figure 6/8 configurations (256TC vs 128TC+128PB, prep off
// and on) at a 50k-instruction budget, captured from the
// cycle-by-cycle loop before the event-driven backend and loop
// replaced it. Any change to a simulated cycle shows up here.
// ---------------------------------------------------------------

const char *const kTimingFields[] = {
    "instructions", "cycles", "traces", "tcHits", "pbHits",
    "tcMisses", "ntpCorrect", "ntpWrong", "ntpNone",
    "slowPathInsts", "slowMispredicts",
    "icache.demandAccesses", "icache.demandMisses",
    "icache.preconAccesses", "icache.preconMisses",
    "backend.instsIssued", "backend.dcacheAccesses",
    "backend.dcacheMisses", "backend.busTransfers",
    "backend.busStalls",
    "precon.startPointsPushed", "precon.regionsStarted",
    "precon.regionsCompleted", "precon.regionsCaughtUp",
    "precon.regionsPrefetchFull", "precon.regionsBuffersFull",
    "precon.regionsWarm", "precon.tracesConstructed",
    "precon.tracesBuffered", "precon.tracesAlreadyInTc",
    "precon.bufferHits", "precon.linesFetched",
    "prep.tracesProcessed", "prep.constsPropagated",
    "prep.opsFused", "prep.instsMoved",
};
constexpr std::size_t kTimingFieldCount = std::size(kTimingFields);

/** The counters of @p s in kTimingFields order. */
std::vector<std::uint64_t>
timingCounters(const ProcessorStats &s)
{
    return {
        s.instructions, s.cycles, s.traces, s.tcHits, s.pbHits,
        s.tcMisses, s.ntpCorrect, s.ntpWrong, s.ntpNone,
        s.slowPathInsts, s.slowMispredicts,
        s.icache.demandAccesses, s.icache.demandMisses,
        s.icache.preconAccesses, s.icache.preconMisses,
        s.backend.instsIssued, s.backend.dcacheAccesses,
        s.backend.dcacheMisses, s.backend.busTransfers,
        s.backend.busStalls,
        s.precon.startPointsPushed, s.precon.regionsStarted,
        s.precon.regionsCompleted, s.precon.regionsCaughtUp,
        s.precon.regionsPrefetchFull, s.precon.regionsBuffersFull,
        s.precon.regionsWarm, s.precon.tracesConstructed,
        s.precon.tracesBuffered, s.precon.tracesAlreadyInTc,
        s.precon.bufferHits, s.precon.linesFetched,
        s.prep.tracesProcessed, s.prep.constsPropagated,
        s.prep.opsFused, s.prep.instsMoved,
    };
}

struct TimingGoldenRow
{
    const char *benchmark;
    bool precon; ///< 128TC+128PB instead of 256TC
    bool prep;
    std::uint64_t counters[kTimingFieldCount];
};

const TimingGoldenRow kTimingGolden[] = {
    {"gcc", false, false, {50003, 52870, 3554, 1758, 0, 1797, 1688, 733, 1133, 28399, 688, 4679, 538, 0, 0, 50018, 12278, 109, 30303, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"gcc", false, true, {50003, 48860, 3554, 1758, 0, 1797, 1688, 733, 1133, 28399, 688, 4679, 538, 0, 0, 49054, 12278, 109, 30278, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1797, 242, 1071, 11133}},
    {"gcc", true, false, {50003, 50890, 3554, 1519, 673, 1363, 1688, 733, 1133, 25390, 589, 4158, 323, 3686, 246, 50018, 12278, 108, 30832, 3, 509, 507, 227, 130, 77, 70, 2, 9615, 8695, 500, 673, 3686, 0, 0, 0, 0}},
    {"gcc", true, true, {50003, 46361, 3554, 1519, 667, 1369, 1688, 733, 1133, 25477, 590, 4165, 328, 3667, 240, 48931, 12278, 108, 30734, 2, 508, 506, 223, 135, 79, 66, 2, 9465, 8568, 493, 667, 3667, 2036, 242, 1222, 12711}},
    {"go", false, false, {50005, 53768, 3535, 1828, 0, 1707, 1567, 765, 1203, 27794, 751, 4687, 572, 0, 0, 50006, 12137, 99, 29316, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"go", false, true, {50005, 49532, 3535, 1828, 0, 1707, 1567, 765, 1203, 27794, 751, 4687, 572, 0, 0, 49038, 12138, 99, 29196, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1707, 186, 981, 10522}},
    {"go", true, false, {50005, 51899, 3535, 1653, 576, 1306, 1567, 765, 1203, 24893, 609, 4175, 353, 3347, 280, 50006, 12137, 100, 29732, 0, 475, 473, 210, 133, 67, 61, 2, 8372, 7449, 528, 576, 3347, 0, 0, 0, 0}},
    {"go", true, true, {50005, 47079, 3535, 1653, 578, 1304, 1567, 765, 1203, 24908, 611, 4176, 354, 3290, 277, 48875, 12138, 100, 29731, 2, 473, 471, 205, 137, 67, 60, 2, 8217, 7318, 511, 578, 3290, 1882, 186, 1070, 11666}},
    {"perl", false, false, {50000, 48224, 3541, 2354, 0, 1187, 2228, 666, 647, 18589, 469, 3061, 272, 0, 0, 50011, 11968, 62, 31083, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"perl", false, true, {50000, 42989, 3541, 2354, 0, 1187, 2228, 666, 647, 18589, 469, 3061, 272, 0, 0, 48472, 11968, 62, 31201, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1187, 256, 773, 7437}},
    {"perl", true, false, {50000, 46954, 3541, 2019, 576, 946, 2228, 666, 647, 17282, 390, 2854, 142, 3185, 152, 50011, 11968, 62, 31424, 0, 433, 432, 226, 88, 73, 40, 5, 7679, 6678, 699, 576, 3185, 0, 0, 0, 0}},
    {"perl", true, true, {50000, 41492, 3541, 2019, 570, 952, 2228, 666, 647, 17344, 390, 2866, 142, 3143, 152, 48424, 11968, 62, 31454, 0, 432, 431, 220, 95, 68, 43, 5, 7490, 6520, 673, 570, 3143, 1522, 256, 1035, 9521}},
    {"vortex", false, false, {50012, 53046, 3489, 1774, 0, 1716, 1924, 583, 982, 27118, 519, 4415, 497, 0, 0, 50025, 12999, 96, 31877, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"vortex", false, true, {50012, 47353, 3489, 1774, 0, 1716, 1924, 583, 982, 27118, 519, 4415, 497, 0, 0, 49121, 13001, 96, 31769, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1716, 210, 984, 11782}},
    {"vortex", true, false, {50012, 51099, 3489, 1559, 836, 1095, 1924, 583, 982, 21531, 381, 3517, 258, 3488, 267, 50025, 12999, 98, 32398, 0, 461, 458, 203, 125, 88, 40, 2, 8440, 7613, 454, 836, 3488, 0, 0, 0, 0}},
    {"vortex", true, true, {50012, 44373, 3489, 1559, 828, 1103, 1924, 583, 982, 21618, 381, 3529, 258, 3421, 267, 48905, 13001, 98, 32304, 3, 461, 458, 192, 142, 82, 40, 2, 8107, 7308, 431, 828, 3421, 1931, 210, 1109, 13269}},
};

TEST(GoldenTest, TimingGridBitIdenticalToCycleLoopCapture)
{
    Simulator sim;
    for (const TimingGoldenRow &g : kTimingGolden) {
        SimConfig cfg;
        cfg.benchmark = g.benchmark;
        cfg.mode = SimMode::Timing;
        cfg.maxInsts = 50000;
        cfg.traceCacheEntries = g.precon ? 128 : 256;
        cfg.preconBufferEntries = g.precon ? 128 : 0;
        cfg.prepEnabled = g.prep;
        SCOPED_TRACE(std::string(g.benchmark) +
                     (g.precon ? " 128TC+128PB" : " 256TC") +
                     (g.prep ? " prep" : ""));
        const auto wl = sim.workload(cfg.benchmark, cfg.workloadSeed);
        TraceProcessor proc(wl->program, cfg.toProcessorConfig());
        const std::vector<std::uint64_t> got =
            timingCounters(proc.run(cfg.maxInsts));
        ASSERT_EQ(got.size(), kTimingFieldCount);
        for (std::size_t i = 0; i < kTimingFieldCount; ++i)
            EXPECT_EQ(got[i], g.counters[i]) << kTimingFields[i];
    }
}

} // namespace
} // namespace tpre
