/**
 * @file
 * Registry of in-flight runs (sweeps, fuzz campaigns) for the
 * /runs telemetry endpoint. The parallel sweep engine opens a
 * RunScope around each batch; the telemetry server renders the
 * live table as JSON on demand. Progress comes from the scope's
 * completed-jobs counter; throughput comes from the registry-wide
 * sim.instructions counter delta since the scope opened, so a
 * scrape mid-sweep sees monotonically increasing MIPS without any
 * cooperation from the workers.
 */

#ifndef TPRE_TELEMETRY_RUN_REGISTRY_HH
#define TPRE_TELEMETRY_RUN_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tpre::telemetry
{

/** One in-flight run; owned by the registry, updated by RunScope. */
struct RunRecord
{
    std::string name;
    std::uint64_t totalJobs = 0;
    std::atomic<std::uint64_t> completedJobs{0};
    /** obs::wallMicros() when the scope opened. */
    std::uint64_t startMicros = 0;
    /** sim.instructions aggregate when the scope opened. */
    std::uint64_t startInstructions = 0;
};

/** Process-wide table of in-flight runs. */
class RunRegistry
{
  public:
    static RunRegistry &instance();

    /** Current table as a JSON array (see DESIGN.md section 12). */
    std::string runsJson() const;

    /** Number of in-flight runs (tests). */
    std::size_t numRuns() const;

  private:
    friend class RunScope;

    RunRegistry() = default;

    std::shared_ptr<RunRecord> open(std::string name,
                                    std::uint64_t totalJobs);
    void close(const std::shared_ptr<RunRecord> &record);

    mutable std::mutex mu_;
    std::vector<std::shared_ptr<RunRecord>> runs_;
};

/** RAII registration of one run for the lifetime of the scope. */
class RunScope
{
  public:
    RunScope(std::string name, std::uint64_t totalJobs);
    ~RunScope();
    RunScope(const RunScope &) = delete;
    RunScope &operator=(const RunScope &) = delete;

    /** Mark @p n jobs finished (any thread). */
    void
    jobFinished(std::uint64_t n = 1)
    {
        record_->completedJobs.fetch_add(n);
    }

  private:
    std::shared_ptr<RunRecord> record_;
};

} // namespace tpre::telemetry

#endif // TPRE_TELEMETRY_RUN_REGISTRY_HH
