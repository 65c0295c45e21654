/**
 * @file
 * The host-speed gauge: a fixed reference kernel, timed next to
 * every timed interval of the benchmark, whose rate says how fast
 * the host is running at that moment (README.md, "Host-speed
 * gauge"). The kernel is this benchmark's own code and calls
 * nothing in the library, so a change to the library cannot move
 * it.
 */

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "perfbench.hh"

namespace tpb
{
namespace
{

/** Entries of the kernel's table (1 MiB of 32-bit words). */
constexpr std::size_t kTableEntries = std::size_t{1} << 18;

/** Distinct operations the kernel dispatches among. */
constexpr std::size_t kOperations = 512;

/** Readings each thread takes in hostSpeedAll. */
constexpr unsigned kReadingsPerThread = 3;

/** Kernel units per reading; a unit is 1024 dispatched operations. */
constexpr std::uint64_t kUnitsPerReading = 64;

/**
 * Units per second one thread completed, as a median over a run, on
 * the host the benchmark was calibrated on (README.md, noise
 * record). A host speed of 1 means this rate.
 */
constexpr double kNominalUnitsPerSecond = 18000.0;

/**
 * One operation of the kernel: mixes the state with constants of its
 * own, loads and stores two table words, and takes two branches on
 * random bits. Each K is separate code, so the kernel runs through
 * some 50 KB of instructions and its indirect calls and branches are
 * hard to predict, as in the simulator's dispatch loops.
 */
template <unsigned K>
[[gnu::noinline]] std::uint64_t
operation(std::uint64_t x, std::uint32_t *table)
{
    constexpr std::size_t mask = kTableEntries - 1;
    constexpr std::uint64_t mul1 = 0x9e3779b97f4a7c15ULL * (2 * K + 1);
    constexpr std::uint64_t mul2 =
        (0xbf58476d1ce4e5b9ULL ^ (K * 0x1000193ULL)) | 1;
    x ^= x >> (K % 23 + 7);
    x *= mul1;
    std::uint32_t &a = table[(x >> 20) & mask];
    if ((x >> (K % 17 + 30)) & 1)
        a += static_cast<std::uint32_t>(x >> 3);
    else
        x += a;
    x ^= x << (K % 13 + 5);
    x *= mul2;
    std::uint32_t &b = table[(x >> 24) & mask];
    if ((x >> (K % 11 + 40)) & 1)
        b ^= static_cast<std::uint32_t>(x);
    else
        x -= b * (K | 1);
    return x + K;
}

using Operation = std::uint64_t (*)(std::uint64_t, std::uint32_t *);

template <std::size_t... K>
constexpr std::array<Operation, sizeof...(K)>
operationTable(std::index_sequence<K...>)
{
    return {&operation<K>...};
}

constexpr std::array<Operation, kOperations> kOperationTable =
    operationTable(std::make_index_sequence<kOperations>{});

/** Run @p units units of the kernel over @p table. */
[[gnu::noinline]] std::uint64_t
referenceKernel(std::uint32_t *table, std::uint64_t units)
{
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    for (std::uint64_t i = 0; i < units * 1024; ++i)
        x = kOperationTable[(x >> 7) & (kOperations - 1)](x, table);
    return x;
}

} // namespace

double
hostSpeed()
{
    // Filled just before the timing, so that the reading does not
    // depend on what the simulator left in the caches.
    std::vector<std::uint32_t> table(kTableEntries);
    tpre::Rng rng(0x7470626e63680002ULL);
    for (std::uint32_t &v : table)
        v = static_cast<std::uint32_t>(rng.next());
    const std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    volatile std::uint64_t sink =
        referenceKernel(table.data(), kUnitsPerReading);
    const double seconds = secondsSince(start);
    (void)sink;
    return static_cast<double>(kUnitsPerReading) / seconds /
           kNominalUnitsPerSecond;
}

double
hostSpeedAll(unsigned threads)
{
    if (threads <= 1)
        return hostSpeed();
    // One thread per CPU of the process's affinity mask: threads that
    // start on one CPU and wait to be spread out would read the
    // scheduler instead of the host.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
    const bool pin = cpus.size() >= threads;
    std::vector<double> readings(threads * kReadingsPerThread);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            if (pin) {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(cpus[t], &one);
                pthread_setaffinity_np(pthread_self(), sizeof one, &one);
            }
            for (unsigned r = 0; r < kReadingsPerThread; ++r)
                readings[t * kReadingsPerThread + r] = hostSpeed();
        });
    for (std::thread &th : pool)
        th.join();
    std::sort(readings.begin(), readings.end());
    return readings[readings.size() / 2];
}

} // namespace tpb
