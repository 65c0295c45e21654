#include "tproc/backend.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace tpre
{

TimingBackend::TimingBackend(BackendConfig config)
    : config_(config), dcache_(config.dcacheGeometry),
      peBusy_(config.numPes, false), peTrace_(config.numPes, 0)
{
    tpre_assert(config_.numPes >= 1);
    // Wakeup targets are a bit per PE.
    tpre_assert(config_.numPes <= 64, "at most 64 PEs");
    // In flight plus retained traces never exceed the ring, so a
    // slot is only reused once its previous trace is out of reach.
    ring_.resize(std::bit_ceil(config_.numPes + retainedTraces));
    ringMask_ = ring_.size() - 1;
    for (InflightTrace &t : ring_)
        t.insts.reserve(maxTraceLen);
}

std::uint64_t
TimingBackend::dispatch(const Trace &trace,
                        const std::vector<DynInst> &dyn, Cycle now)
{
    tpre_assert(hasFreePe(), "dispatch() with no free PE");

    // The lowest-numbered free PE (PEs are symmetric).
    unsigned pe = 0;
    while (peBusy_[pe])
        ++pe;
    const std::uint64_t handle = nextHandle_++;
    peBusy_[pe] = true;
    peTrace_[pe] = handle;

    InflightTrace &flight = slot(handle);
    flight.pe = pe;
    flight.cursor = 0;
    flight.lastCompletion = 0;
    flight.insts.clear();

    const auto resolve = [&](RegIndex reg) {
        const WriterInfo &writer = lastWriter_[reg];
        Operand op;
        op.handle = writer.handle;
        op.idx = static_cast<std::uint8_t>(writer.idx);
        op.cross = writer.pe != pe;
        return op;
    };
    for (const TraceInst &ti : trace.insts) {
        tpre_assert(ti.srcPos < dyn.size(),
                    "srcPos out of range of dynamic records");
        InflightInst inst;
        inst.op = ti.inst.op;
        inst.isMem = ti.inst.isLoad() || ti.inst.isStore();
        inst.effAddr = dyn[ti.srcPos].effAddr;
        inst.notBefore = now + 1;

        if (ti.inst.numSources() >= 1 && ti.inst.rs1 != zeroReg &&
            lastWriter_[ti.inst.rs1].handle != 0) {
            inst.src[0] = resolve(ti.inst.rs1);
        }
        if (ti.inst.readsRs2() && ti.inst.rs2 != zeroReg &&
            lastWriter_[ti.inst.rs2].handle != 0) {
            inst.src[1] = resolve(ti.inst.rs2);
        }
        for (const Operand &op : inst.src)
            inst.crossOps += op.handle != 0 && op.cross;

        if (ti.inst.writesReg()) {
            lastWriter_[ti.inst.rd] = {
                handle, static_cast<unsigned>(flight.insts.size()),
                pe};
        }
        flight.insts.push_back(inst);
    }
    flight.remaining = static_cast<unsigned>(flight.insts.size());
    refreshWake(flight);
    return handle;
}

const TimingBackend::InflightTrace *
TimingBackend::findTrace(std::uint64_t handle) const
{
    if (handle < headHandle_ - retainedCount_ || handle >= nextHandle_)
        return nullptr;
    return &slot(handle);
}

Cycle
TimingBackend::availableAt(const Operand &op) const
{
    const InflightTrace *t = findTrace(op.handle);
    // Long retired: value available ages ago.
    const Cycle done = t ? t->insts[op.idx].completion : 0;
    if (done == noCompletion)
        return noCompletion;
    return done + (op.cross ? config_.crossPeLatency : 0);
}

void
TimingBackend::refreshWake(InflightTrace &t)
{
    if (t.cursor == t.insts.size()) {
        t.wakeAt = noCompletion;
        return;
    }
    const InflightInst &inst = t.insts[t.cursor];
    Cycle at = inst.notBefore;
    for (const Operand &op : inst.src) {
        if (op.handle == 0)
            continue;
        const Cycle avail = availableAt(op);
        if (avail == noCompletion) {
            // Park until the producer issues; issue() wakes us.
            slot(op.handle).insts[op.idx].waiters |=
                std::uint64_t{1} << t.pe;
            t.wakeAt = noCompletion;
            return;
        }
        at = std::max(at, avail);
    }
    t.wakeAt = at;
}

bool
TimingBackend::claimResources(const InflightInst &inst,
                              unsigned &busNow, unsigned &portsUsed,
                              unsigned &pePortsUsed)
{
    // Global result buses for cross-PE operands.
    if (inst.crossOps > 0) {
        if (busNow + inst.crossOps > config_.resultBuses) {
            ++stats_.busStalls;
            return false;
        }
        busNow += inst.crossOps;
        stats_.busTransfers += inst.crossOps;
    }
    // Data-cache ports for memory operations.
    if (inst.isMem) {
        if (portsUsed >= config_.dcachePorts ||
            pePortsUsed >= config_.dcachePortsPerPe)
            return false;
        ++portsUsed;
        ++pePortsUsed;
    }
    return true;
}

void
TimingBackend::issue(InflightTrace &t, InflightInst &inst, Cycle now)
{
    ++stats_.instsIssued;
    Cycle latency = 1;
    switch (inst.op) {
      case Opcode::Mul:
        latency = config_.mulLatency;
        break;
      case Opcode::Div:
        latency = config_.divLatency;
        break;
      case Opcode::Ld: {
        ++stats_.dcacheAccesses;
        const bool hit = dcache_.access(inst.effAddr);
        if (!hit)
            ++stats_.dcacheMisses;
        latency = hit ? config_.dcacheHitLatency
                      : config_.dcacheMissLatency;
        break;
      }
      case Opcode::Sd:
        ++stats_.dcacheAccesses;
        dcache_.access(inst.effAddr);
        break;
      default:
        break;
    }
    inst.completion = now + latency;
    t.lastCompletion = std::max(t.lastCompletion, inst.completion);
    tpre_assert(t.remaining > 0);
    --t.remaining;

    // Wake the PEs parked on this result. A PE that has since been
    // handed a new trace merely recomputes its (unchanged) wakeAt.
    for (std::uint64_t w = inst.waiters; w != 0; w &= w - 1) {
        const unsigned pe =
            static_cast<unsigned>(std::countr_zero(w));
        if (peBusy_[pe])
            refreshWake(slot(peTrace_[pe]));
    }
    inst.waiters = 0;
}

void
TimingBackend::tickInOrder(InflightTrace &t, Cycle now,
                           unsigned &busNow, unsigned &portsUsed)
{
    // wakeAt <= now: the cursor instruction's operands and
    // not-before constraint are satisfied; only structural hazards
    // can hold it.
    unsigned issued = 0;
    unsigned pe_ports = 0;
    while (t.wakeAt <= now && issued < config_.issuePerPe) {
        InflightInst &inst = t.insts[t.cursor];
        if (!claimResources(inst, busNow, portsUsed, pe_ports)) {
            t.wakeAt = now + 1;
            return;
        }
        issue(t, inst, now);
        ++issued;
        ++t.cursor;
        refreshWake(t);
    }
}

void
TimingBackend::rollBusRing(Cycle now)
{
    // Clear the entries of cycles that fell out of the window, in
    // O(1) when the gap since the last tick spans the whole ring.
    const Cycle size = busUse_.size();
    if (busRingBase_ + size > now + 1)
        return;
    const Cycle base = now + 2 - size;
    if (base - busRingBase_ >= size) {
        busUse_.fill(0);
    } else {
        for (Cycle c = busRingBase_; c < base; ++c)
            busUse_[c % size] = 0;
    }
    busRingBase_ = base;
}

void
TimingBackend::tick(Cycle now)
{
    rollBusRing(now);
    unsigned &bus_now = busUse_[now % busUse_.size()];
    unsigned dcache_ports_used = 0;

    // Oldest first: the shared buses, ports and data cache are
    // claimed in program order.
    for (std::uint64_t h = headHandle_; h < nextHandle_; ++h)
        tickInOrder(slot(h), now, bus_now, dcache_ports_used);
}

Cycle
TimingBackend::nextEvent(Cycle now) const
{
    Cycle next = noCompletion;
    for (std::uint64_t h = headHandle_; h < nextHandle_; ++h)
        next = std::min(next, slot(h).wakeAt);
    if (!empty() && slot(headHandle_).remaining == 0)
        next = std::min(next, slot(headHandle_).lastCompletion);
    return next == noCompletion ? next : std::max(next, now + 1);
}

bool
TimingBackend::headDone() const
{
    return !empty() && slot(headHandle_).remaining == 0;
}

Cycle
TimingBackend::headCompletionTime() const
{
    tpre_assert(!empty());
    const InflightTrace &head = slot(headHandle_);
    return head.remaining > 0 ? noCompletion : head.lastCompletion;
}

std::uint64_t
TimingBackend::headHandle() const
{
    tpre_assert(!empty());
    return headHandle_;
}

void
TimingBackend::retireHead()
{
    tpre_assert(!empty());
    peBusy_[slot(headHandle_).pe] = false;
    ++headHandle_;
    if (retainedCount_ < retainedTraces) {
        ++retainedCount_;
        return;
    }
    // The oldest retained trace drops out of reach: its results now
    // read as available since cycle 0, which can only move the wake
    // time of a PE whose cursor instruction reads it earlier (or
    // release a PE parked on an instruction retired unissued).
    const std::uint64_t dropped = headHandle_ - retainedTraces - 1;
    for (std::uint64_t h = headHandle_; h < nextHandle_; ++h) {
        InflightTrace &t = slot(h);
        if (t.cursor == t.insts.size())
            continue;
        const InflightInst &inst = t.insts[t.cursor];
        if (inst.src[0].handle == dropped ||
            inst.src[1].handle == dropped)
            refreshWake(t);
    }
}

Cycle
TimingBackend::completionOf(std::uint64_t handle,
                            unsigned idx) const
{
    const InflightTrace *t = findTrace(handle);
    if (!t)
        return 0; // long retired
    tpre_assert(idx < t->insts.size());
    return t->insts[idx].completion;
}

void
TimingBackend::delayInst(std::uint64_t handle, unsigned idx,
                         Cycle notBefore)
{
    const InflightTrace *found = findTrace(handle);
    if (!found)
        return;
    InflightTrace &t = slot(handle);
    tpre_assert(idx < t.insts.size());
    t.insts[idx].notBefore =
        std::max(t.insts[idx].notBefore, notBefore);
    if (handle >= headHandle_)
        refreshWake(t);
}

} // namespace tpre
