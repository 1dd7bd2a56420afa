#include "host/node.hh"

#include <algorithm>
#include <set>
#include <utility>

#include "check/audit.hh"
#include "common/log.hh"
#include "driver/cell.hh"
#include "obs/host_event.hh"
#include "obs/replay.hh"
#include "workloads/workloads.hh"

namespace dmt::host
{

namespace
{

/** Sentinel core id for a tenant that has never run. */
constexpr unsigned kNoCore = ~0u;

} // namespace

std::string
flushPolicyId(FlushPolicy policy)
{
    return policy == FlushPolicy::Full ? "full" : "tagged";
}

/**
 * One tenant's complete execution context: its workload and the
 * shared-nothing cell built from it, whose resumable session the
 * scheduler advances slice by slice.
 */
struct HostNode::Tenant
{
    TenantSpec spec;
    std::uint32_t index = 0;
    std::uint64_t seed = 0;
    unsigned core = 0;          //!< currently assigned core
    unsigned lastCore = kNoCore;  //!< core of the previous slice
    std::unique_ptr<Workload> workload;
    std::unique_ptr<driver::Cell> cell;
    HostTenantStats host;
    HostTenantResult result;

    /** Slots of the task-state register file currently present, in
     *  slot order. */
    std::vector<std::uint8_t>
    presentRegs()
    {
        std::vector<std::uint8_t> out;
        DmtRegisterFile &regs = cell->taskRegisters();
        for (int i = 0; i < DmtRegisterFile::capacity; ++i) {
            if (regs.at(i).present)
                out.push_back(static_cast<std::uint8_t>(i));
        }
        return out;
    }
};

HostNode::HostNode(const HostNodeConfig &config,
                   std::vector<TenantSpec> tenants)
    : config_(config)
{
    DMT_ASSERT(config_.cores >= 1, "a node needs at least one core");
    DMT_ASSERT(config_.cores <= 256,
               "host event records hold the core id in a byte");
    DMT_ASSERT(!tenants.empty(), "a node needs at least one tenant");
    std::set<std::string> names;
    for (const TenantSpec &spec : tenants) {
        DMT_ASSERT(!spec.name.empty(), "tenant with empty name");
        DMT_ASSERT(names.insert(spec.name).second,
                   "duplicate tenant name '%s'", spec.name.c_str());
    }
    coreFiles_.resize(config_.cores);
    current_.assign(config_.cores, kNoTenant);
    tenants_.reserve(tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        auto t = std::make_unique<Tenant>();
        t->spec = std::move(tenants[i]);
        t->index = static_cast<std::uint32_t>(i);
        t->seed = tenantSeed(config_.baseSeed, t->spec);
        t->core = static_cast<unsigned>(i) % config_.cores;
        tenants_.push_back(std::move(t));
    }
}

HostNode::~HostNode()
{
    if (auditor_) {
        for (const int id : auditHookIds_)
            auditor_->unregisterHook(id);
    }
}

std::uint64_t
HostNode::tenantSeed(std::uint64_t base_seed, const TenantSpec &spec)
{
    const driver::CellSpec cell{spec.workload, spec.env, spec.design,
                                spec.thp};
    return driver::mixSeed(driver::cellSeed(base_seed, cell),
                           spec.name);
}

std::string
HostNode::tenantEventsFileName(const TenantSpec &spec)
{
    return "tenant_" + spec.name + ".dmtevents";
}

void
HostNode::attachAuditor(InvariantAuditor &auditor)
{
    auditor_ = &auditor;
    for (unsigned c = 0; c < config_.cores; ++c) {
        const CoreRegisterFile *file = &coreFiles_[c];
        auditHookIds_.push_back(auditor.registerHook(
            "host:regfile:core" + std::to_string(c),
            [file](AuditSink &sink) { file->audit(sink); }));
    }
}

void
HostNode::buildTenant(Tenant &t)
{
    t.workload = makeWorkload(t.spec.workload, config_.scale);
    if (!config_.eventsDir.empty()) {
        t.result.eventsPath = config_.eventsDir + "/" +
                              tenantEventsFileName(t.spec);
    }
    t.cell = std::make_unique<driver::Cell>(
        *t.workload, t.spec.env, t.spec.design,
        scaledTestbedConfig(config_.scale, t.spec.thp ? ThpMode::Always
                                                      : ThpMode::Never),
        config_.sim, t.seed, t.result.eventsPath);
}

void
HostNode::finalizeTenant(Tenant &t)
{
    const driver::CellOutcome out = t.cell->finish();
    t.result.spec = t.spec;
    t.result.seed = t.seed;
    t.result.sim = out.sim;
    t.result.coverage = out.coverage;
    t.result.shadowExits = out.shadowExits;
    t.result.hypercalls = out.hypercalls;
    t.result.hypercallCycles = out.hypercallCycles;
    t.result.design = out.design;
}

std::uint64_t
HostNode::sliceFor(const Tenant &t) const
{
    if (config_.sliceAccesses == 0)
        return 0;  // run to completion
    if (config_.slice == SlicePolicy::Weighted) {
        const std::uint64_t w = std::max(1u, t.spec.weight);
        return config_.sliceAccesses * w;
    }
    return config_.sliceAccesses;
}

void
HostNode::switchIn(unsigned core, Tenant &t)
{
    const std::uint32_t prev = current_[core];
    CoreRegisterFile &file = coreFiles_[core];
    const bool migrated =
        t.lastCore != kNoCore && t.lastCore != core;

    obs::HostEvent sw;
    sw.kind = static_cast<std::uint8_t>(obs::HostEventKind::CtxSwitch);
    sw.core = static_cast<std::uint8_t>(core);
    sw.tenant = t.index;
    if (prev == kNoTenant)
        sw.flags |= obs::kHostInitial;

    Counter cycles = config_.costs.switchBaseCycles;
    const std::vector<std::uint8_t> present = t.presentRegs();

    if (migrated) {
        ++t.host.migrations;
        if (hostSink_) {
            obs::HostEvent mig;
            mig.kind = static_cast<std::uint8_t>(
                obs::HostEventKind::Migration);
            mig.core = static_cast<std::uint8_t>(core);
            mig.tenant = t.index;
            hostSink_->emit(mig);
        }
    }

    // Whether the incoming tenant's translation state survived its
    // time off the core decides the flush work at switch-in:
    //  - full flush: nothing survives once anything else ran here,
    //    and nothing moves with a migrating tenant;
    //  - tagged: state survives on the same core, but a migration
    //    leaves it behind on the old core — a HATRIC-style coherence
    //    shootdown invalidates it there and the tenant restarts cold.
    bool flushTenant = false;
    if (config_.flush == FlushPolicy::Full) {
        flushTenant = prev != kNoTenant || migrated;
        if (prev != kNoTenant) {
            // The outgoing tenant's registers are saved to task
            // state as part of this switch.
            Tenant &p = *tenants_[prev];
            const auto saves = p.presentRegs();
            sw.regSaves = static_cast<std::uint32_t>(saves.size());
            cycles += static_cast<Counter>(saves.size()) *
                      config_.costs.regSaveCycles;
        }
        // Untagged physical file: only the incoming tenant's
        // registers are ever resident.
        file.clear();
        for (const std::uint8_t r : present) {
            file.touch(t.index, r, r < t.spec.pinnedRegisters);
            ++sw.regLoads;
        }
        cycles += static_cast<Counter>(sw.regLoads) *
                  config_.costs.regLoadCycles;
    } else {
        if (migrated) {
            // Invalidate the stale entries on the old core and pay
            // the shootdown.
            coreFiles_[t.lastCore].invalidateTenant(t.index);
            flushTenant = true;
            ++t.host.shootdowns;
            const Counter sdCycles =
                config_.costs.shootdownBaseCycles +
                static_cast<Counter>(config_.cores - 1) *
                    config_.costs.shootdownPerCoreCycles;
            const Counter coherence =
                static_cast<Counter>(present.size()) *
                config_.costs.coherencePerLineCycles;
            t.host.shootdownCycles += sdCycles;
            t.host.coherenceCycles += coherence;
            if (hostSink_) {
                obs::HostEvent sd;
                sd.kind = static_cast<std::uint8_t>(
                    obs::HostEventKind::Shootdown);
                sd.core = static_cast<std::uint8_t>(core);
                sd.tenant = t.index;
                sd.cycles = sdCycles;
                sd.aux = static_cast<std::uint32_t>(coherence);
                hostSink_->emit(sd);
            }
        }
        // Tagged retention: the tenant's registers may still be
        // resident from its last slice on this core.
        for (const std::uint8_t r : present) {
            const TouchResult res =
                file.touch(t.index, r, r < t.spec.pinnedRegisters);
            if (res.hit) {
                ++sw.regHits;
            } else {
                ++sw.regLoads;
                cycles += config_.costs.regLoadCycles;
            }
        }
    }

    if (flushTenant) {
        t.cell->tlbs().flush();
        t.cell->mechanism().flush();
        ++t.host.tlbFlushes;
        ++t.host.pwcFlushes;
        sw.flags |= obs::kHostTlbFlushed | obs::kHostPwcFlushed;
        cycles += config_.costs.tlbFlushCycles +
                  config_.costs.pwcFlushCycles;
    }

    sw.cycles = cycles;
    ++t.host.ctxSwitches;
    t.host.switchCycles += cycles;
    t.host.regHits += sw.regHits;
    t.host.regLoads += sw.regLoads;
    t.host.regSaves += sw.regSaves;
    if (hostSink_)
        hostSink_->emit(sw);

    current_[core] = t.index;
    t.lastCore = core;
    DMT_AUDIT_EVENT(auditor_);
}

std::vector<HostTenantResult>
HostNode::run()
{
    DMT_ASSERT(!ran_, "HostNode::run called twice");
    ran_ = true;

    if (!config_.hostEventsPath.empty()) {
        hostSink_ = std::make_unique<obs::FileHostEventSink>(
            config_.hostEventsPath);
    }

    for (auto &t : tenants_)
        buildTenant(*t);

    // Per-core run queues in tenant order; round-robin within each.
    std::vector<std::vector<std::uint32_t>> queues(config_.cores);
    for (const auto &t : tenants_)
        queues[t->core].push_back(t->index);
    std::vector<std::size_t> cursor(config_.cores, 0);

    std::size_t remaining = tenants_.size();
    while (remaining > 0) {
        ++rounds_;
        if (config_.migrateEveryRounds != 0 && config_.cores > 1 &&
            rounds_ > 1 &&
            (rounds_ - 1) % config_.migrateEveryRounds == 0) {
            // Rotate every queue one core over. Residency (current_)
            // is physical and stays put; migrating tenants pay at
            // their next switch-in.
            std::rotate(queues.rbegin(), queues.rbegin() + 1,
                        queues.rend());
            std::rotate(cursor.rbegin(), cursor.rbegin() + 1,
                        cursor.rend());
            for (unsigned c = 0; c < config_.cores; ++c) {
                for (const std::uint32_t idx : queues[c])
                    tenants_[idx]->core = c;
            }
        }
        for (unsigned core = 0; core < config_.cores; ++core) {
            const std::vector<std::uint32_t> &q = queues[core];
            if (q.empty())
                continue;
            // Next unfinished tenant after the round-robin cursor.
            Tenant *t = nullptr;
            for (std::size_t k = 0; k < q.size(); ++k) {
                const std::size_t pos =
                    (cursor[core] + k) % q.size();
                Tenant &cand = *tenants_[q[pos]];
                if (!cand.cell->session().done()) {
                    t = &cand;
                    cursor[core] = (pos + 1) % q.size();
                    break;
                }
            }
            if (!t)
                continue;
            ++t->host.dispatches;
            if (hostSink_) {
                obs::HostEvent d;
                d.kind = static_cast<std::uint8_t>(
                    obs::HostEventKind::Dispatch);
                d.core = static_cast<std::uint8_t>(core);
                d.tenant = t->index;
                hostSink_->emit(d);
            }
            if (current_[core] != t->index)
                switchIn(core, *t);
            t->cell->session().advance(sliceFor(*t));
            if (t->cell->session().done()) {
                finalizeTenant(*t);
                --remaining;
            }
        }
    }

    if (hostSink_) {
        StatGroup g("host");
        hostStats(g);
        hostSink_->setCounters(obs::counterMapFromStats(g));
        hostSink_->finish();
        hostSink_.reset();
    }

    std::vector<HostTenantResult> results;
    results.reserve(tenants_.size());
    for (auto &t : tenants_) {
        t->result.host = t->host;
        results.push_back(t->result);
    }
    return results;
}

void
HostNode::hostStats(StatGroup &g) const
{
    for (const auto &t : tenants_) {
        const auto add = [&](const char *name, Counter value) {
            g.scalar(obs::hostCounterKey(t->index, name))
                .inc(static_cast<double>(value));
        };
        const HostTenantStats &h = t->host;
        add("dispatches", h.dispatches);
        add("ctx_switches", h.ctxSwitches);
        add("migrations", h.migrations);
        add("shootdowns", h.shootdowns);
        add("tlb_flushes", h.tlbFlushes);
        add("pwc_flushes", h.pwcFlushes);
        add("reg_hits", h.regHits);
        add("reg_loads", h.regLoads);
        add("reg_saves", h.regSaves);
        add("switch_cycles", h.switchCycles);
        add("shootdown_cycles", h.shootdownCycles);
        add("coherence_cycles", h.coherenceCycles);
    }
}

const CoreRegisterFile &
HostNode::coreFile(unsigned core) const
{
    DMT_ASSERT(core < coreFiles_.size(), "core %u out of range",
               core);
    return coreFiles_[core];
}

} // namespace dmt::host
