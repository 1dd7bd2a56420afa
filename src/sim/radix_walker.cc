#include "sim/radix_walker.hh"

#include "check/audit.hh"
#include "common/log.hh"

namespace dmt
{

RadixWalker::RadixWalker(const RadixPageTable &pt,
                         MemoryHierarchy &caches,
                         const PwcConfig &pwc_config,
                         std::string name)
    : pt_(pt), caches_(caches), pwc_(pwc_config),
      name_(std::move(name))
{
}

RadixWalker::~RadixWalker()
{
    if (auditor_)
        auditor_->unregisterHook(auditHookId_);
}

void
RadixWalker::attachAuditor(InvariantAuditor &auditor,
                           const std::string &name)
{
    DMT_ASSERT(auditor_ == nullptr, "radix walker already audited");
    auditor_ = &auditor;
    auditHookId_ = auditor.registerHook(
        name, [this](AuditSink &sink) {
            pwc_.audit(sink,
                       [this](Addr va, int t) {
                           return pt_.tableFrameAt(va, t);
                       },
                       "pwc");
        });
}

} // namespace dmt
