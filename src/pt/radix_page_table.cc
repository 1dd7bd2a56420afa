#include "pt/radix_page_table.hh"

#include "check/audit.hh"
#include "common/log.hh"
#include "common/ordered.hh"

namespace dmt
{

namespace
{
constexpr std::uint64_t tableFlags =
    pte_flags::present | pte_flags::writable | pte_flags::user;
constexpr std::uint64_t leafFlags =
    tableFlags | pte_flags::accessed | pte_flags::dirty;
} // namespace

RadixPageTable::RadixPageTable(Memory &mem,
                               BuddyAllocator &allocator, int levels)
    : mem_(mem), win_(mem.readWindow()), allocator_(allocator),
      levels_(levels)
{
    DMT_ASSERT(levels == 4 || levels == 5,
               "x86-64 supports 4- or 5-level paging");
    rootPfn_ = allocTable(levels_, 0);
}

RadixPageTable::~RadixPageTable()
{
    std::vector<FrameRun> runs;
    releaseTables(runs);
    allocator_.freeRuns(std::move(runs));
}

void
RadixPageTable::attachAuditor(InvariantAuditor &auditor,
                              const std::string &name)
{
    DMT_ASSERT(auditor_ == nullptr, "page table already audited");
    auditor_ = &auditor;
    auditHookId_ = auditor.registerHook(
        name, [this](AuditSink &sink) { audit(sink); });
}

void
RadixPageTable::releaseTables(std::vector<FrameRun> &out)
{
    if (tablePages_ == 0)
        return;  // released already
    if (auditor_)
        auditor_->unregisterHook(auditHookId_);
    // Zeroing and provider releases tick audit events; the tree is
    // in a transient half-destroyed state until we are done.
    InvariantAuditor::Pause pause(auditor_);
    releaseSubtree(rootPfn_, levels_, 0, out);
    auditor_ = nullptr;
}

void
RadixPageTable::releaseSubtree(Pfn table_pfn, int level, Addr span_base,
                               std::vector<FrameRun> &out)
{
    if (level > 1) {
        // Retiring a child writes only the child's page, so the
        // entries stay valid across the loop.
        TableWords buf{};
        const std::uint64_t *entries = tableEntries(table_pfn, buf);
        for (int i = 0; i < ptesPerPage; ++i) {
            const std::uint64_t pte = entries[i];
            if (!pteIsPresent(pte) || pteIsHuge(pte))
                continue;
            const Addr childSpan =
                span_base + static_cast<Addr>(i) * spanBytes(level - 1);
            releaseSubtree(ptePfn(pte), level - 1, childSpan, out);
        }
    }
    if (retireTable(level, span_base, table_pfn))
        out.push_back({table_pfn, 1});
}

void
RadixPageTable::setFrameProvider(TableFrameProvider *provider)
{
    provider_ = provider;
}

Addr
RadixPageTable::spanBytes(int level)
{
    // A table at `level` covers 512 entries of 2^(12 + 9*(level-1)).
    return Addr{1} << (pageShift + 9 * level);
}

Addr
RadixPageTable::spanBase(Addr va, int level)
{
    return va & ~(spanBytes(level) - 1);
}

Pfn
RadixPageTable::allocTable(int level, Addr span_base)
{
    std::optional<Pfn> pfn;
    if (provider_) {
        pfn = provider_->provideTableFrame(level, span_base);
        if (pfn)
            providerOwned_[*pfn] = {level, span_base};
    }
    if (!pfn) {
        pfn = allocator_.allocPages(0, FrameKind::PageTable);
        if (!pfn)
            panic("out of physical memory for page-table pages");
    }
    mem_.zeroRange(*pfn << pageShift, pageSize);
    ++tablePages_;
    return *pfn;
}

void
RadixPageTable::freeTable(int level, Addr span_base, Pfn pfn)
{
    if (retireTable(level, span_base, pfn))
        allocator_.freePages(pfn, 0);
}

bool
RadixPageTable::retireTable(int level, Addr span_base, Pfn pfn)
{
    // Decrement before releasing the frame: the release ticks the
    // allocator's audit events, and a sweep at that point must see the
    // tree (which no longer references pfn) agree with the counter.
    DMT_ASSERT(tablePages_ > 0, "table page accounting underflow");
    --tablePages_;
    mem_.zeroRange(pfn << pageShift, pageSize);
    auto it = providerOwned_.find(pfn);
    if (it == providerOwned_.end())
        return true;
    if (provider_)
        provider_->releaseTableFrame(level, span_base, pfn);
    providerOwned_.erase(it);
    return false;
}

std::optional<Pfn>
RadixPageTable::tableFor(Addr va, int target_level, bool create)
{
    // A new table stays empty until the next one down is linked into
    // it, and allocating that one ticks the allocator's audit events:
    // no interval sweep may see the chain half built.
    InvariantAuditor::Pause pause(create ? auditor_ : nullptr);
    Pfn cur = rootPfn_;
    for (int level = levels_; level > target_level; --level) {
        const Addr slot = entrySlot(cur, va, level);
        const std::uint64_t pte = mem_.read64(slot);
        if (pteIsPresent(pte)) {
            if (pteIsHuge(pte)) {
                if (create) {
                    panic("mapping conflict: huge leaf at level %d "
                          "covers va 0x%llx",
                          level, static_cast<unsigned long long>(va));
                }
                return std::nullopt;
            }
            cur = ptePfn(pte);
            continue;
        }
        if (!create)
            return std::nullopt;
        const Pfn child =
            allocTable(level - 1, spanBase(va, level - 1));
        mem_.write64(slot, makePte(child, tableFlags));
        cur = child;
    }
    return cur;
}

std::optional<Pfn>
RadixPageTable::findTable(Addr va, int target_level) const
{
    Pfn cur = rootPfn_;
    for (int level = levels_; level > target_level; --level) {
        const Addr slot = entrySlot(cur, va, level);
        const std::uint64_t pte = mem_.read64(slot);
        if (!pteIsPresent(pte) || pteIsHuge(pte))
            return std::nullopt;
        cur = ptePfn(pte);
    }
    return cur;
}

void
RadixPageTable::map(Addr va, Pfn pfn, PageSize size)
{
    const Addr bytes = pageBytesOf(size);
    DMT_ASSERT((va & (bytes - 1)) == 0,
               "map: va 0x%llx not aligned to its page size",
               static_cast<unsigned long long>(va));
    const int ll = leafLevel(size);
    const auto table = tableFor(va, ll, true);
    DMT_ASSERT(table.has_value(), "tableFor(create) cannot fail");
    setLeaf(entrySlot(*table, va, ll), va, pfn, ll);
}

void
RadixPageTable::setLeaf(Addr slot, Addr va, Pfn pfn, int level)
{
    const std::uint64_t old = mem_.read64(slot);
    if (pteIsPresent(old)) {
        panic("map: va 0x%llx already mapped",
              static_cast<unsigned long long>(va));
    }
    std::uint64_t flags = leafFlags;
    if (level > 1)
        flags |= pte_flags::pageSize;
    mem_.write64(slot, makePte(pfn, flags));
    ++mappedLeaves_;
    ++leafEpoch_;
    DMT_AUDIT_EVENT(auditor_);
}

void
RadixPageTable::setLeafRun(Pfn table_pfn, int first, const Pfn *pfns,
                           int n)
{
    TableWords ptes{};
    for (int i = 0; i < n; ++i)
        ptes[i] = makePte(pfns[i], leafFlags);
    mem_.writeWords((table_pfn << pageShift) + first * pteSize,
                    ptes.data(), n);
    mappedLeaves_ += n;
    leafEpoch_ += n;
    for (int i = 0; i < n; ++i)
        DMT_AUDIT_EVENT(auditor_);
}

std::uint64_t
RadixPageTable::mapSpan4K(Addr va, Addr end,
                          const DrawFrames &draw_frames)
{
    DMT_ASSERT(va < end && ((va | end) & pageMask) == 0 &&
                   spanBase(va, 1) == spanBase(end - 1, 1),
               "mapSpan4K: [0x%llx, 0x%llx) is not a page range of "
               "one leaf table",
               static_cast<unsigned long long>(va),
               static_cast<unsigned long long>(end));
    Pfn table = leafTableOf(va);
    if (table == hugeLeaf)
        return 0;
    const int first = indexAt(va, 1);
    const int last = first + static_cast<int>((end - va) >> pageShift);
    std::array<Pfn, ptesPerPage> frames{};
    if (table == noTable) {
        // Every slot is free. The first data frame comes before the
        // missing tables, and the new leaf table holds a leaf before
        // the rest are drawn.
        draw_frames(1, frames.data());
        table = *tableFor(va, 1, true);
        setLeaf(entrySlot(table, va, 1), va, frames[0], 1);
        if (last - first > 1) {
            draw_frames(last - first - 1, frames.data() + 1);
            setLeafRun(table, first + 1, frames.data() + 1,
                       last - first - 1);
        }
        return last - first;
    }
    TableWords buf{};
    const std::uint64_t *entries = tableEntries(table, buf);
    std::uint64_t unmapped = 0;
    for (int i = first; i < last; ++i)
        unmapped += pteIsPresent(entries[i]) ? 0 : 1;
    if (unmapped == 0)
        return 0;
    // The frames go to the free slots in ascending order, one write
    // per run of free slots. A write lands behind the scan, so it
    // cannot change the entries still to be read.
    draw_frames(unmapped, frames.data());
    const Pfn *next = frames.data();
    for (int i = first; i < last;) {
        if (pteIsPresent(entries[i])) {
            ++i;
            continue;
        }
        const int start = i;
        while (i < last && !pteIsPresent(entries[i]))
            ++i;
        setLeafRun(table, start, next, i - start);
        next += i - start;
    }
    return unmapped;
}

const std::uint64_t *
RadixPageTable::leafTableEntries(Addr va, TableWords &buf) const
{
    const Pfn table = leafTableOf(va);
    if (table == noTable || table == hugeLeaf)
        return nullptr;
    return tableEntries(table, buf);
}

Pfn
RadixPageTable::leafTableOf(Addr va) const
{
    Pfn cur = rootPfn_;
    for (int level = levels_; level > 1; --level) {
        const std::uint64_t pte =
            win_.read(mem_, entrySlot(cur, va, level));
        if (!pteIsPresent(pte))
            return noTable;
        if (pteIsHuge(pte))
            return hugeLeaf;
        cur = ptePfn(pte);
    }
    return cur;
}

void
RadixPageTable::unmap(Addr va)
{
    Pfn cur = rootPfn_;
    for (int level = levels_; level >= 1; --level) {
        const Addr slot = entrySlot(cur, va, level);
        const std::uint64_t pte = mem_.read64(slot);
        if (!pteIsPresent(pte))
            return;
        const bool leaf = (level == 1) || pteIsHuge(pte);
        if (leaf) {
            mem_.write64(slot, 0);
            DMT_ASSERT(mappedLeaves_ > 0, "leaf accounting underflow");
            --mappedLeaves_;
            ++leafEpoch_;
            pruneEmptyTables(va);
            DMT_AUDIT_EVENT(auditor_);
            return;
        }
        cur = ptePfn(pte);
    }
}

bool
RadixPageTable::tableEmpty(Pfn table_pfn) const
{
    TableWords buf{};
    const std::uint64_t *entries = tableEntries(table_pfn, buf);
    for (int i = 0; i < ptesPerPage; ++i) {
        if (pteIsPresent(entries[i]))
            return false;
    }
    return true;
}

void
RadixPageTable::pruneEmptyTables(Addr va)
{
    // Collect the path of tables root -> leaf-most.
    struct PathEntry
    {
        int level;       //!< level of the table page itself
        Pfn pfn;         //!< the table page
        Addr parentSlot; //!< slot in the parent referencing it
    };
    std::vector<PathEntry> path;
    Pfn cur = rootPfn_;
    for (int level = levels_; level > 1; --level) {
        const Addr slot = entrySlot(cur, va, level);
        const std::uint64_t pte = mem_.read64(slot);
        if (!pteIsPresent(pte) || pteIsHuge(pte))
            break;
        path.push_back({level - 1, ptePfn(pte), slot});
        cur = ptePfn(pte);
    }
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
        if (!tableEmpty(it->pfn))
            break;
        mem_.write64(it->parentSlot, 0);
        freeTable(it->level, spanBase(va, it->level), it->pfn);
    }
}

std::optional<Translation>
RadixPageTable::translate(Addr va) const
{
    Pfn cur = rootPfn_;
    for (int level = levels_; level >= 1; --level) {
        const Addr slot = entrySlot(cur, va, level);
        const std::uint64_t pte = win_.read(mem_, slot);
        if (!pteIsPresent(pte))
            return std::nullopt;
        const bool leaf = (level == 1) || pteIsHuge(pte);
        if (leaf) {
            const PageSize size = leafSizeAt(level);
            const Addr offset = va & (pageBytesOf(size) - 1);
            return Translation{ptePfn(pte), size,
                               (ptePfn(pte) << pageShift) + offset};
        }
        cur = ptePfn(pte);
    }
    return std::nullopt;
}

std::optional<Addr>
RadixPageTable::leafPteAddr(Addr va, PageSize size) const
{
    const int ll = leafLevel(size);
    const auto table = findTable(va, ll);
    if (!table)
        return std::nullopt;
    return entrySlot(*table, va, ll);
}

bool
RadixPageTable::promote2M(Addr va)
{
    DMT_ASSERT((va & (hugePageSize - 1)) == 0,
               "promote2M: va must be 2 MB aligned");
    const auto l1 = findTable(va, 1);
    if (!l1)
        return false;
    // All 512 PTEs must be present and form one aligned 2 MB frame run.
    TableWords buf{};
    const std::uint64_t *entries = tableEntries(*l1, buf);
    if (!pteIsPresent(entries[0]))
        return false;
    const Pfn basePfn = ptePfn(entries[0]);
    if (basePfn & 0x1ff)
        return false;
    for (int i = 1; i < ptesPerPage; ++i) {
        if (!pteIsPresent(entries[i]) ||
            ptePfn(entries[i]) != basePfn + i)
            return false;
    }
    const auto l2 = findTable(va, 2);
    DMT_ASSERT(l2.has_value(), "L1 exists but L2 does not");
    const Addr l2slot = entrySlot(*l2, va, 2);
    mem_.write64(l2slot,
                 makePte(basePfn, leafFlags | pte_flags::pageSize));
    mappedLeaves_ -= 511;
    ++leafEpoch_;
    freeTable(1, spanBase(va, 1), *l1);
    DMT_AUDIT_EVENT(auditor_);
    return true;
}

bool
RadixPageTable::demote2M(Addr va)
{
    DMT_ASSERT((va & (hugePageSize - 1)) == 0,
               "demote2M: va must be 2 MB aligned");
    const auto l2 = findTable(va, 2);
    if (!l2)
        return false;
    const Addr l2slot = entrySlot(*l2, va, 2);
    const std::uint64_t pde = mem_.read64(l2slot);
    if (!pteIsPresent(pde) || !pteIsHuge(pde))
        return false;
    const Pfn basePfn = ptePfn(pde);
    const Pfn l1 = allocTable(1, spanBase(va, 1));
    TableWords ptes{};
    for (int i = 0; i < ptesPerPage; ++i)
        ptes[i] = makePte(basePfn + i, leafFlags);
    mem_.writeWords(l1 << pageShift, ptes.data(), ptes.size());
    mem_.write64(l2slot, makePte(l1, tableFlags));
    mappedLeaves_ += 511;
    ++leafEpoch_;
    DMT_AUDIT_EVENT(auditor_);
    return true;
}

void
RadixPageTable::updateLeaf(Addr va, Pfn new_pfn)
{
    Pfn cur = rootPfn_;
    for (int level = levels_; level >= 1; --level) {
        const Addr slot = entrySlot(cur, va, level);
        const std::uint64_t pte = mem_.read64(slot);
        DMT_ASSERT(pteIsPresent(pte),
                   "updateLeaf: va 0x%llx not mapped",
                   static_cast<unsigned long long>(va));
        const bool leaf = (level == 1) || pteIsHuge(pte);
        if (leaf) {
            const std::uint64_t flagBits = pte & ~pteFrameMask;
            mem_.write64(slot,
                         ((new_pfn << pageShift) & pteFrameMask) |
                             flagBits);
            ++leafEpoch_;
            DMT_AUDIT_EVENT(auditor_);
            return;
        }
        cur = ptePfn(pte);
    }
    panic("updateLeaf: walk fell off the tree");
}

void
RadixPageTable::updateLeafSpan(Addr va, Addr end, Pfn first_pfn,
                               Pfn *displaced)
{
    DMT_ASSERT(va < end && ((va | end) & pageMask) == 0 &&
                   spanBase(va, 1) == spanBase(end - 1, 1),
               "updateLeafSpan: [0x%llx, 0x%llx) is not a page range "
               "of one leaf table",
               static_cast<unsigned long long>(va),
               static_cast<unsigned long long>(end));
    const Pfn table = leafTableOf(va);
    DMT_ASSERT(table != noTable && table != hugeLeaf,
               "updateLeafSpan: va 0x%llx has no 4 KB leaf table",
               static_cast<unsigned long long>(va));
    const Addr slots = entrySlot(table, va, 1);
    const int n = static_cast<int>((end - va) >> pageShift);
    TableWords ptes{};
    mem_.readWords(slots, ptes.data(), n);
    for (int i = 0; i < n; ++i) {
        const std::uint64_t pte = ptes[i];
        DMT_ASSERT(pteIsPresent(pte), "updateLeafSpan: va 0x%llx not "
                   "mapped",
                   static_cast<unsigned long long>(
                       va + (static_cast<Addr>(i) << pageShift)));
        displaced[i] = ptePfn(pte);
        ptes[i] = (((first_pfn + i) << pageShift) & pteFrameMask) |
                  (pte & ~pteFrameMask);
    }
    mem_.writeWords(slots, ptes.data(), n);
    leafEpoch_ += n;
    for (int i = 0; i < n; ++i)
        DMT_AUDIT_EVENT(auditor_);
}

std::optional<Pfn>
RadixPageTable::tableFrameAt(Addr va, int level) const
{
    return findTable(va, level);
}

void
RadixPageTable::relocateLeafTableToScattered(Addr va, int level)
{
    const auto cur = findTable(va, level);
    DMT_ASSERT(cur.has_value(),
               "relocateLeafTableToScattered: no table present");
    const auto fresh = allocator_.allocPages(0, FrameKind::PageTable);
    if (!fresh)
        panic("out of memory while evicting a TEA table page");
    const auto parent = findTable(va, level + 1);
    DMT_ASSERT(parent.has_value(), "parent table missing");
    const Addr slot = entrySlot(*parent, va, level + 1);
    mem_.copyRange(*fresh << pageShift, *cur << pageShift, pageSize);
    mem_.write64(slot, makePte(*fresh, tableFlags));
    ++tablePages_;  // freeTable() will decrement for the old frame
    freeTable(level, spanBase(va, level), *cur);
    DMT_AUDIT_EVENT(auditor_);
}

void
RadixPageTable::relocateLeafTable(Addr va, int level, Pfn new_pfn)
{
    const auto parent = findTable(va, level + 1);
    DMT_ASSERT(parent.has_value(),
               "relocateLeafTable: parent table missing");
    const Addr slot = entrySlot(*parent, va, level + 1);
    const std::uint64_t pte = mem_.read64(slot);
    DMT_ASSERT(pteIsPresent(pte) && !pteIsHuge(pte),
               "relocateLeafTable: no table at target level");
    const Pfn oldPfn = ptePfn(pte);
    if (oldPfn == new_pfn)
        return;
    mem_.copyRange(new_pfn << pageShift, oldPfn << pageShift, pageSize);
    mem_.write64(slot, makePte(new_pfn, tableFlags));
    providerOwned_[new_pfn] = {level, spanBase(va, level)};
    // freeTable() decrements the counter; the new frame keeps it.
    ++tablePages_;
    freeTable(level, spanBase(va, level), oldPfn);
    DMT_AUDIT_EVENT(auditor_);
}

void
RadixPageTable::auditSubtree(Pfn table_pfn, int level, AuditSink &sink,
                             std::unordered_map<Pfn, int> &seen,
                             std::uint64_t &tables,
                             std::uint64_t &leaves) const
{
    if (table_pfn >= allocator_.numFrames()) {
        sink.fail("level-%d table frame 0x%llx out of physical range",
                  level, static_cast<unsigned long long>(table_pfn));
        return;
    }
    if (!seen.emplace(table_pfn, level).second) {
        sink.fail("table frame 0x%llx referenced twice (again at "
                  "level %d)",
                  static_cast<unsigned long long>(table_pfn), level);
        return;  // do not recurse into a cycle
    }
    ++tables;
    DMT_AUDIT_CHECK(sink,
                    allocator_.kindOf(table_pfn) == FrameKind::PageTable,
                    "level-%d table frame 0x%llx not marked PageTable",
                    level, static_cast<unsigned long long>(table_pfn));
    bool empty = true;
    TableWords buf{};
    const std::uint64_t *entries = tableEntries(table_pfn, buf);
    for (int i = 0; i < ptesPerPage; ++i) {
        const std::uint64_t pte = entries[i];
        if (!pteIsPresent(pte))
            continue;
        empty = false;
        if (level > 1 && pteIsHuge(pte)) {
            if (level > 3) {
                sink.fail("huge leaf at impossible level %d (pte "
                          "0x%llx)",
                          level, static_cast<unsigned long long>(pte));
                continue;
            }
            const Pfn align = (Pfn{1} << (9 * (level - 1))) - 1;
            DMT_AUDIT_CHECK(sink, (ptePfn(pte) & align) == 0,
                            "level-%d huge leaf frame 0x%llx "
                            "misaligned", level,
                            static_cast<unsigned long long>(
                                ptePfn(pte)));
            ++leaves;
            continue;
        }
        if (level == 1) {
            ++leaves;
            continue;
        }
        auditSubtree(ptePfn(pte), level - 1, sink, seen, tables,
                     leaves);
    }
    // unmap() prunes empty tables bottom-up; a lingering empty table
    // below the root is a leak. The root may legitimately be empty.
    DMT_AUDIT_CHECK(sink, !empty || level == levels_,
                    "empty level-%d table 0x%llx was not pruned",
                    level, static_cast<unsigned long long>(table_pfn));
}

void
RadixPageTable::audit(AuditSink &sink) const
{
    std::unordered_map<Pfn, int> seen;
    std::uint64_t tables = 0;
    std::uint64_t leaves = 0;
    auditSubtree(rootPfn_, levels_, sink, seen, tables, leaves);
    DMT_AUDIT_CHECK(sink, tables == tablePages_,
                    "tree has %llu table pages but accounting says "
                    "%llu",
                    static_cast<unsigned long long>(tables),
                    static_cast<unsigned long long>(tablePages_));
    DMT_AUDIT_CHECK(sink, leaves == mappedLeaves_,
                    "tree has %llu mapped leaves but accounting says "
                    "%llu",
                    static_cast<unsigned long long>(leaves),
                    static_cast<unsigned long long>(mappedLeaves_));
    // Sorted sweep: violation reports are output, and their order
    // must not depend on the hash layout of providerOwned_.
    for (const Pfn pfn : sortedKeys(providerOwned_)) {
        const auto &where = providerOwned_.at(pfn);
        const auto it = seen.find(pfn);
        if (it == seen.end()) {
            sink.fail("provider-owned frame 0x%llx (level %d) is not "
                      "a table in the tree",
                      static_cast<unsigned long long>(pfn),
                      where.first);
        } else {
            DMT_AUDIT_CHECK(sink, it->second == where.first,
                            "provider-owned frame 0x%llx recorded at "
                            "level %d but used at level %d",
                            static_cast<unsigned long long>(pfn),
                            where.first, it->second);
        }
    }
}

} // namespace dmt
