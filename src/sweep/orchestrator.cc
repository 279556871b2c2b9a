#include "sweep/orchestrator.hh"

#include <chrono>
#include <deque>

#include "harness/region_cache.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "support/logging.hh"
#include "sweep/report.hh"

namespace nachos {

namespace {

bool
setError(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
    return false;
}

/** The expansion minus already-stored points, capped at `limit`. */
std::vector<const SweepPoint *>
pendingPoints(const std::vector<SweepPoint> &points,
              const std::vector<SweepRecord> &existing, size_t limit,
              SweepRunStats &stats)
{
    const std::unordered_set<uint64_t> done = completedHashes(existing);
    std::vector<const SweepPoint *> todo;
    stats.expanded = points.size();
    for (const SweepPoint &p : points) {
        if (done.count(p.hash)) {
            ++stats.skipped;
            continue;
        }
        if (limit && todo.size() >= limit)
            continue;
        todo.push_back(&p);
    }
    return todo;
}

} // namespace

SweepRecord
makeSweepRecord(const SweepPoint &point, const OutcomeSummary &summary)
{
    SweepRecord r;
    r.id = point.id;
    r.hash = point.hash;
    r.workload = point.info->name;
    r.pathIndex = point.pathIndex;
    r.seed = point.seed;
    r.backend = point.backend;
    r.invocations = summary.invocations;
    r.machine = point.machine;
    const BackendField *backend = findBackend(point.backend);
    NACHOS_ASSERT(backend && (summary.*backend->summary).has_value(),
                  "outcome summary lacks the point's backend");
    r.summary = *(summary.*backend->summary);
    r.areaProxy = areaProxy(point.machine, point.backend);
    return r;
}

bool
runSweepInProcess(const std::vector<SweepPoint> &points,
                  SweepStore &store, const SweepRunOptions &options,
                  SweepRunStats &stats, std::string *error)
{
    stats = SweepRunStats{};
    SweepLoadResult loaded;
    if (!store.openForAppend(loaded, error))
        return false;
    const std::vector<const SweepPoint *> todo =
        pendingPoints(points, loaded.records, options.limit, stats);

    RegionCache cache(options.cacheEntries);
    HierarchyPool pool;
    using clock = std::chrono::steady_clock;
    for (size_t i = 0; i < todo.size(); ++i) {
        const SweepPoint &p = *todo[i];
        if (options.onPoint)
            options.onPoint(p.id, i, todo.size());
        const clock::time_point start = clock::now();

        const RunRequest request = p.toRequest();
        std::shared_ptr<const FrontEnd> entry =
            cache.acquire(*p.info, request);
        const BackendResults sims =
            simulateRequest(*p.info, request, *entry, pool);
        const OutcomeSummary summary =
            summarizeOutcome(*p.info, request, *entry, sims);

        SweepRecord record = makeSweepRecord(p, summary);
        record.seconds =
            std::chrono::duration<double>(clock::now() - start).count();
        if (!store.append(record, error))
            return false;
        ++stats.ran;
    }
    return true;
}

bool
runSweepOverDaemon(const std::vector<SweepPoint> &points,
                   SweepStore &store, ServiceClient &client,
                   const SweepRunOptions &options, SweepRunStats &stats,
                   std::string *error)
{
    stats = SweepRunStats{};
    SweepLoadResult loaded;
    if (!store.openForAppend(loaded, error))
        return false;
    const std::vector<const SweepPoint *> todo =
        pendingPoints(points, loaded.records, options.limit, stats);

    const uint32_t window = options.window ? options.window : 1;
    using clock = std::chrono::steady_clock;

    struct InFlight
    {
        uint64_t id;
        const SweepPoint *point;
        clock::time_point sent;
    };
    std::deque<InFlight> inFlight;
    uint64_t nextId = 1;
    size_t nextPoint = 0;

    auto send = [&]() -> bool {
        const SweepPoint &p = *todo[nextPoint];
        JobSpec spec;
        spec.info = p.info;
        spec.request = p.toRequest();
        spec.klass = AdmitClass::Bulk;
        std::string line;
        appendRunRequest(line, nextId, spec);
        line += '\n';
        if (!client.sendRaw(line))
            return setError(error, "send failed (daemon gone?)");
        inFlight.push_back({nextId, &p, clock::now()});
        ++nextId;
        ++nextPoint;
        return true;
    };

    // Collect strictly in submission (= point) order: the store then
    // grows as a prefix of the pending list, which is what makes a
    // kill at any moment resumable without duplicate records.
    while (nextPoint < todo.size() || !inFlight.empty()) {
        while (nextPoint < todo.size() && inFlight.size() < window)
            if (!send())
                return false;

        const InFlight head = inFlight.front();
        inFlight.pop_front();
        std::optional<JsonValue> response = client.waitFor(head.id);
        if (!response)
            return setError(error,
                            "connection closed with responses "
                            "outstanding");
        if (options.onPoint)
            options.onPoint(head.point->id, stats.ran + stats.failed,
                            todo.size());

        const JsonValue *type = response->find("type");
        if (!type || !type->isString() || type->str() != "result") {
            ++stats.failed;
            continue;
        }
        const JsonValue *outcome = response->find("outcome");
        OutcomeSummary summary;
        CodecError err;
        if (!outcome || !decodeOutcome(*outcome, summary, err)) {
            ++stats.failed;
            continue;
        }
        SweepRecord record = makeSweepRecord(*head.point, summary);
        record.seconds =
            std::chrono::duration<double>(clock::now() - head.sent)
                .count();
        if (!store.append(record, error))
            return false;
        ++stats.ran;
    }
    return true;
}

} // namespace nachos
