#include "sweep/orchestrator.hh"

#include <chrono>
#include <deque>
#include <optional>
#include <unordered_map>

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

using clock = std::chrono::steady_clock;

double
secondsSince(clock::time_point start)
{
    return std::chrono::duration<double>(clock::now() - start).count();
}

/**
 * Each answered projected id's source record; empty while its request
 * is out, and for good once the request failed.
 */
using Answers =
    std::unordered_map<std::string, std::optional<SweepRecord>>;

/** The store's records as answers (unknown workloads and backends
 *  answer nothing a point can ask). */
Answers
storedAnswers(const std::vector<SweepRecord> &records)
{
    Answers answers;
    for (const SweepRecord &r : records) {
        const SweepPoint p = recordedPoint(r);
        if (p.info && findBackend(p.backend))
            answers.emplace(p.projectedId(), r);
    }
    return answers;
}

/** The record of `point` from its backend's part of a wire outcome. */
SweepRecord
recordFromOutcome(const SweepPoint &point, const OutcomeSummary &summary)
{
    const BackendField *backend = findBackend(point.backend);
    NACHOS_ASSERT(backend && (summary.*backend->summary).has_value(),
                  "outcome summary lacks the point's backend");
    return makeSweepRecord(point, summary.invocations,
                           *(summary.*backend->summary));
}

/** Fill `point` from `source`; a failed source fails the fill too. */
bool
appendFill(const SweepPoint &point,
           const std::optional<SweepRecord> &source, SweepStore &store,
           SweepRunStats &stats, std::string *error)
{
    if (!source) {
        ++stats.failed;
        return true;
    }
    const clock::time_point start = clock::now();
    SweepRecord record =
        makeSweepRecord(point, source->invocations, source->summary);
    record.seconds = secondsSince(start);
    if (!store.append(record, error))
        return false;
    ++stats.ran;
    ++stats.reused;
    return true;
}

/** A record's summary as one line of JSON members. */
std::string
summaryText(const SimSummary &summary)
{
    std::string text;
    JsonWriter w(text);
    w.beginObject();
    writeSimSummaryMembers(w, summary);
    w.endObject();
    return text;
}

} // namespace

SweepRecord
makeSweepRecord(const SweepPoint &point, uint64_t invocations,
                const SimSummary &summary)
{
    SweepRecord r;
    r.id = point.id;
    r.hash = point.hash;
    r.workload = point.info->name;
    r.pathIndex = point.pathIndex;
    r.seed = point.seed;
    r.backend = point.backend;
    r.invocations = invocations;
    r.machine = point.machine;
    r.summary = summary;
    r.areaProxy = areaProxy(point.machine, point.backend);
    return r;
}

std::string
verifySweepRecord(const SweepRecord &record, RegionCache &cache,
                  HierarchyPool &pool)
{
    const SweepPoint point = recordedPoint(record);
    if (!point.info)
        return record.id + ": unknown workload '" + record.workload + "'";
    const BackendField *backend = findBackend(record.backend);
    if (!backend)
        return record.id + ": unknown backend '" + record.backend + "'";
    const RunRequest request = point.toRequest();
    std::shared_ptr<const FrontEnd> entry =
        cache.acquire(*point.info, request);
    const OutcomeSummary rerun = summarizeOutcome(
        *point.info, request, *entry,
        simulateRequest(*point.info, request, *entry, pool));
    const SimSummary &got = *(rerun.*backend->summary);
    if (got == record.summary)
        return {};
    return "MISMATCH " + record.id + "\n  stored " +
           summaryText(record.summary) + "\n  rerun  " + summaryText(got);
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
    Answers answers = storedAnswers(loaded.records);

    RegionCache cache(options.cacheEntries);
    HierarchyPool pool;
    for (size_t i = 0; i < todo.size(); ++i) {
        const SweepPoint &p = *todo[i];
        if (options.onPoint)
            options.onPoint(p.id, i, todo.size());
        std::string key = p.projectedId();
        if (const auto source = answers.find(key);
            source != answers.end()) {
            if (!appendFill(p, source->second, store, stats, error))
                return false;
            continue;
        }
        const clock::time_point start = clock::now();

        const RunRequest request = p.toRequest();
        std::shared_ptr<const FrontEnd> entry =
            cache.acquire(*p.info, request);
        const BackendResults sims =
            simulateRequest(*p.info, request, *entry, pool);
        const OutcomeSummary summary =
            summarizeOutcome(*p.info, request, *entry, sims);

        SweepRecord record = recordFromOutcome(p, summary);
        record.seconds = secondsSince(start);
        if (!store.append(record, error))
            return false;
        ++stats.ran;
        answers.emplace(std::move(key), std::move(record));
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
    Answers answers = storedAnswers(loaded.records);

    const uint32_t window = options.window ? options.window : 1;

    /** A queued point: a request in flight, or a fill (requestId 0). */
    struct Queued
    {
        const SweepPoint *point;
        std::string key; ///< the point's projected id
        uint64_t requestId;
        clock::time_point sent;
    };
    std::deque<Queued> queue;
    uint32_t requestsInFlight = 0;
    uint64_t nextId = 1;
    size_t nextPoint = 0;

    // A point whose projected id is answered, or asked by a request
    // ahead of it, is queued as a fill; any other point sends one.
    auto enqueue = [&]() -> bool {
        const SweepPoint &p = *todo[nextPoint++];
        std::string key = p.projectedId();
        if (answers.count(key)) {
            queue.push_back({&p, std::move(key), 0, clock::now()});
            return true;
        }
        JobSpec spec;
        spec.info = p.info;
        spec.request = p.toRequest();
        spec.klass = AdmitClass::Bulk;
        std::string line;
        appendRunRequest(line, nextId, spec);
        line += '\n';
        if (!client.sendRaw(line))
            return setError(error, "send failed (daemon gone?)");
        answers.emplace(key, std::nullopt);
        queue.push_back({&p, std::move(key), nextId, clock::now()});
        ++nextId;
        ++requestsInFlight;
        return true;
    };

    // Collect strictly in submission (= point) order: the store then
    // grows as a prefix of the pending list, which is what makes a
    // kill at any moment resumable without duplicate records. A fill
    // reaches the head only after its source was collected.
    while (nextPoint < todo.size() || !queue.empty()) {
        while (nextPoint < todo.size() && requestsInFlight < window)
            if (!enqueue())
                return false;

        const Queued head = std::move(queue.front());
        queue.pop_front();
        std::optional<JsonValue> response;
        if (head.requestId) {
            --requestsInFlight;
            response = client.waitFor(head.requestId);
            if (!response)
                return setError(error,
                                "connection closed with responses "
                                "outstanding");
        }
        if (options.onPoint)
            options.onPoint(head.point->id, stats.ran + stats.failed,
                            todo.size());
        if (!head.requestId) {
            if (!appendFill(*head.point, answers.at(head.key), store,
                            stats, error))
                return false;
            continue;
        }

        const JsonValue *type = response->find("type");
        const JsonValue *outcome = response->find("outcome");
        OutcomeSummary summary;
        CodecError err;
        if (!type || !type->isString() || type->str() != "result" ||
            !outcome || !decodeOutcome(*outcome, summary, err)) {
            ++stats.failed;
            continue;
        }
        SweepRecord record = recordFromOutcome(*head.point, summary);
        record.seconds = secondsSince(head.sent);
        if (!store.append(record, error))
            return false;
        ++stats.ran;
        answers.at(head.key) = std::move(record);
    }
    return true;
}

} // namespace nachos
