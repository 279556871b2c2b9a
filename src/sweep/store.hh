/**
 * @file
 * Append-only JSONL result store for design-space sweeps. One line per
 * completed sweep point:
 *
 *   {"id":"workload=183.equake path=0 ... lsqBanks=4","hash":...,
 *    "workload":"183.equake","pathIndex":0,"seed":1,"backend":"nachos",
 *    "invocations":20,"machine":{...},"cycles":...,
 *    "cyclesPerInvocation":...,"maxMlp":...,"avgMlp":...,
 *    "loadValueDigest":...,"energyTotal":...,"areaProxy":...,
 *    "seconds":...}
 *
 * The store is the sweep's resume point: an orchestrator loads it,
 * skips every point whose hash already has a record, and appends one
 * record per newly computed point (write + flush per record, so a
 * kill loses at most the line being written).
 *
 * Torn-tail tolerance: a process killed mid-append leaves a final
 * line that is incomplete or unparseable. load() accepts that — the
 * valid prefix is returned and the torn tail's byte offset reported —
 * and openForAppend() truncates the file back to the valid prefix so
 * the next append starts on a clean line boundary. A malformed line
 * anywhere *before* the tail is corruption and fails the load; so is
 * a duplicate point hash (the orchestrator's skip logic makes
 * duplicates impossible in normal operation).
 *
 * `seconds` (wall clock) is the one non-deterministic member; reports
 * exclude it, which is what makes an interrupted-and-resumed sweep's
 * report byte-identical to an uninterrupted one's.
 */

#ifndef NACHOS_SWEEP_STORE_HH
#define NACHOS_SWEEP_STORE_HH

#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "sweep/spec.hh"

namespace nachos {

/** One completed sweep point: coordinates + scalar results. */
struct SweepRecord
{
    std::string id;
    uint64_t hash = 0;
    std::string workload;
    uint32_t pathIndex = 0;
    uint64_t seed = 0;
    std::string backend;
    uint64_t invocations = 0; ///< effective (resolved) count
    MachineOverrides machine;
    SimSummary summary; ///< the backend's results
    double areaProxy = 0;
    double seconds = 0; ///< wall clock; excluded from reports
};

/**
 * Canonical record encoding (fixed member order): a store line. The
 * summary's members sit flat between "machine" and "areaProxy", written
 * by writeSimSummaryMembers.
 */
void writeSweepRecord(JsonWriter &w, const SweepRecord &r);

/** writeSweepRecord's bytes as a tree, for callers that want one. */
JsonValue encodeSweepRecord(const SweepRecord &r);

/** Strict inverse of writeSweepRecord: a missing, wrong-typed or
 *  unknown member fails as `bad_record`. */
bool decodeSweepRecord(const JsonValue &v, SweepRecord &r,
                       CodecError &err);

/** Result of SweepStore::load. */
struct SweepLoadResult
{
    std::vector<SweepRecord> records;
    /** Bytes of the valid prefix (== file size when no torn tail). */
    uint64_t validBytes = 0;
    /** True when a torn (incomplete/unparseable) final line was cut. */
    bool tornTail = false;
};

class SweepStore
{
  public:
    explicit SweepStore(std::string path) : path_(std::move(path)) {}
    ~SweepStore();

    SweepStore(const SweepStore &) = delete;
    SweepStore &operator=(const SweepStore &) = delete;

    /**
     * Read every record. A missing file is an empty store, not an
     * error. False + *error on real corruption (bad line before the
     * tail, duplicate hash, unreadable file).
     */
    bool load(SweepLoadResult &out, std::string *error) const;

    /**
     * Open for appending, truncating a torn tail first (see file
     * header). Loads and returns the surviving records through `out`.
     */
    bool openForAppend(SweepLoadResult &out, std::string *error);

    /** Append one record as a line and flush it to the OS. */
    bool append(const SweepRecord &record, std::string *error);

    void close();

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
};

/**
 * The point `r` records, with its effective invocation count; `info`
 * is null when the record names an unknown workload.
 */
SweepPoint recordedPoint(const SweepRecord &r);

/** The set of point hashes present in `records`. */
std::unordered_set<uint64_t>
completedHashes(const std::vector<SweepRecord> &records);

} // namespace nachos

#endif // NACHOS_SWEEP_STORE_HH
