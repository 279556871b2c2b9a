#include "harness/run_json.hh"

#include <initializer_list>
#include <string_view>

namespace nachos {

namespace {

/** One SimSummary member: its wire name and its field. */
struct SimSummaryField
{
    const char *name;
    uint64_t SimSummary::*u64;  ///< set for integer members
    double SimSummary::*number; ///< set for the others
};

constexpr SimSummaryField kSimSummaryFields[] = {
    {"cycles", &SimSummary::cycles, nullptr},
    {"cyclesPerInvocation", nullptr, &SimSummary::cyclesPerInvocation},
    {"maxMlp", &SimSummary::maxMlp, nullptr},
    {"avgMlp", nullptr, &SimSummary::avgMlp},
    {"loadValueDigest", &SimSummary::loadValueDigest, nullptr},
    {"energyTotal", nullptr, &SimSummary::energyTotal},
};

void
writePairCounts(JsonWriter &w, const PairCounts &counts)
{
    w.beginObject();
    w.member("no", counts.no);
    w.member("may", counts.may);
    w.member("must", counts.must);
    w.endObject();
}

bool
decodePairCounts(const JsonValue *v, PairCounts &counts,
                 CodecError &err)
{
    if (!v || !v->isObject())
        return failCodec(err, "bad_request",
                         "pair-count object missing");
    const char *code = "bad_request";
    return checkMembers(*v, {"no", "may", "must"}, err, code) &&
           readOptionalU64(*v, "no", counts.no, err, code) &&
           readOptionalU64(*v, "may", counts.may, err, code) &&
           readOptionalU64(*v, "must", counts.must, err, code);
}

void
writeSimSummary(JsonWriter &w, const SimSummary &s)
{
    w.beginObject();
    writeSimSummaryMembers(w, s);
    w.endObject();
}

bool
decodeSimSummary(const JsonValue &v, SimSummary &s, CodecError &err)
{
    if (!v.isObject())
        return failCodec(err, "bad_request",
                         "backend summary must be an object");
    return checkMembers(v, isSimSummaryMember, err, "bad_request") &&
           readSimSummaryMembers(v, s, err, "bad_request");
}

SimSummary
summarizeSim(const SimResult &r)
{
    SimSummary s;
    s.cycles = r.cycles;
    s.cyclesPerInvocation = r.cyclesPerInvocation;
    s.maxMlp = r.maxMlp;
    s.avgMlp = r.avgMlp;
    s.loadValueDigest = r.loadValueDigest;
    s.energyTotal = r.energy.total();
    return s;
}

} // namespace

bool
failCodec(CodecError &err, std::string code, std::string message)
{
    err.code = std::move(code);
    err.message = std::move(message);
    return false;
}

bool
checkMembers(const JsonValue &v,
             std::initializer_list<std::string_view> allowed,
             CodecError &err, const char *code, std::string_view noun)
{
    return checkMembers(
        v,
        [allowed](std::string_view name) {
            for (const std::string_view a : allowed)
                if (name == a)
                    return true;
            return false;
        },
        err, code, noun);
}

bool
readOptionalU64(const JsonValue &v, const char *name, uint64_t &out,
                CodecError &err, const char *code)
{
    const JsonValue *m = v.find(name);
    if (!m)
        return true; // optional; caller keeps the default
    if (!m->isU64())
        return failCodec(err, code,
                         std::string("'") + name +
                             "' must be a non-negative integer");
    out = m->asU64();
    return true;
}

bool
readU64(const JsonValue &v, const char *name, uint64_t &out,
        CodecError &err, const char *code)
{
    if (!v.find(name))
        return failCodec(err, code,
                         std::string("'") + name +
                             "' must be a non-negative integer");
    return readOptionalU64(v, name, out, err, code);
}

bool
readNumber(const JsonValue &v, const char *name, double &out,
           CodecError &err, const char *code)
{
    const JsonValue *m = v.find(name);
    if (!m || !m->isNumber())
        return failCodec(err, code,
                         std::string("'") + name + "' must be a number");
    out = m->asDouble();
    return true;
}

bool
readString(const JsonValue &v, const char *name, std::string &out,
           CodecError &err, const char *code)
{
    const JsonValue *m = v.find(name);
    if (!m || !m->isString() || m->str().empty())
        return failCodec(err, code,
                         std::string("'") + name +
                             "' must be a non-empty string");
    out = m->str();
    return true;
}

void
writeSimSummaryMembers(JsonWriter &w, const SimSummary &s)
{
    for (const SimSummaryField &f : kSimSummaryFields) {
        if (f.u64)
            w.member(f.name, s.*f.u64);
        else
            w.member(f.name, s.*f.number);
    }
}

bool
readSimSummaryMembers(const JsonValue &v, SimSummary &s, CodecError &err,
                      const char *code)
{
    for (const SimSummaryField &f : kSimSummaryFields) {
        if (f.u64 ? !readU64(v, f.name, s.*f.u64, err, code)
                  : !readNumber(v, f.name, s.*f.number, err, code))
            return false;
    }
    return true;
}

bool
isSimSummaryMember(std::string_view name)
{
    for (const SimSummaryField &f : kSimSummaryFields)
        if (name == f.name)
            return true;
    return false;
}

bool
decodeMachineOverrides(const JsonValue &v, MachineOverrides &out,
                       CodecError &err)
{
    // Reset first: a reused target (the daemon decodes into one
    // JobSpec per connection) must never keep overrides from an
    // earlier request whose members this one omits.
    out = MachineOverrides{};
    if (!v.isObject())
        return failCodec(err, "bad_machine",
                         "'machine' must be an object");
    if (!checkMembers(v, findMachineField, err, "bad_request"))
        return false;
    for (const MachineField &field : machineFields()) {
        const JsonValue *f = v.find(field.name);
        if (!f)
            continue; // unset: keep the default (0 sentinel)
        // An explicit zero is rejected rather than treated as "unset":
        // silently decoding 0 back to the default would mask typos
        // and make zero/overflow bugs unobservable on the wire.
        if (!f->isU64() || f->asU64() == 0)
            return failCodec(err, "bad_machine",
                             std::string("'machine.") + field.name +
                                 "' must be a positive integer");
        // Checked before the store: every cap fits its slot's width.
        std::string bad = field.reject(f->asU64());
        if (!bad.empty())
            return failCodec(err, "bad_machine", std::move(bad));
        field.slot.set(out, f->asU64());
    }
    std::string bad = validateMachineOverrides(out);
    if (!bad.empty())
        return failCodec(err, "bad_machine", std::move(bad));
    return true;
}

void
writeMachineOverrides(JsonWriter &w, const MachineOverrides &m)
{
    w.beginObject();
    for (const MachineField &field : machineFields())
        if (const uint64_t value = field.slot.get(m))
            w.member(field.name, value);
    w.endObject();
}

bool
decodeRunRequest(const JsonValue &v, JobSpec &spec, CodecError &err)
{
    if (!v.isObject())
        return failCodec(err, "bad_request",
                         "run request must be an object");
    if (!checkMembers(v,
                      {"workload", "pathIndex", "seed", "backends",
                       "pipeline", "invocations", "machine",
                       "timeoutMillis", "sleepMillis", "class"},
                      err, "bad_request"))
        return false;

    // Absent optional members mean their defaults, even when the
    // caller reuses a spec (JobSpec holds no heap state, so this
    // stays on the decode path's zero-allocation budget).
    spec = JobSpec{};

    const JsonValue *workload = v.find("workload");
    if (!workload || !workload->isString())
        return failCodec(err, "bad_request",
                         "'workload' (string) is required");
    spec.info = findBenchmark(workload->str());
    if (!spec.info)
        return failCodec(err, "unknown_workload",
                         "unknown workload '" + workload->str() + "'");

    uint64_t path = 0;
    if (const JsonValue *m = v.find("pathIndex")) {
        if (!m->isU64() || m->asU64() > kMaxPathIndex)
            return failCodec(err, "bad_path_index",
                             "'pathIndex' must be an integer in 0.." +
                                 std::to_string(kMaxPathIndex));
        path = m->asU64();
    }
    spec.request.pathIndex = static_cast<uint32_t>(path);

    if (const JsonValue *m = v.find("seed")) {
        if (!m->isU64() || m->asU64() == 0)
            return failCodec(err, "bad_seed",
                             "'seed' must be a positive integer");
        spec.request.seed = m->asU64();
    }

    if (const JsonValue *m = v.find("backends")) {
        if (!m->isArray() || m->size() == 0)
            return failCodec(err, "bad_request",
                             "'backends' must be a non-empty array");
        for (const BackendField &backend : backendFields())
            spec.request.*backend.run = false;
        for (size_t i = 0; i < m->size(); ++i) {
            const JsonValue &b = m->at(i);
            if (!b.isString())
                return failCodec(err, "bad_request",
                                 "'backends' entries must be strings");
            const BackendField *backend = findBackend(b.str());
            if (!backend)
                return failCodec(err, "bad_request",
                                 "unknown backend '" + b.str() +
                                     "' (expected " + backendNameList() +
                                     ")");
            spec.request.*backend->run = true;
        }
    }

    if (const JsonValue *m = v.find("pipeline")) {
        if (!m->isObject())
            return failCodec(err, "bad_request",
                             "'pipeline' must be an object");
        if (!checkMembers(*m, {"stage2", "stage3", "stage4"}, err,
                          "bad_request"))
            return false;
        auto stage = [&](const char *name, bool &flag) {
            if (const JsonValue *s = m->find(name)) {
                if (!s->isBool())
                    return failCodec(err, "bad_request",
                                     std::string("'pipeline.") + name +
                                         "' must be a bool");
                flag = s->boolean();
            }
            return true;
        };
        if (!stage("stage2", spec.request.pipeline.stage2) ||
            !stage("stage3", spec.request.pipeline.stage3) ||
            !stage("stage4", spec.request.pipeline.stage4))
            return false;
    }

    uint64_t invocations = 0;
    if (!readOptionalU64(v, "invocations", invocations, err,
                         "bad_request"))
        return false;
    if (invocations > kMaxInvocationsOverride)
        return failCodec(err, "bad_request",
                         "'invocations' exceeds the " +
                             std::to_string(kMaxInvocationsOverride) +
                             " cap");
    spec.request.invocationsOverride = invocations;

    if (const JsonValue *m = v.find("machine")) {
        if (!decodeMachineOverrides(*m, spec.request.machine, err))
            return false;
    }

    if (!readOptionalU64(v, "timeoutMillis", spec.timeoutMillis, err,
                         "bad_request"))
        return false;
    if (!readOptionalU64(v, "sleepMillis", spec.sleepMillis, err,
                         "bad_request"))
        return false;
    if (spec.sleepMillis > 60'000)
        return failCodec(err, "bad_request",
                         "'sleepMillis' exceeds the 60000 cap");

    if (const JsonValue *m = v.find("class")) {
        if (!m->isString())
            return failCodec(err, "bad_request",
                             "'class' must be a string");
        if (m->str() == "interactive")
            spec.klass = AdmitClass::Interactive;
        else if (m->str() == "bulk")
            spec.klass = AdmitClass::Bulk;
        else
            return failCodec(err, "bad_request",
                             "unknown class '" + m->str() +
                                 "' (expected interactive|bulk)");
    }
    return true;
}

void
writeRunRequest(JsonWriter &w, const JobSpec &spec)
{
    w.beginObject();
    w.member("workload",
             spec.info ? std::string_view(spec.info->name) : "");
    w.member("pathIndex", spec.request.pathIndex);
    w.member("seed", spec.request.seed);
    w.key("backends");
    w.beginArray();
    for (const BackendField &backend : backendFields())
        if (spec.request.*backend.run)
            w.value(backend.name);
    w.endArray();
    w.key("pipeline");
    w.beginObject();
    w.member("stage2", spec.request.pipeline.stage2);
    w.member("stage3", spec.request.pipeline.stage3);
    w.member("stage4", spec.request.pipeline.stage4);
    w.endObject();
    w.member("invocations", spec.request.invocationsOverride);
    if (spec.request.machine.any()) {
        w.key("machine");
        writeMachineOverrides(w, spec.request.machine);
    }
    if (spec.timeoutMillis)
        w.member("timeoutMillis", spec.timeoutMillis);
    if (spec.sleepMillis)
        w.member("sleepMillis", spec.sleepMillis);
    if (spec.klass == AdmitClass::Bulk)
        w.member("class", "bulk");
    w.endObject();
}

OutcomeSummary
summarizeOutcome(const BenchmarkInfo &info, const RunRequest &request,
                 const RunOutcome &outcome)
{
    return summarizeOutcome(info, request, outcome, outcome);
}

OutcomeSummary
summarizeOutcome(const BenchmarkInfo &info, const RunRequest &request,
                 const FrontEnd &front, const BackendResults &sims)
{
    OutcomeSummary s;
    s.workload = info.name;
    s.pathIndex = request.pathIndex;
    s.seed = request.seed;
    s.invocations = request.invocationsOverride
                        ? request.invocationsOverride
                        : info.invocations;
    s.labels = front.analysis.final().all;
    s.enforced = front.analysis.final().enforced;
    for (const Mde &edge : front.mdes.edges()) {
        switch (edge.kind) {
          case MdeKind::Order: ++s.mdeOrder; break;
          case MdeKind::Forward: ++s.mdeForward; break;
          case MdeKind::May: ++s.mdeMay; break;
        }
    }
    for (const BackendField &backend : backendFields())
        if (const std::optional<SimResult> &sim = sims.*backend.result)
            s.*backend.summary = summarizeSim(*sim);
    return s;
}

void
writeOutcome(JsonWriter &w, const OutcomeSummary &summary)
{
    w.beginObject();
    w.member("workload", summary.workload);
    w.member("pathIndex", summary.pathIndex);
    w.member("seed", summary.seed);
    w.member("invocations", summary.invocations);
    w.key("labels");
    writePairCounts(w, summary.labels);
    w.key("enforced");
    writePairCounts(w, summary.enforced);
    w.key("mdes");
    w.beginObject();
    w.member("order", summary.mdeOrder);
    w.member("forward", summary.mdeForward);
    w.member("may", summary.mdeMay);
    w.endObject();
    w.key("backends");
    w.beginObject();
    for (const BackendField &backend : backendFields()) {
        const std::optional<SimSummary> &s = summary.*backend.summary;
        if (s) {
            w.key(backend.name);
            writeSimSummary(w, *s);
        }
    }
    w.endObject();
    w.endObject();
}

JsonValue
encodeOutcome(const OutcomeSummary &summary)
{
    std::string bytes;
    JsonWriter w(bytes);
    writeOutcome(w, summary);
    return parseWritten(bytes);
}

bool
decodeOutcome(const JsonValue &v, OutcomeSummary &summary,
              CodecError &err)
{
    if (!v.isObject())
        return failCodec(err, "bad_request",
                         "outcome must be an object");
    if (!checkMembers(v,
                      {"workload", "pathIndex", "seed", "invocations",
                       "labels", "enforced", "mdes", "backends"},
                      err, "bad_request"))
        return false;
    const JsonValue *workload = v.find("workload");
    if (!workload || !workload->isString())
        return failCodec(err, "bad_request",
                         "'workload' (string) is required");
    summary.workload = workload->str();
    uint64_t path = 0;
    const char *code = "bad_request";
    if (!readOptionalU64(v, "pathIndex", path, err, code) ||
        !readOptionalU64(v, "seed", summary.seed, err, code) ||
        !readOptionalU64(v, "invocations", summary.invocations, err,
                         code))
        return false;
    summary.pathIndex = static_cast<uint32_t>(path);
    if (!decodePairCounts(v.find("labels"), summary.labels, err) ||
        !decodePairCounts(v.find("enforced"), summary.enforced, err))
        return false;
    const JsonValue *mdes = v.find("mdes");
    if (!mdes || !mdes->isObject())
        return failCodec(err, "bad_request", "'mdes' object missing");
    if (!checkMembers(*mdes, {"order", "forward", "may"}, err, code))
        return false;
    if (!readOptionalU64(*mdes, "order", summary.mdeOrder, err, code) ||
        !readOptionalU64(*mdes, "forward", summary.mdeForward, err,
                         code) ||
        !readOptionalU64(*mdes, "may", summary.mdeMay, err, code))
        return false;
    const JsonValue *backends = v.find("backends");
    if (!backends || !backends->isObject())
        return failCodec(err, "bad_request", "'backends' object missing");
    if (!checkMembers(*backends, findBackend, err, "bad_request"))
        return false;
    for (const BackendField &backend : backendFields()) {
        if (const JsonValue *b = backends->find(backend.name)) {
            SimSummary s;
            if (!decodeSimSummary(*b, s, err))
                return false;
            summary.*backend.summary = s;
        }
    }
    return true;
}

} // namespace nachos
