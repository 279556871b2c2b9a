#include "sweep/spec.hh"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "support/logging.hh"

namespace nachos {

namespace {

bool
compareOp(const std::string &op, uint64_t lhs, uint64_t rhs)
{
    if (op == "lt")
        return lhs < rhs;
    if (op == "le")
        return lhs <= rhs;
    if (op == "eq")
        return lhs == rhs;
    if (op == "ne")
        return lhs != rhs;
    if (op == "ge")
        return lhs >= rhs;
    NACHOS_ASSERT(op == "gt", "constraint op validated at decode");
    return lhs > rhs;
}

std::string
pointId(const SweepPoint &p)
{
    std::string id = "workload=" + p.info->name;
    id += " path=" + std::to_string(p.pathIndex);
    id += " seed=" + std::to_string(p.seed);
    id += " backend=" + p.backend;
    id += " inv=" + std::to_string(p.invocations);
    const std::string machine = machineCoordinates(p.machine);
    if (!machine.empty())
        id += " " + machine;
    return id;
}

} // namespace

RunRequest
SweepPoint::toRequest() const
{
    RunRequest r;
    for (const BackendField &b : backendFields())
        r.*b.run = backend == b.name;
    r.pathIndex = pathIndex;
    r.seed = seed;
    r.invocationsOverride = invocations;
    r.machine = machine;
    return r;
}

std::string
SweepPoint::projectedId() const
{
    const BackendField *b = findBackend(backend);
    NACHOS_ASSERT(info && b, "sweep point without workload or backend");
    SweepPoint seen = *this;
    seen.invocations = invocations ? invocations : info->invocations;
    seen.machine = projectFor(machine, b->kind);
    return pointId(seen);
}

bool
decodeSweepSpec(const JsonValue &v, SweepSpec &spec, CodecError &err)
{
    spec = SweepSpec{};
    if (!v.isObject())
        return failCodec(err, "bad_sweep", "sweep spec must be an object");
    if (!checkMembers(v,
                      {"name", "workloads", "paths", "seeds", "backends",
                       "invocations", "axes", "constraints"},
                      err, "bad_sweep", "sweep member") ||
        !readString(v, "name", spec.name, err, "bad_sweep"))
        return false;

    const JsonValue *workloads = v.find("workloads");
    if (!workloads || !workloads->isArray() || workloads->size() == 0)
        return failCodec(err, "bad_sweep",
                        "'workloads' must be a non-empty array");
    for (size_t i = 0; i < workloads->size(); ++i) {
        const JsonValue &w = workloads->at(i);
        if (!w.isString())
            return failCodec(err, "bad_sweep",
                            "'workloads' entries must be strings");
        const BenchmarkInfo *info = findBenchmark(w.str());
        if (!info)
            return failCodec(err, "unknown_workload",
                            "unknown workload '" + w.str() + "'");
        spec.workloads.push_back(info);
    }

    auto u64Array = [&](const char *member, std::vector<uint64_t> &out,
                        uint64_t maxValue) {
        const JsonValue *a = v.find(member);
        if (!a)
            return true; // keep default
        if (!a->isArray() || a->size() == 0)
            return failCodec(err, "bad_sweep",
                            std::string("'") + member +
                                "' must be a non-empty array");
        out.clear();
        for (size_t i = 0; i < a->size(); ++i) {
            const JsonValue &e = a->at(i);
            if (!e.isU64() || e.asU64() > maxValue)
                return failCodec(err, "bad_sweep",
                                std::string("'") + member +
                                    "' entries must be integers <= " +
                                    std::to_string(maxValue));
            out.push_back(e.asU64());
        }
        return true;
    };

    std::vector<uint64_t> paths;
    if (!u64Array("paths", paths, kMaxPathIndex))
        return false;
    if (!paths.empty()) {
        spec.paths.clear();
        for (const uint64_t p : paths)
            spec.paths.push_back(static_cast<uint32_t>(p));
    }

    std::vector<uint64_t> seeds;
    if (!u64Array("seeds", seeds,
                  std::numeric_limits<uint64_t>::max()))
        return false;
    if (!seeds.empty()) {
        for (const uint64_t s : seeds)
            if (s == 0)
                return failCodec(err, "bad_seed",
                                "'seeds' entries must be positive");
        spec.seeds = seeds;
    }

    if (const JsonValue *backends = v.find("backends")) {
        if (!backends->isArray() || backends->size() == 0)
            return failCodec(err, "bad_sweep",
                            "'backends' must be a non-empty array");
        spec.backends.clear();
        for (size_t i = 0; i < backends->size(); ++i) {
            const JsonValue &b = backends->at(i);
            if (!b.isString() || !findBackend(b.str()))
                return failCodec(err, "bad_sweep",
                                "'backends' entries must be one of " +
                                    backendNameList());
            if (std::find(spec.backends.begin(), spec.backends.end(),
                          b.str()) != spec.backends.end())
                return failCodec(err, "bad_sweep",
                                "duplicate backend '" + b.str() + "'");
            spec.backends.push_back(b.str());
        }
    }

    if (const JsonValue *inv = v.find("invocations")) {
        if (!inv->isU64() || inv->asU64() > kMaxInvocationsOverride)
            return failCodec(err, "bad_sweep",
                            "'invocations' must be an integer <= " +
                                std::to_string(kMaxInvocationsOverride));
        spec.invocations = inv->asU64();
    }

    const JsonValue *axes = v.find("axes");
    if (axes) {
        if (!axes->isObject())
            return failCodec(err, "bad_sweep",
                            "'axes' must be an object");
        for (const auto &member : axes->members()) {
            SweepAxis axis;
            axis.field = member.first;
            const MachineField *field = findMachineField(axis.field);
            if (!field)
                return failCodec(err, "bad_sweep",
                                "unknown machine axis '" + axis.field +
                                    "'");
            for (const SweepAxis &prior : spec.axes)
                if (prior.field == axis.field)
                    return failCodec(err, "bad_sweep",
                                    "duplicate axis '" + axis.field +
                                        "'");
            const JsonValue &values = member.second;
            if (!values.isArray() || values.size() == 0)
                return failCodec(err, "bad_sweep",
                                "axis '" + axis.field +
                                    "' must be a non-empty array");
            for (size_t i = 0; i < values.size(); ++i) {
                const JsonValue &e = values.at(i);
                if (!e.isU64() || e.asU64() == 0)
                    return failCodec(err, "bad_sweep",
                                    "axis '" + axis.field +
                                        "' values must be positive "
                                        "integers");
                // The field's own rules, on the full 64-bit value (the
                // probe's slot truncates to its width). Then the
                // per-value probe: the field alone, merged onto the
                // default machine, must be valid. (Cross-field
                // geometry is re-checked per expanded point.)
                std::string bad = field->reject(e.asU64());
                if (bad.empty()) {
                    MachineOverrides probe;
                    field->slot.set(probe, e.asU64());
                    bad = validateMachineOverrides(probe);
                }
                if (!bad.empty())
                    return failCodec(err, "bad_machine",
                                    "axis '" + axis.field + "' value " +
                                        std::to_string(e.asU64()) +
                                        ": " + bad);
                if (std::find(axis.values.begin(), axis.values.end(),
                              e.asU64()) != axis.values.end())
                    return failCodec(err, "bad_sweep",
                                    "axis '" + axis.field +
                                        "' has duplicate values");
                axis.values.push_back(e.asU64());
            }
            spec.axes.push_back(std::move(axis));
        }
    }

    if (const JsonValue *constraints = v.find("constraints")) {
        if (!constraints->isArray())
            return failCodec(err, "bad_sweep",
                            "'constraints' must be an array");
        for (size_t i = 0; i < constraints->size(); ++i) {
            const JsonValue &c = constraints->at(i);
            if (!c.isObject())
                return failCodec(err, "bad_sweep",
                                "constraints must be objects");
            if (!checkMembers(c, {"lhs", "op", "rhs"}, err, "bad_sweep",
                              "sweep member"))
                return false;
            SweepConstraint constraint;
            const JsonValue *lhs = c.find("lhs");
            if (!lhs || !lhs->isString() ||
                !findMachineField(lhs->str()))
                return failCodec(err, "bad_sweep",
                                "constraint 'lhs' must name a machine "
                                "axis");
            constraint.lhs = lhs->str();
            const JsonValue *op = c.find("op");
            const bool knownOp =
                op && op->isString() &&
                (op->str() == "lt" || op->str() == "le" ||
                 op->str() == "eq" || op->str() == "ne" ||
                 op->str() == "ge" || op->str() == "gt");
            if (!knownOp)
                return failCodec(err, "bad_sweep",
                                "constraint 'op' must be one of "
                                "lt/le/eq/ne/ge/gt");
            constraint.op = op->str();
            const JsonValue *rhs = c.find("rhs");
            if (rhs && rhs->isString()) {
                if (!findMachineField(rhs->str()))
                    return failCodec(err, "bad_sweep",
                                    "constraint 'rhs' names an unknown "
                                    "machine axis");
                constraint.rhsAxis = rhs->str();
                constraint.rhsIsAxis = true;
            } else if (rhs && rhs->isU64()) {
                constraint.rhsValue = rhs->asU64();
            } else {
                return failCodec(err, "bad_sweep",
                                "constraint 'rhs' must be an axis name "
                                "or a non-negative integer");
            }
            spec.constraints.push_back(std::move(constraint));
        }
    }
    return true;
}

std::vector<SweepPoint>
expandSweep(const SweepSpec &spec)
{
    auto fieldNamed = [](const std::string &name) {
        const MachineField *field = findMachineField(name);
        NACHOS_ASSERT(field, "sweep names no machine field '", name, "'");
        return field;
    };
    std::vector<const MachineField *> axisFields;
    for (const SweepAxis &axis : spec.axes)
        axisFields.push_back(fieldNamed(axis.field));

    // Odometer over the machine axes (last axis fastest); an empty
    // axes list yields the single all-default machine.
    std::vector<size_t> odo(spec.axes.size(), 0);
    std::vector<MachineOverrides> machines;
    while (true) {
        MachineOverrides m;
        for (size_t a = 0; a < spec.axes.size(); ++a)
            axisFields[a]->slot.set(m, spec.axes[a].values[odo[a]]);

        // Constraints compare effective values: an unset axis reads
        // as its Figure-3 default.
        SimConfig effective;
        m.applyTo(effective);
        bool keep = true;
        for (const SweepConstraint &c : spec.constraints) {
            const uint64_t lhs = fieldNamed(c.lhs)->sim.get(effective);
            const uint64_t rhs =
                c.rhsIsAxis ? fieldNamed(c.rhsAxis)->sim.get(effective)
                            : c.rhsValue;
            if (!compareOp(c.op, lhs, rhs)) {
                keep = false;
                break;
            }
        }
        // Combined-geometry filter: a cross product naturally contains
        // infeasible corners (e.g. a small L1 size crossed with a huge
        // line size); they are skipped, not errors — each single value
        // was already validated at decode time.
        if (keep && !validateMachineOverrides(m).empty())
            keep = false;
        if (keep)
            machines.push_back(m);

        size_t a = spec.axes.size();
        bool rolledOver = true;
        while (a > 0) {
            --a;
            if (++odo[a] < spec.axes[a].values.size()) {
                rolledOver = false;
                break;
            }
            odo[a] = 0;
        }
        if (rolledOver)
            break;
    }

    std::vector<SweepPoint> points;
    points.reserve(spec.workloads.size() * spec.paths.size() *
                   spec.seeds.size() * spec.backends.size() *
                   machines.size());
    for (const BenchmarkInfo *info : spec.workloads)
        for (const uint32_t path : spec.paths)
            for (const uint64_t seed : spec.seeds)
                for (const std::string &backend : spec.backends)
                    for (const MachineOverrides &m : machines) {
                        SweepPoint p;
                        p.info = info;
                        p.pathIndex = path;
                        p.seed = seed;
                        p.backend = backend;
                        p.invocations = spec.invocations;
                        p.machine = m;
                        p.id = pointId(p);
                        p.hash = fnv1a64(p.id);
                        points.push_back(std::move(p));
                    }
    return points;
}

} // namespace nachos
