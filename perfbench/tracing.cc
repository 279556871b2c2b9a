#include <fstream>
#include <functional>
#include <thread>

#include "common.hh"
#include "support/json.hh"

namespace perfbench {

namespace {

/** A span still open on this thread, with its children's time. */
struct Frame
{
    const char *name;
    double startUs;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    double childUs;
};

thread_local std::vector<Frame> openFrames;

uint64_t
threadTag()
{
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           100000;
}

} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double
Tracer::micros(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *name, uint64_t request)
    : tracer_(tracer)
{
    if (!tracer_.enabled_)
        return;
    const uint64_t parent = openFrames.empty() ? 0 : openFrames.back().id;
    if (!request && !openFrames.empty())
        request = openFrames.back().request;
    openFrames.push_back({name, tracer_.micros(Clock::now()),
                          tracer_.nextId_.fetch_add(1), parent, request,
                          0.0});
}

Tracer::Scope::~Scope()
{
    if (!tracer_.enabled_)
        return;
    const double endUs = tracer_.micros(Clock::now());
    const Frame f = openFrames.back();
    openFrames.pop_back();
    if (!openFrames.empty())
        openFrames.back().childUs += endUs - f.startUs;
    tracer_.finish({f.name, f.startUs, endUs, f.id, f.parent, f.request,
                    threadTag()},
                   f.childUs);
}

void
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, uint64_t request)
{
    if (!enabled_)
        return;
    finish({name, micros(start), micros(end), nextId_.fetch_add(1), 0,
            request, threadTag()},
           0.0);
}

void
Tracer::finish(const Span &span, double childUs)
{
    const double dur = span.endUs - span.startUs;
    std::lock_guard<std::mutex> lock(mutex_);
    self_[span.name] += dur - childUs;
    if (spans_.size() < kMaxStoredSpans)
        spans_.push_back(span);
}

std::map<std::string, double>
Tracer::selfMicros() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return self_;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    using nachos::JsonValue;
    std::lock_guard<std::mutex> lock(mutex_);
    JsonValue events = JsonValue::makeArray();
    for (const Span &s : spans_) {
        JsonValue args = JsonValue::makeObject();
        args.set("span", s.id);
        args.set("parent", s.parent);
        args.set("request", s.request);
        JsonValue ev = JsonValue::makeObject();
        ev.set("name", s.name);
        ev.set("cat", "perfbench");
        ev.set("ph", "X");
        ev.set("ts", s.startUs);
        ev.set("dur", s.endUs - s.startUs);
        ev.set("pid", 1);
        ev.set("tid", s.tid);
        ev.set("args", std::move(args));
        events.push(std::move(ev));
    }
    JsonValue selfUs = JsonValue::makeObject();
    for (const auto &[name, us] : self_)
        selfUs.set(name, us);
    JsonValue root = JsonValue::makeObject();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", "ms");
    root.set("selfMicrosByName", std::move(selfUs));
    root.set("spansDropped",
             static_cast<uint64_t>(nextId_.load() - 1 - spans_.size()));

    std::ofstream out(path);
    out << nachos::dumpJson(root) << "\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
