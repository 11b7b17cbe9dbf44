#include "tracer.h"

#include <fstream>
#include <map>

#include "telemetry/trace_recorder.h"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *name)
    : tracer_(tracer.enabled_ ? &tracer : nullptr)
{
    if (tracer_ == nullptr)
        return;
    auto id = static_cast<std::uint32_t>(tracer_->spans_.size() + 1);
    tracer_->spans_.push_back({name, tracer_->nowUs(), 0.0, id,
                               tracer_->currentParent_,
                               tracer_->currentUnit_});
    index_ = id - 1;
    savedParent_ = tracer_->currentParent_;
    tracer_->currentParent_ = id;
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    tracer_->spans_[index_].endUs = tracer_->nowUs();
    tracer_->currentParent_ = savedParent_;
}

Tracer::UnitScope::UnitScope(Tracer &tracer, Phase phase, std::uint32_t tag)
    : tracer_(tracer.enabled_ ? &tracer : nullptr)
{
    if (tracer_ == nullptr)
        return;
    tracer_->units_.push_back({phase, tag});
    savedUnit_ = tracer_->currentUnit_;
    tracer_->currentUnit_ = static_cast<std::uint32_t>(tracer_->units_.size());
}

Tracer::UnitScope::~UnitScope()
{
    if (tracer_ != nullptr)
        tracer_->currentUnit_ = savedUnit_;
}

void
Tracer::count(const char *name, double value)
{
    if (enabled_)
        counts_.push_back({name, value, currentUnit_});
}

bool
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &process) const
{
    crophe::telemetry::TraceRecorder rec;
    rec.beginProcess(process);
    std::uint32_t tid = rec.track("host");
    for (const Span &s : spans_) {
        double phase = s.unit == 0
                           ? -1.0
                           : static_cast<double>(units_[s.unit - 1].phase);
        rec.complete(tid, s.name, s.startUs, s.endUs - s.startUs,
                     {{"span", s.id},
                      {"parent", s.parent},
                      {"unit", s.unit},
                      {"phase", phase}});
    }
    std::ofstream os(path);
    if (!os)
        return false;
    rec.writeJson(os);
    os << "\n";
    return static_cast<bool>(os);
}

namespace {

bool
unitMatches(const Tracer &tracer, std::uint32_t unit, Phase phase,
            std::uint32_t tag)
{
    if (unit == 0)
        return false;
    const Unit &u = tracer.units()[unit - 1];
    return u.phase == phase && (tag == kAnyTag || u.tag == tag);
}

}  // namespace

std::vector<double>
perUnitSeconds(const Tracer &tracer, Phase phase,
               const std::vector<std::string> &names, std::uint32_t tag)
{
    std::map<std::uint32_t, double> sums;
    for (const Span &s : tracer.spans()) {
        if (!unitMatches(tracer, s.unit, phase, tag))
            continue;
        for (const std::string &n : names) {
            if (n == s.name) {
                sums[s.unit] += (s.endUs - s.startUs) * 1e-6;
                break;
            }
        }
    }
    std::vector<double> out;
    for (const auto &[unit, secs] : sums)
        out.push_back(secs);
    return out;
}

std::vector<double>
perUnitCounts(const Tracer &tracer, Phase phase, const std::string &name,
              std::uint32_t tag)
{
    std::map<std::uint32_t, double> sums;
    for (const Count &c : tracer.counts())
        if (unitMatches(tracer, c.unit, phase, tag) && name == c.name)
            sums[c.unit] += c.value;
    std::vector<double> out;
    for (const auto &[unit, v] : sums)
        out.push_back(v);
    return out;
}

std::vector<double>
childCoverage(const Tracer &tracer, Phase phase)
{
    // Root = first parentless span of the unit; children = its direct
    // descendants.
    std::map<std::uint32_t, std::uint32_t> root_of_unit;
    std::map<std::uint32_t, double> covered;
    for (const Span &s : tracer.spans()) {
        if (!unitMatches(tracer, s.unit, phase, kAnyTag))
            continue;
        if (s.parent == 0) {
            root_of_unit.emplace(s.unit, s.id);
            continue;
        }
        auto it = root_of_unit.find(s.unit);
        if (it != root_of_unit.end() && s.parent == it->second)
            covered[s.unit] += s.endUs - s.startUs;
    }
    std::vector<double> out;
    for (const auto &[unit, root] : root_of_unit) {
        const Span &r = tracer.spans()[root - 1];
        double dur = r.endUs - r.startUs;
        if (dur > 0.0)
            out.push_back(covered[unit] / dur);
    }
    return out;
}

}  // namespace perfbench
