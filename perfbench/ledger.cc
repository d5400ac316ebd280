#include "ledger.hh"

namespace perfbench {

Ledger::Scope::Scope(Ledger &ledger, const char *name)
    : ledger_(ledger.enabled_ ? &ledger : nullptr)
{
    if (ledger_ == nullptr)
        return;
    const std::int64_t now = ledger_->nowNs();
    index_ = ledger_->add(name, now, now, ledger_->open_, ledger_->op_);
    ledger_->open_ = index_;
}

Ledger::Scope::~Scope()
{
    if (ledger_ == nullptr)
        return;
    Span &s = ledger_->spans_[static_cast<std::size_t>(index_)];
    s.endNs = ledger_->nowNs();
    ledger_->open_ = s.parent;
}

std::int64_t
Ledger::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Ledger::add(const char *name, std::int64_t start_ns, std::int64_t end_ns,
            int parent, int op)
{
    spans_.push_back(Span{name, start_ns, end_ns, parent, op});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t>
Ledger::selfNs() const
{
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].durationNs();
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.durationNs();
    }
    return self;
}

std::map<std::string, std::int64_t>
Ledger::selfNsByName() const
{
    const std::vector<std::int64_t> self = selfNs();
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

std::map<std::string, std::int64_t>
Ledger::totalNsByName() const
{
    std::map<std::string, std::int64_t> out;
    for (const Span &s : spans_)
        out[s.name] += s.durationNs();
    return out;
}

std::int64_t
Ledger::untracedOpNs() const
{
    const std::vector<std::int64_t> self = selfNs();
    std::int64_t n = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].parent < 0 && spans_[i].op >= 0)
            n += self[i];
    }
    return n;
}

std::int64_t
Ledger::opSpanNs() const
{
    std::int64_t n = 0;
    for (const Span &s : spans_) {
        if (s.parent < 0 && s.op >= 0)
            n += s.durationNs();
    }
    return n;
}

void
Ledger::writeJsonl(std::ostream &os, int pass) const
{
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"pass\":" << pass << ",\"id\":" << i << ",\"name\":\""
           << s.name << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << ",\"parent\":" << s.parent
           << ",\"op\":" << s.op << "}\n";
    }
}

} // namespace perfbench
