#include "span.hh"

#include <iomanip>

namespace perfbench {

std::string
Span::layer() const
{
    const std::string n(name);
    return n.substr(0, n.find('.'));
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    // Complete ("X") events in microseconds on one thread; the op id
    // and parent index ride along as args.
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"" << s.layer() << "\",\"ph\":\"X\",\"ts\":"
           << s.startNs / 1000.0 << ",\"dur\":" << s.durNs() / 1000.0
           << ",\"pid\":1,\"tid\":1,\"args\":{\"op\":" << s.op
           << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
}

} // namespace perfbench
