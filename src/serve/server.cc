#include "serve/server.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "obs/provenance.hh"
#include "serve/protocol.hh"

namespace hscd {
namespace serve {

namespace {

std::string
rejected(const std::string &error)
{
    return csprintf("{\"ok\": false, \"status\": \"rejected\", "
                    "\"error\": \"%s\"}",
                    jsonEscape(error));
}

/** Single-line provenance object (NDJSON responses must be one line). */
std::string
provenanceLine(std::uint64_t configHash, unsigned jobs)
{
    return csprintf("{\"schema\": \"hscd-serve-stats/1\", "
                    "\"tool\": \"hscd_serve\", "
                    "\"config_hash\": \"%016x\", \"jobs\": %d}",
                    configHash, jobs);
}

} // namespace

Server::Server(ServerOptions opts, CampaignQueue::CellFn runCell)
    : _opts(std::move(opts))
{
    if (_opts.socketPath.empty())
        _opts.socketPath = _opts.stateDir + "/sock";
    _queue = std::make_unique<CampaignQueue>(
        _opts.stateDir, _opts.limits, std::move(runCell),
        _opts.workers ? _opts.workers : 1);
}

Server::~Server()
{
    requestStop(false);
    reapConnections(true);
    if (!_opts.useTcp && _listener.valid())
        ::unlink(_opts.socketPath.c_str());
}

std::size_t
Server::recover()
{
    return _queue->recover();
}

bool
Server::start(std::string &error)
{
    int pipefd[2];
    if (::pipe(pipefd) != 0) {
        error = csprintf("pipe: %s", std::strerror(errno));
        return false;
    }
    _wakeRead.reset(pipefd[0]);
    _wakeWrite.reset(pipefd[1]);

    if (_opts.useTcp) {
        _listener = listenTcp(_opts.tcpPort, _boundPort, error);
    } else {
        _listener = listenUnix(_opts.socketPath, error);
    }
    return _listener.valid();
}

void
Server::requestStop(bool drain)
{
    // Runs from signal handlers: only lock-free atomics and write(2).
    _drain.store(drain);
    _stop.store(true);
    if (_wakeWrite.valid()) {
        const char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(_wakeWrite.get(), &byte, 1);
    }
}

std::size_t
Server::serve()
{
    hscd_assert(_listener.valid(), "serve() before start()");
    while (!_stop.load()) {
        pollfd fds[2];
        fds[0].fd = _listener.get();
        fds[0].events = POLLIN;
        fds[1].fd = _wakeRead.get();
        fds[1].events = POLLIN;
        int rc = ::poll(fds, 2, 1000);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        reapConnections(false);
        if (_stop.load())
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        Fd conn(::accept(_listener.get(), nullptr, nullptr));
        if (!conn.valid())
            continue;
        if (_activeConns.load() >= _opts.maxConnections) {
            // Connection-level backpressure: same shed contract as a
            // full queue, one line and close.
            LineChannel ch(std::move(conn));
            ch.writeLine("{\"ok\": false, \"status\": \"shed\", "
                         "\"retry\": true, "
                         "\"error\": \"too many connections\"}");
            continue;
        }
        ++_activeConns;
        std::lock_guard<std::mutex> lock(_connMu);
        _conns.emplace_back(
            [this](Fd fd) { handleConnection(std::move(fd)); },
            std::move(conn));
    }

    // Stop accepting before draining so late clients get ECONNREFUSED
    // rather than a hang.
    _listener.reset();
    if (!_opts.useTcp)
        ::unlink(_opts.socketPath.c_str());
    reapConnections(true);
    _queue->shutdown(_drain.load());
    return _queue->unfinishedCells();
}

void
Server::reapConnections(bool all)
{
    std::vector<std::thread> stale;
    {
        std::lock_guard<std::mutex> lock(_connMu);
        if (all) {
            stale.swap(_conns);
        } else if (_activeConns.load() == 0) {
            // All handlers returned; their threads just need joining.
            stale.swap(_conns);
        }
    }
    for (std::thread &t : stale)
        if (t.joinable())
            t.join();
}

void
Server::handleConnection(Fd fd)
{
    LineChannel ch(std::move(fd));
    bool first = true;
    for (;;) {
        // Wait politely so a drain isn't held hostage by an idle
        // client: poll with a short timeout and re-check the stop flag.
        pollfd p;
        p.fd = ch.fd();
        p.events = POLLIN;
        int rc = ::poll(&p, 1, 200);
        if (_stop.load())
            break;
        if (rc < 0 && errno != EINTR)
            break;
        if (rc <= 0 || !(p.revents & (POLLIN | POLLHUP)))
            continue;

        std::string line;
        if (!ch.readLine(line))
            break; // EOF or error
        if (first && (line.rfind("GET ", 0) == 0 ||
                      line.rfind("HEAD ", 0) == 0)) {
            handleHttp(ch, line);
            break; // Connection: close
        }
        first = false;
        if (line.empty())
            continue;
        if (!ch.writeLine(handleRequestLine(line)))
            break;
    }
    --_activeConns;
}

void
Server::handleHttp(LineChannel &ch, const std::string &requestLine)
{
    // "GET /path HTTP/1.x" - drain the headers, answer, close.
    std::string hdr;
    while (ch.readLine(hdr) && !hdr.empty() && hdr != "\r") {
    }
    std::istringstream rl(requestLine);
    std::string method, path;
    rl >> method >> path;

    std::string body;
    const char *status = "200 OK";
    if (path == "/healthz") {
        body = healthzJson() + "\n";
    } else if (path == "/stats") {
        body = statsJson() + "\n";
    } else {
        status = "404 Not Found";
        body = "{\"ok\": false, \"error\": \"unknown path\"}\n";
    }
    std::string resp = csprintf(
        "HTTP/1.0 %s\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: %d\r\n"
        "Connection: close\r\n\r\n",
        status, body.size());
    if (method != "HEAD")
        resp += body;
    ch.writeAll(resp);
}

std::string
Server::healthzJson() const
{
    return csprintf(
        "{\"ok\": true, \"status\": \"%s\", \"queue_depth\": %d, "
        "\"campaigns\": %d, \"workers\": %d}",
        _queue->draining() || _stop.load() ? "draining" : "serving",
        _queue->depth(), _queue->campaignCount(), _queue->workers());
}

std::string
Server::statsJson() const
{
    const QueueCounters ctr = _queue->counters();
    std::string extra;
    if (_opts.extraStats) {
        extra = _opts.extraStats();
        if (!extra.empty())
            extra = ", " + extra;
    }
    return csprintf(
        "{\"provenance\": %s, \"status\": \"%s\", "
        "\"queue_depth\": %d, \"campaigns\": %d, "
        "\"counters\": {\"submitted\": %d, \"dedup\": %d, "
        "\"shed\": %d, \"rejected\": %d, \"cells_run\": %d, "
        "\"cells_restored\": %d, \"cell_errors\": %d, "
        "\"completed\": %d, \"deadline_expired\": %d}%s}",
        provenanceLine(obs::fnv1a(_opts.stateDir), _queue->workers()),
        _queue->draining() || _stop.load() ? "draining" : "serving",
        _queue->depth(), _queue->campaignCount(), ctr.submitted,
        ctr.dedup, ctr.shed, ctr.rejected, ctr.cellsRun,
        ctr.cellsRestored, ctr.cellErrors, ctr.completed,
        ctr.deadlineExpired, extra);
}

std::string
Server::handleRequestLine(const std::string &line)
{
    try {
        return dispatchRequest(line);
    } catch (const std::exception &e) {
        // fatal() in the queue (e.g. an unwritable state dir) must
        // become a structured response, not a dead connection thread.
        return csprintf("{\"ok\": false, \"status\": \"internal\", "
                        "\"error\": \"%s\"}",
                        jsonEscape(e.what()));
    }
}

std::string
Server::dispatchRequest(const std::string &line)
{
    // A hard input bound keeps a hostile client from feeding the
    // parser an unbounded allocation through one request line.
    constexpr std::size_t kMaxRequestBytes = 8u << 20;
    JsonValue req;
    std::string error;
    if (line.size() > kMaxRequestBytes) {
        _queue->noteRejected();
        return rejected("bad JSON: input too large");
    }
    if (!parseJson(line, req, error)) {
        _queue->noteRejected();
        return rejected("bad JSON: " + error);
    }
    const JsonValue *op = req.get("op");
    if (!req.isObject() || !op || !op->isString()) {
        _queue->noteRejected();
        return rejected("missing 'op'");
    }

    if (op->text == "healthz")
        return healthzJson();
    if (op->text == "stats")
        return statsJson();

    if (op->text == "submit") {
        CampaignSpec spec;
        if (!parseSubmit(req, spec, error)) {
            _queue->noteRejected();
            return rejected(error);
        }
        const CampaignQueue::Admission adm = _queue->submit(spec);
        switch (adm.status) {
          case CampaignQueue::Admission::Status::Accepted:
            return csprintf("{\"ok\": true, \"status\": \"accepted\", "
                            "\"id\": \"%016x\", \"queued\": %d}",
                            adm.id, adm.queuedCells);
          case CampaignQueue::Admission::Status::Dedup:
            return csprintf("{\"ok\": true, \"status\": \"dedup\", "
                            "\"id\": \"%016x\", \"queued\": %d}",
                            adm.id, adm.queuedCells);
          case CampaignQueue::Admission::Status::Shed:
          default:
            return csprintf("{\"ok\": false, \"status\": \"shed\", "
                            "\"retry\": true, \"id\": \"%016x\", "
                            "\"error\": \"%s\"}",
                            adm.id, jsonEscape(adm.error));
        }
    }

    if (op->text == "poll") {
        const JsonValue *id = req.get("id");
        if (!id || !id->isString() || id->text.size() != 16) {
            _queue->noteRejected();
            return rejected("missing or bad 'id'");
        }
        char *end = nullptr;
        const std::uint64_t key =
            std::strtoull(id->text.c_str(), &end, 16);
        if (end != id->text.c_str() + 16) {
            _queue->noteRejected();
            return rejected("missing or bad 'id'");
        }
        const CampaignQueue::Status st = _queue->status(key);
        if (!st.known)
            return csprintf("{\"ok\": false, \"status\": \"unknown\", "
                            "\"id\": \"%016x\"}",
                            key);
        std::string resp = csprintf(
            "{\"ok\": true, \"status\": \"%s\", \"id\": \"%016x\", "
            "\"done\": %d, \"total\": %d, \"errors\": %d",
            st.complete ? "complete" : "running", key, st.done, st.total,
            st.errors);
        if (!st.resultPath.empty())
            resp += csprintf(", \"result\": \"%s\"",
                             jsonEscape(st.resultPath));
        return resp + "}";
    }

    if (op->text == "shutdown") {
        bool drain = true;
        if (const JsonValue *d = req.get("drain")) {
            if (!d->isBool()) {
                _queue->noteRejected();
                return rejected("bad 'drain' value");
            }
            drain = d->boolean;
        }
        requestStop(drain);
        return csprintf("{\"ok\": true, \"status\": \"stopping\", "
                        "\"drain\": %s}",
                        drain ? "true" : "false");
    }

    _queue->noteRejected();
    return rejected(csprintf("unknown op '%s'", op->text));
}

} // namespace serve
} // namespace hscd
