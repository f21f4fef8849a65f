#include "serve/queue.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "obs/provenance.hh"
#include "serve/journal.hh"

namespace fs = std::filesystem;

namespace hscd {
namespace serve {

namespace {

/**
 * Campaign journal magic. Distinct from the sweep checkpoint magic so a
 * sweep checkpoint dropped into the server state dir is refused as
 * foreign instead of silently merged.
 */
const char *const kServeJournalMagic = "hscd-serve-journal v1";

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return "";
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/**
 * Write @p content to @p path via tmp-file + rename so the file is
 * either whole or absent after a crash. flush() pushes the bytes to the
 * OS, which survives `kill -9` of this process (the crash model the
 * chaos harness exercises; whole-machine power loss is out of scope,
 * as it is for the sweep checkpoint).
 */
bool
atomicWrite(const std::string &path, const std::string &content)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            return false;
        f << content;
        f.flush();
        if (!f)
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

} // namespace

CampaignQueue::CampaignQueue(std::string stateDir, QueueLimits limits,
                             CellFn runCell, unsigned workers)
    : _stateDir(std::move(stateDir)), _limits(limits),
      _runCell(std::move(runCell)),
      _workers(workers ? workers : 1)
{
    std::error_code ec;
    fs::create_directories(_stateDir, ec);
    if (ec)
        fatal("cannot create state directory '%s': %s", _stateDir,
              ec.message());
    _threads.reserve(_workers);
    for (unsigned i = 0; i < _workers; ++i)
        _threads.emplace_back([this] { workerLoop(); });
}

CampaignQueue::~CampaignQueue()
{
    shutdown(false);
}

std::string
CampaignQueue::reqPath(std::uint64_t id) const
{
    return _stateDir + "/" + csprintf("%016x", id) + ".req";
}

std::string
CampaignQueue::journalPath(std::uint64_t id) const
{
    return _stateDir + "/" + csprintf("%016x", id) + ".journal";
}

std::string
CampaignQueue::resultPath(std::uint64_t id) const
{
    return _stateDir + "/" + csprintf("%016x", id) + ".result.json";
}

bool
CampaignQueue::loadJournal(Campaign &c)
{
    std::ifstream f(journalPath(c.id));
    if (!f)
        return true; // no journal yet: nothing recorded

    std::string line;
    if (!std::getline(f, line)) {
        // Empty file (crash between create and header flush): treat as
        // absent and rewrite from scratch.
        return true;
    }
    std::uint64_t identity = 0;
    if (!parseJournalHeader(line, kServeJournalMagic, identity)) {
        // Torn or malformed header - including one truncated inside the
        // identity hash. Structurally not ours: set it aside rather
        // than guessing.
        Log::emit("serve",
                  csprintf("discarding journal with invalid header: %s",
                           journalPath(c.id)));
        std::error_code ec;
        fs::rename(journalPath(c.id), journalPath(c.id) + ".invalid", ec);
        return true;
    }
    if (identity != c.id) {
        Log::emit("serve",
                  csprintf("journal %s is foreign (id %016x != %016x); "
                           "set aside",
                           journalPath(c.id), identity, c.id));
        std::error_code ec;
        fs::rename(journalPath(c.id), journalPath(c.id) + ".foreign", ec);
        return false;
    }

    std::vector<std::string> validLines;
    validLines.push_back(line);
    bool sawTorn = false;
    while (std::getline(f, line)) {
        if (line.empty())
            continue;
        TokenReader in(line);
        if (in.tok() != "cell") {
            sawTorn = true;
            continue;
        }
        std::uint64_t idx = in.u64();
        std::string error = in.str();
        sim::RunResult r;
        if (!decodeResult(in, r) || !in.atEnd() || idx >= c.results.size()
            || c.have[idx]) {
            // Torn tail (or duplicate): drop the record, re-run the cell.
            sawTorn = true;
            continue;
        }
        c.results[idx] = r;
        c.errors[idx] = error;
        c.have[idx] = 1;
        ++c.done;
        validLines.push_back(line);
    }
    f.close();

    if (sawTorn) {
        // Compact away the torn tail before reopening for append, so a
        // new record can never concatenate onto a half-written line.
        std::string body;
        for (const std::string &l : validLines)
            body += l + "\n";
        if (!atomicWrite(journalPath(c.id), body))
            fatal("cannot rewrite journal '%s'", journalPath(c.id));
    }
    return true;
}

bool
CampaignQueue::openJournal(Campaign &c, bool hasHeader)
{
    c.journal.open(journalPath(c.id), std::ios::app);
    if (!c.journal)
        return false;
    if (!hasHeader) {
        c.journal << journalHeader(kServeJournalMagic, c.id) << "\n";
        c.journal.flush();
    }
    return c.journal.good();
}

std::size_t
CampaignQueue::recover()
{
    std::vector<std::string> reqs;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(_stateDir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() == 16 + 4 && name.substr(16) == ".req")
            reqs.push_back(entry.path().string());
    }
    std::sort(reqs.begin(), reqs.end()); // deterministic recovery order

    std::size_t recovered = 0;
    for (const std::string &path : reqs) {
        const std::string text = readFile(path);
        JsonValue req;
        std::string error;
        CampaignSpec spec;
        if (!parseJson(text, req, error) ||
            !parseSubmit(req, spec, error)) {
            Log::emit("serve",
                      csprintf("skipping unreadable request %s: %s", path,
                               error));
            continue;
        }
        const std::uint64_t id = spec.identity();
        if (path != reqPath(id)) {
            Log::emit("serve",
                      csprintf("skipping request %s: identity %016x "
                               "mismatch",
                               path, id));
            continue;
        }

        auto c = std::make_shared<Campaign>();
        c->spec = std::move(spec);
        c->id = id;
        c->results.resize(c->spec.cells.size());
        c->errors.resize(c->spec.cells.size());
        c->have.assign(c->spec.cells.size(), 0);
        c->started.assign(c->spec.cells.size(), 0);
        c->admitted = std::chrono::steady_clock::now();

        if (fs::exists(resultPath(id))) {
            // Finished in a previous life; resident only for
            // poll/dedup, nothing to re-run.
            c->complete = true;
            c->done = c->spec.cells.size();
            std::fill(c->have.begin(), c->have.end(), 1);
            std::fill(c->started.begin(), c->started.end(), 1);
        } else {
            const bool hadJournal = fs::exists(journalPath(id));
            loadJournal(*c); // foreign journal was set aside: start fresh
            const bool headerKept =
                hadJournal && fs::exists(journalPath(id));
            if (!openJournal(*c, headerKept))
                fatal("cannot open journal '%s'", journalPath(id));
        }

        std::lock_guard<std::mutex> lock(_mu);
        if (_campaigns.count(id))
            continue;
        _counters.cellsRestored += c->done;
        _campaigns[id] = c;
        ++recovered;
        if (!c->complete) {
            if (c->done == c->spec.cells.size()) {
                // All cells journaled but the aggregate rename never
                // happened: finish it now.
                writeAggregate(*c);
                c->complete = true;
                ++_counters.completed;
            } else {
                enqueueRemaining(c);
            }
        }
    }
    _cv.notify_all();
    return recovered;
}

CampaignQueue::Admission
CampaignQueue::submit(const CampaignSpec &spec)
{
    Admission adm;
    adm.id = spec.identity();

    std::unique_lock<std::mutex> lock(_mu);
    if (_stopping) {
        adm.status = Admission::Status::Shed;
        adm.error = "server is draining";
        ++_counters.shed;
        return adm;
    }
    auto it = _campaigns.find(adm.id);
    if (it != _campaigns.end()) {
        adm.status = Admission::Status::Dedup;
        adm.queuedCells = _queue.size();
        ++_counters.dedup;
        return adm;
    }
    if (spec.cells.size() > _limits.maxCampaignCells) {
        adm.status = Admission::Status::Shed;
        adm.error = csprintf("campaign too large: %d cells (limit %d)",
                             spec.cells.size(), _limits.maxCampaignCells);
        ++_counters.shed;
        return adm;
    }
    if (_campaigns.size() >= _limits.maxCampaigns) {
        adm.status = Admission::Status::Shed;
        adm.error = csprintf("too many resident campaigns (limit %d)",
                             _limits.maxCampaigns);
        ++_counters.shed;
        return adm;
    }
    if (_queue.size() + spec.cells.size() > _limits.maxQueuedCells) {
        adm.status = Admission::Status::Shed;
        adm.error = csprintf(
            "queue full: %d queued + %d submitted > %d (retry later)",
            _queue.size(), spec.cells.size(), _limits.maxQueuedCells);
        ++_counters.shed;
        return adm;
    }

    // Admitted. Make the request durable *before* acknowledging: once
    // the caller sees Accepted, a kill -9 must not lose the campaign.
    lock.unlock();
    auto c = std::make_shared<Campaign>();
    c->spec = spec;
    c->id = adm.id;
    c->results.resize(spec.cells.size());
    c->errors.resize(spec.cells.size());
    c->have.assign(spec.cells.size(), 0);
    c->started.assign(spec.cells.size(), 0);
    c->admitted = std::chrono::steady_clock::now();
    if (!atomicWrite(reqPath(adm.id), spec.toRequestJson() + "\n")) {
        std::lock_guard<std::mutex> relock(_mu);
        adm.status = Admission::Status::Shed;
        adm.error = "cannot persist request (state dir unwritable)";
        ++_counters.shed;
        return adm;
    }
    // A journal may survive from an earlier acknowledged run of this
    // same campaign whose .req was lost; adopt its completed cells.
    const bool hadJournal = fs::exists(journalPath(adm.id));
    loadJournal(*c);
    const bool headerKept = hadJournal && fs::exists(journalPath(adm.id));
    if (!openJournal(*c, headerKept)) {
        std::lock_guard<std::mutex> relock(_mu);
        adm.status = Admission::Status::Shed;
        adm.error = "cannot open journal (state dir unwritable)";
        ++_counters.shed;
        return adm;
    }

    lock.lock();
    if (_campaigns.count(adm.id)) {
        // Raced with a concurrent identical submission: defer to it.
        adm.status = Admission::Status::Dedup;
        ++_counters.dedup;
        return adm;
    }
    _campaigns[adm.id] = c;
    ++_counters.submitted;
    _counters.cellsRestored += c->done;
    adm.status = Admission::Status::Accepted;
    if (c->done == c->spec.cells.size()) {
        writeAggregate(*c);
        c->complete = true;
        ++_counters.completed;
    } else {
        enqueueRemaining(c);
    }
    adm.queuedCells = _queue.size();
    _cv.notify_all();
    return adm;
}

void
CampaignQueue::enqueueRemaining(const std::shared_ptr<Campaign> &c)
{
    // Caller holds _mu. Submission order: the queue preserves cell
    // order within a campaign so output ordering never depends on
    // which worker finishes first (aggregation is index-keyed anyway).
    for (std::size_t i = 0; i < c->spec.cells.size(); ++i) {
        if (!c->have[i] && !c->started[i]) {
            c->started[i] = 1;
            _queue.push_back(Work{c, i});
        }
    }
}

CampaignQueue::Status
CampaignQueue::status(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(_mu);
    Status st;
    auto it = _campaigns.find(id);
    if (it == _campaigns.end())
        return st;
    const Campaign &c = *it->second;
    st.known = true;
    st.complete = c.complete;
    st.done = c.done;
    st.total = c.spec.cells.size();
    for (std::size_t i = 0; i < c.errors.size(); ++i)
        if (c.have[i] && !c.errors[i].empty())
            ++st.errors;
    if (c.complete)
        st.resultPath = resultPath(id);
    return st;
}

void
CampaignQueue::workerLoop()
{
    for (;;) {
        Work w;
        {
            std::unique_lock<std::mutex> lock(_mu);
            _cv.wait(lock, [this] { return _stopping || !_queue.empty(); });
            if (_stopping)
                return; // queued cells stay journal-durable
            w = _queue.front();
            _queue.pop_front();
            ++_inFlight;
        }

        const CampaignSpec &spec = w.campaign->spec;
        bool expired = false;
        if (spec.deadlineMs > 0) {
            const auto elapsed =
                std::chrono::steady_clock::now() - w.campaign->admitted;
            const double ms =
                std::chrono::duration<double, std::milli>(elapsed).count();
            expired = ms > spec.deadlineMs;
        }

        sim::RunResult r;
        std::string error;
        if (expired) {
            error = csprintf("campaign deadline (%.0f ms) exceeded",
                             spec.deadlineMs);
        } else {
            try {
                r = _runCell(spec, w.cell);
            } catch (const FatalError &e) {
                error = e.what();
            } catch (const std::exception &e) {
                error = e.what();
            }
        }
        recordOutcome(w.campaign, w.cell, r, error, true);

        {
            std::lock_guard<std::mutex> lock(_mu);
            --_inFlight;
            if (expired)
                ++_counters.deadlineExpired;
            else
                ++_counters.cellsRun;
            if (!error.empty())
                ++_counters.cellErrors;
        }
        finishIfComplete(w.campaign);
    }
}

void
CampaignQueue::recordOutcome(const std::shared_ptr<Campaign> &c,
                             std::size_t cell, const sim::RunResult &r,
                             const std::string &error, bool journalIt)
{
    if (journalIt) {
        // One flushed line per completed cell; a kill -9 tears at most
        // this line, and a torn line just re-runs the cell.
        std::lock_guard<std::mutex> jlock(c->journalMu);
        c->journal << "cell " << cell << ' ' << escapeTok(error);
        encodeResult(c->journal, r);
        c->journal << '\n';
        c->journal.flush();
    }
    std::lock_guard<std::mutex> lock(_mu);
    if (c->have[cell])
        return;
    c->results[cell] = r;
    c->errors[cell] = error;
    c->have[cell] = 1;
    ++c->done;
}

void
CampaignQueue::finishIfComplete(const std::shared_ptr<Campaign> &c)
{
    std::lock_guard<std::mutex> lock(_mu);
    if (c->complete || c->done != c->spec.cells.size())
        return;
    writeAggregate(*c);
    c->complete = true;
    ++_counters.completed;
}

void
CampaignQueue::writeAggregate(Campaign &c)
{
    // Deliberately timing-free: apart from provenance `jobs` (the one
    // field allowed to vary), the aggregate depends only on the
    // submission - which is what lets the chaos harness demand
    // byte-identical output across kill -9 interruptions.
    obs::Provenance prov;
    prov.schema = "hscd-serve-campaign";
    prov.tool = "hscd_serve";
    prov.configHash = c.id;
    prov.faultSpec = c.spec.faultSpec.empty() ? "off" : c.spec.faultSpec;
    prov.jobs = _workers;

    std::ostringstream f;
    f << "{\n  \"provenance\": " << prov.json(2) << ",\n";
    f << "  \"campaign\": \"" << jsonEscape(c.spec.name) << "\",\n";
    f << "  \"id\": \"" << csprintf("%016x", c.id) << "\",\n";
    f << "  \"cells\": [\n";
    for (std::size_t i = 0; i < c.spec.cells.size(); ++i) {
        const CellSpec &cell = c.spec.cells[i];
        f << "    {\n";
        f << "      \"label\": \"" << jsonEscape(cell.label) << "\",\n";
        f << "      \"workload\": \"" << jsonEscape(cell.workload)
          << "\",\n";
        f << "      \"scheme\": \"" << jsonEscape(cell.scheme) << "\",\n";
        f << "      \"scale\": " << cell.scale << ",\n";
        f << "      \"affinity\": " << (cell.affinity ? "true" : "false")
          << ",\n";
        writeResultCellJson(f, c.results[i], c.errors[i]);
        f << "\n    }" << (i + 1 < c.spec.cells.size() ? "," : "")
          << "\n";
    }
    f << "  ]\n}\n";
    if (!atomicWrite(resultPath(c.id), f.str()))
        fatal("cannot write campaign result '%s'", resultPath(c.id));
}

void
CampaignQueue::shutdown(bool drain)
{
    {
        std::lock_guard<std::mutex> lock(_mu);
        if (_stopping && _threads.empty())
            return;
        _stopping = true;
        if (!drain) {
            // Fast stop: even queued work already claimed by no worker
            // is abandoned (it stays durable in the journals).
            _queue.clear();
        }
    }
    _cv.notify_all();
    // join() waits for in-flight cells to finish and journal - that is
    // the "drain" guarantee; cells cannot be interrupted mid-run.
    for (std::thread &t : _threads)
        if (t.joinable())
            t.join();
    _threads.clear();
}

std::size_t
CampaignQueue::depth() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _queue.size();
}

std::size_t
CampaignQueue::campaignCount() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _campaigns.size();
}

std::size_t
CampaignQueue::unfinishedCells() const
{
    std::lock_guard<std::mutex> lock(_mu);
    std::size_t n = 0;
    for (const auto &kv : _campaigns)
        if (!kv.second->complete)
            n += kv.second->spec.cells.size() - kv.second->done;
    return n;
}

void
CampaignQueue::noteRejected()
{
    std::lock_guard<std::mutex> lock(_mu);
    ++_counters.rejected;
}

QueueCounters
CampaignQueue::counters() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _counters;
}

bool
CampaignQueue::draining() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _stopping;
}

} // namespace serve
} // namespace hscd
