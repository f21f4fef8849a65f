/**
 * @file
 * Request grammar for the campaign server.
 *
 * Clients speak line-delimited JSON over the server socket; one line is
 * one request, answered by exactly one response line. The submission
 * grammar is strict in the sweep-CLI tradition: unknown keys, bad
 * types, unknown workloads/schemes and out-of-range values are
 * structured 400-style errors, never silently ignored (a typo must not
 * change a campaign).
 *
 *   {"op":"submit","campaign":"nightly","cells":[
 *      {"workload":"ocean","scheme":"tpi","scale":1},
 *      {"workload":"synth:stencil:7","scheme":"hw","procs":32}],
 *    "fault":"1e-3:9","timeout_ms":60000,"deadline_ms":600000}
 *
 *   {"op":"poll","id":"<16-hex campaign id>"}
 *   {"op":"healthz"}   {"op":"stats"}
 *
 * A campaign's identity is an FNV-1a hash over everything that
 * determines what its cells compute (workloads, schemes, configs,
 * fault spec) - deliberately excluding execution parameters (timeouts,
 * deadlines) that may differ between an interrupted submission and its
 * retry. Identity doubles as the durable queue's journal key and makes
 * resubmission idempotent: re-submitting after a crash attaches to the
 * journaled campaign instead of re-running finished cells.
 */

#ifndef HSCD_SERVE_PROTOCOL_HH
#define HSCD_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "mem/machine_config.hh"

namespace hscd {
namespace serve {

/** One simulation cell of a submitted campaign. */
struct CellSpec
{
    std::string workload; ///< benchmark name, synth:<f>:<s>, trace:<file>
    std::string scheme;   ///< canonical lower-case scheme name
    int scale = 1;
    bool affinity = true;
    unsigned procs = 0;       ///< 0 = MachineConfig default
    unsigned timetagBits = 0; ///< 0 = MachineConfig default
    std::string label;        ///< defaults to "workload/scheme"
};

/** A batched sweep submission. */
struct CampaignSpec
{
    std::string name;
    std::vector<CellSpec> cells;
    std::string faultSpec; ///< "" = fault injection off
    double timeoutMs = 0;  ///< per-cell budget (0 = none)
    double deadlineMs = 0; ///< whole-campaign budget (0 = none)

    /**
     * Canonical rendering of everything identity-relevant; stable
     * across processes so interrupted and fresh submissions hash alike.
     */
    std::string canonical() const;

    /** FNV-1a of canonical(): the journal/dedup key. */
    std::uint64_t identity() const;

    /**
     * Re-render as a canonical submit-request line (the durable .req
     * record). parseSubmit(toRequestJson()) round-trips exactly.
     */
    std::string toRequestJson() const;

    /** MachineConfig for cell @p i (applies the per-cell fault plan). */
    MachineConfig cellConfig(std::size_t i) const;
};

/**
 * Validate and convert a parsed submit request. Returns true on
 * success; false with a one-line reason in @p error (safe to echo to
 * the client). @p limitCells bounds the per-campaign cell count
 * (0 = unlimited).
 */
bool parseSubmit(const JsonValue &req, CampaignSpec &out,
                 std::string &error, std::size_t limitCells = 0);

} // namespace serve
} // namespace hscd

#endif // HSCD_SERVE_PROTOCOL_HH
